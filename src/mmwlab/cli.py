"""Command-line frontend: analytic reports, simulations, sweeps, optimizer.

Every subcommand emits CSV (stdout, or --out PATH). The first line is a
'#' comment recording the tool version, schema number, seed, and the fully
resolved scenario, so a saved file documents how to reproduce itself.
Identical inputs produce byte-identical output; the only live feedback is
a point counter on stderr during sweeps.

Exit codes: 0 ok, 2 config/flag error, 3 numeric failure, 4 output I/O.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import fields

from . import __version__
from .analytic import (
    ANALYTIC_CSV_COLUMNS,
    DomainError,
    _load_scipy,
    analytic_report,
    average_rate,
    optimal_bias_coverage,
    optimal_bias_rate,
)
from .scenario import (
    PRESETS,
    ConfigError,
    ScenarioParams,
    load_config,
    params_for_city,
    validate,
)
from .simulate import (RULE_BUILDING_AWARE, RULE_MAX_RSRP, SimMode,
                       default_window, estimate, format_cell)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_SCHEMA = 1

SWEEP_KEYS = ("beta", "lambda_ell", "theta", "gamma_c", "lambda_b", "alpha", "t")
SWEEP_ENGINES = ("analytic", "sim-full", "sim-losball")

SWEEP_CSV_COLUMNS = [
    "key", "value", "engine", "status", "coverage", "coverage_stderr",
    "rate_bps", "rate_stderr", "mainlobe_fraction", "uncovered_fraction",
    "rate_gain",
]

SIM_SUMMARY_COLUMNS = [
    "mode", "rule", "drops", "seed", "coverage", "coverage_stderr",
    "coverage_hw95", "rate_bps", "rate_stderr", "rate_hw95",
    "mainlobe_fraction", "mainlobe_stderr", "uncovered_fraction",
    "near_fraction",
]

_MODES = {"full": SimMode.FULL_GEOMETRY, "losball": SimMode.LOS_BALL}


def _row(values) -> str:
    return ",".join(format_cell(v) for v in values)


def _header(cmd: str, params: ScenarioParams | None, seed=None, **extra) -> str:
    parts = [f"# mmwlab {__version__} schema={_SCHEMA} cmd={cmd}",
             f"seed={'-' if seed is None else seed}"]
    for key, val in extra.items():
        parts.append(f"{key}={format_cell(val)}")
    if params is not None:
        parts.extend(f"{f.name}={format_cell(getattr(params, f.name))}"
                     for f in fields(params))
    return " ".join(parts)


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _resolve_params(args) -> ScenarioParams:
    params = load_config(args.config) if args.config else ScenarioParams()
    if getattr(args, "city", None):
        params = params_for_city(args.city, params)
    if getattr(args, "beta", None) is not None:
        params = params.with_(beta=args.beta)
    outcome = validate(params)
    if not outcome.ok:
        raise ConfigError("invalid scenario:\n  " + "\n  ".join(outcome.violations))
    return params


def _worker_count(requested: int | None) -> int:
    cap = os.environ.get("MMWLAB_THREADS")
    n = 1 if requested is None else max(1, requested)
    if cap is not None:
        try:
            n = min(n, max(1, int(cap)))
        except ValueError:
            raise ConfigError(f"MMWLAB_THREADS must be an integer, got {cap!r}") from None
    return n


# ---------------------------------------------------------------------------
# Subcommands


def cmd_analytic(args) -> int:
    params = _resolve_params(args)
    report = analytic_report(params, literal_load_trigger=args.literal_loads)
    lines = [
        _header("analytic", params, literal_loads=args.literal_loads),
        _row(ANALYTIC_CSV_COLUMNS),
        _row(report.csv_row()),
    ]
    _emit(lines, args.out)
    return EXIT_OK


def cmd_optimal_beta(args) -> int:
    params = _resolve_params(args)
    if args.objective == "coverage":
        beta_star, value = optimal_bias_coverage(params)
    else:
        beta_star, value = optimal_bias_rate(
            params, literal_load_trigger=args.literal_loads)
    lines = [
        _header("optimal-beta", params, objective=args.objective,
                literal_loads=args.literal_loads),
        _row(["objective", "beta_star", "value"]),
        _row([args.objective, beta_star, value]),
    ]
    _emit(lines, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    params = _resolve_params(args)
    if args.drops < 2:
        raise ConfigError(f"--drops must be >= 2, got {args.drops}")
    mode = _MODES[args.mode]
    workers = _worker_count(args.workers)
    window = default_window(params)
    summary = estimate(params, mode=mode, n_drops=args.drops,
                       seed_base=args.seed, workers=workers,
                       trace_path=args.trace,
                       association_rule=args.rule)
    lines = [
        _header("simulate", params, seed=args.seed, mode=args.mode,
                rule=args.rule, drops=args.drops,
                window_half_m=window.half_width,
                window_margin_m=window.margin),
        "# note: base stations with no scheduled user stay silent, while the"
        " analytic model assumes every base station transmits",
        _row(SIM_SUMMARY_COLUMNS),
        _row([
            args.mode, args.rule, args.drops, args.seed,
            summary.coverage.mean, summary.coverage.stderr,
            summary.coverage.half_width,
            summary.rate_bps.mean, summary.rate_bps.stderr,
            summary.rate_bps.half_width,
            summary.mainlobe_fraction.mean, summary.mainlobe_fraction.stderr,
            summary.uncovered_fraction, summary.near_fraction,
        ]),
    ]
    _emit(lines, args.out)
    return EXIT_OK


def _sweep_grid(start: float, stop: float, steps: int) -> list[float]:
    if steps < 2:
        raise ConfigError(f"sweep needs steps >= 2, got {steps}")
    if not start < stop:
        raise ConfigError(f"sweep needs start < stop, got {start} .. {stop}")
    width = stop - start
    return [start + width * i / (steps - 1) for i in range(steps)]


@functools.lru_cache(maxsize=32)
def _rate_gain(params: ScenarioParams, literal_loads: bool) -> float | None:
    """rate(beta*) / rate(0). Neither rate reads params.beta, so callers
    clear it and every row of a beta sweep shares one entry per process."""
    _, rate_star = optimal_bias_rate(params, literal_load_trigger=literal_loads)
    rate_zero = average_rate(params, 0.0, literal_load_trigger=literal_loads)
    return rate_star / rate_zero if rate_zero > 0 else None


def _sweep_point(job) -> list[list]:
    """All rows for one grid point. Module-level so pools can pickle it."""
    base, key, value, engines, drops, seed, literal_loads, want_gain = job
    params = base.with_(**{key: value})
    rows = []
    for engine in engines:
        cells = {c: None for c in SWEEP_CSV_COLUMNS}
        cells["key"], cells["value"], cells["engine"] = key, value, engine
        try:
            outcome = validate(params)
            if not outcome.ok:
                raise ConfigError("; ".join(outcome.violations))
            if engine == "analytic":
                report = analytic_report(params, literal_load_trigger=literal_loads)
                cells["coverage"] = report.s
                cells["rate_bps"] = report.rate
                if want_gain:
                    cells["rate_gain"] = _rate_gain(params.with_(beta=0.0),
                                                    literal_loads)
            else:
                mode = (SimMode.FULL_GEOMETRY if engine == "sim-full"
                        else SimMode.LOS_BALL)
                summary = estimate(params, mode=mode, n_drops=drops,
                                   seed_base=seed)
                cells["coverage"] = summary.coverage.mean
                cells["coverage_stderr"] = summary.coverage.stderr
                cells["rate_bps"] = summary.rate_bps.mean
                cells["rate_stderr"] = summary.rate_bps.stderr
                cells["mainlobe_fraction"] = summary.mainlobe_fraction.mean
                cells["uncovered_fraction"] = summary.uncovered_fraction
            cells["status"] = "ok"
        except (ConfigError, DomainError, ArithmeticError, ValueError) as exc:
            cells["status"] = f"error:{type(exc).__name__}"
        rows.append([cells[c] for c in SWEEP_CSV_COLUMNS])
    return rows


def cmd_sweep(args) -> int:
    params = _resolve_params(args)
    if args.key not in SWEEP_KEYS:
        raise ConfigError(f"sweep key must be one of {SWEEP_KEYS}, got {args.key!r}")
    engines = tuple(e.strip() for e in args.engines.split(","))
    for engine in engines:
        if engine not in SWEEP_ENGINES:
            raise ConfigError(
                f"engine must be one of {SWEEP_ENGINES}, got {engine!r}")
    if args.drops < 2 and set(engines) != {"analytic"}:
        raise ConfigError(f"--drops must be >= 2, got {args.drops}")
    grid = _sweep_grid(args.start, args.stop, args.steps)
    workers = _worker_count(args.workers)

    jobs = [(params, args.key, value, engines, args.drops,
             args.seed + i * max(args.drops, 1), args.literal_loads,
             args.rate_gain)
            for i, value in enumerate(grid)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        if "analytic" in engines:
            # once here, not once in every forked worker
            _load_scipy()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, jobs))
    else:
        results = []
        for i, job in enumerate(jobs):
            results.append(_sweep_point(job))
            print(f"{i + 1}/{len(jobs)}", file=sys.stderr, flush=True)

    lines = [
        _header("sweep", params, seed=args.seed, key=args.key,
                start=args.start, stop=args.stop, steps=args.steps,
                engines=";".join(engines), drops=args.drops,
                literal_loads=args.literal_loads, rate_gain=args.rate_gain),
        _row(SWEEP_CSV_COLUMNS),
    ]
    status = SWEEP_CSV_COLUMNS.index("status")
    statuses = set()
    for rows in results:
        for row in rows:
            lines.append(_row(row))
            statuses.add(row[status])
    _emit(lines, args.out)
    # a sweep with no ok row fails like its rows: exit 2 when every one
    # lies outside the model's domain, 3 when any failed numerically
    if "ok" in statuses:
        return EXIT_OK
    return EXIT_CONFIG if statuses == {"error:ConfigError"} else EXIT_NUMERIC


def cmd_presets(args) -> int:
    cols = ["name", "lambda_ell_per_km2", "d_l_m", "d_w_m", "reference_los_m"]
    if args.csv:
        lines = [_header("presets", None), _row(cols)]
        if not args.no_rows:
            lines.extend(_row([c.name, c.lambda_ell, c.d_l, c.d_w,
                               c.reference_los_m])
                         for c in PRESETS.values())
    else:
        widths = (12, 20, 8, 8, 18)
        def pad(cells):
            return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths)).rstrip()
        lines = [pad(cols)]
        if not args.no_rows:
            lines.extend(pad([c.name, c.lambda_ell, c.d_l, c.d_w,
                              c.reference_los_m])
                         for c in PRESETS.values())
    _emit(lines, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _add_common(sub):
    sub.add_argument("--config", metavar="PATH", help="scenario config file")
    sub.add_argument("--city", choices=sorted(PRESETS),
                     help="apply a city preset's building statistics")
    sub.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmwlab",
        description="Building-aware mmWave association: analytic model and "
                    "Monte Carlo validation.")
    parser.add_argument("--version", action="version",
                        version=f"mmwlab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analytic", help="evaluate the analytic chain at one bias")
    _add_common(p)
    p.add_argument("--beta", type=float, help="association bias in [0, 1]")
    p.add_argument("--literal-loads", action="store_true",
                   help="key the expanded-cell load trigger to user density instead of BS density")
    p.set_defaults(func=cmd_analytic)

    p = subs.add_parser("optimal-beta", help="maximize coverage or rate over bias")
    _add_common(p)
    p.add_argument("--objective", choices=("coverage", "rate"),
                   default="coverage")
    p.add_argument("--literal-loads", action="store_true")
    p.set_defaults(func=cmd_optimal_beta)

    p = subs.add_parser("simulate", help="Monte Carlo estimate at one point")
    _add_common(p)
    p.add_argument("--beta", type=float)
    p.add_argument("--mode", choices=sorted(_MODES), default="full")
    p.add_argument("--drops", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rule", choices=(RULE_BUILDING_AWARE, RULE_MAX_RSRP),
                   default=RULE_BUILDING_AWARE)
    p.add_argument("--workers", type=int, help="process pool size (capped by MMWLAB_THREADS)")
    p.add_argument("--trace", metavar="PATH", help="write per-drop trace CSV")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("sweep", help="sweep one parameter, CSV per grid point")
    _add_common(p)
    p.add_argument("--beta", type=float)
    p.add_argument("--key", required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--engines", default="analytic",
                   help="comma list of analytic,sim-full,sim-losball")
    p.add_argument("--drops", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int)
    p.add_argument("--rate-gain", action="store_true",
                   help="add rate(beta*)/rate(0) column (analytic engine)")
    p.add_argument("--literal-loads", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("presets", help="list the built-in city presets")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--no-rows", action="store_true")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_presets)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
