"""mmwlab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout of the repository: it imports mmwlab from the
`src` directory next to `bench` and refuses to run without it. The seed
fixes the inputs. Units of work repeat until the next one would end
more than half a unit after S seconds. Throughput is taken from the
median unit time, so a stall of a few seconds on a shared machine does
not move it. Set-up time is the median of fresh-interpreter probes,
half of them run before the measured pass and half after it, so that
one slow phase of a shared machine does not set it.

With --trace 0 the last line of stdout is a JSON object whose metrics
are the end-to-end metrics of BENCHMARK.json. With --trace 1 each unit
runs untraced and then again with the span tracer installed; the
outputs of the two passes must agree, and the metrics are the per-layer
ones, including the tracing overhead. Every run also writes
bench/results/<workload>-seed<N>-trace<T>.json with the machine,
versions and every number measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"
SETUP_PROBES = 2  # before and again after the measured pass
SETUP_TIMEOUT_S = 60.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")


@dataclass
class Pass:
    """Everything one pass over a workload's units measured."""
    units: int = 0
    ops: int = 0
    failed: int = 0
    wall: float = 0.0
    unit_wall: array = field(default_factory=lambda: array("d"))
    lat: array = field(default_factory=lambda: array("d"))
    outputs: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def _run_unit(p: Pass, wl, i: int, tracer=None) -> bool:
    """Run unit i of `wl` into `p`, under `tracer` if one is given.
    Returns False when the unit raised; its operations count as failed."""
    p.units += 1
    p.ops += wl.unit_ops
    t0 = time.perf_counter()
    try:
        if tracer is None:
            lat, out = wl.run_unit(i)
        else:
            with tracer:
                lat, out = wl.run_unit(i)
    except Exception:
        p.errors.append(traceback.format_exc())
        p.failed += wl.unit_ops
        return False
    finally:
        p.unit_wall.append(time.perf_counter() - t0)
        p.wall += p.unit_wall[-1]
    p.lat.extend(lat)
    p.outputs.extend(out)
    return True


def _more(t0: float, done: int, seconds: float) -> bool:
    """Whether to start another unit: at the mean unit time so far, it
    would end at most half a unit after `seconds`. Stopping at the nearest
    unit boundary keeps runs of long units (a 10 s solve cycle) from
    measuring one unit when the machine is slow and two when it is fast."""
    return not done or (time.perf_counter() - t0) * (done + 0.5) / done <= seconds


def run_pass(wl, seconds: float | None = None, units: int | None = None) -> Pass:
    """Run units of `wl` until `_more` says stop, or run exactly `units`
    of them. A unit that raises ends the pass."""
    p = Pass()
    t0 = time.perf_counter()
    while (p.units < units if units is not None
           else _more(t0, p.units, seconds)):
        if not _run_unit(p, wl, p.units):
            break
    return p


def run_pairs(wl, seconds: float, tracer) -> tuple[Pass, Pass]:
    """Run each unit untraced and then traced, until `_more` says stop.
    Interleaving keeps slow phases of a shared machine from landing on
    one side of the overhead."""
    plain, traced = Pass(), Pass()
    t0 = time.perf_counter()
    while _more(t0, plain.units, seconds):
        i = plain.units
        if not (_run_unit(plain, wl, i) and _run_unit(traced, wl, i, tracer)):
            break
    return plain, traced


def _check(wl, p: Pass) -> tuple[int, list[str]]:
    failed, msgs = wl.check(p.outputs) if p.outputs else (0, [])
    return p.failed + failed, p.errors + msgs


def trace_in_process(wl, seconds: float):
    """Untraced and traced passes over the same units."""
    from tracer import Tracer, layer_metrics
    tracer = Tracer()
    base, traced = run_pairs(wl, seconds, tracer)
    trace = tracer.to_json()
    layers = layer_metrics(trace, traced.wall, traced.ops)
    layers["trace.overhead_pct"] = 100.0 * (traced.wall - base.wall) / base.wall
    layers["cli.parallel_efficiency"] = 0.0   # no process pool runs here
    same = traced.outputs == base.outputs
    return base, traced, trace, layers, same, {}


def trace_sweep(wl, seconds: float):
    """One parallel and one serial untraced sweep, then a serial sweep in a
    child process with the tracer installed. All three CSVs must match.
    Each command already takes a third of a run, so `seconds` is unused."""
    from tracer import layer_metrics
    from workloads import SWEEP_WORKERS
    base = run_pass(wl, units=1)
    code_s, wall_s, data_s = wl.command(1)
    spans = wl.work / f"trace-{os.getpid()}.json"
    code_t, wall_t, data_t = wl.command(1, traced=spans)
    traced = Pass(units=1, ops=wl.unit_ops, wall=wall_t, lat=[wall_t],
                  outputs=[(code_t, data_t)])
    trace = {"root_s": 0.0, "stats": {}}
    if spans.exists():
        trace = json.loads(spans.read_text(encoding="utf-8"))
        spans.unlink()
    layers = layer_metrics(trace, trace["root_s"], 1)
    layers["trace.overhead_pct"] = 100.0 * (wall_t - wall_s) / wall_s
    parallel_wall = base.lat[0] if base.lat else 0.0
    layers["cli.parallel_efficiency"] = (
        wall_s / (SWEEP_WORKERS * parallel_wall) if parallel_wall else 0.0)
    first = base.outputs[0][1] if base.outputs else None
    same = data_t == first and data_s == first
    extra = {"serial_wall_s": wall_s, "parallel_wall_s": parallel_wall,
             "serial_exit": code_s}
    return base, traced, trace, layers, same, extra


def _percentiles(lat) -> dict:
    import numpy as np
    if not len(lat):  # the first unit raised; the run already failed
        return dict.fromkeys(("op_ms_p50", "op_ms_p90", "op_ms_p99", "op_s_p50"), 0.0)
    p50, p90, p99 = np.percentile(np.asarray(lat, float), [50, 90, 99])
    return {"op_ms_p50": 1e3 * p50, "op_ms_p90": 1e3 * p90,
            "op_ms_p99": 1e3 * p99, "op_s_p50": p50}


def _source_id() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mmwlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
        commit = out.stdout.strip() or None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def _machine() -> dict:
    import numpy
    import scipy
    from workloads import usable_cpus
    return {"cpu_count": os.cpu_count(), "usable_cpus": usable_cpus(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _pin_environment() -> None:
    """One BLAS/OpenMP thread in this process and every child, and
    imports from this checkout's sources only."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mmwlab" / "__init__.py").is_file():
        print(f"error: no mmwlab sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if not SPEC_PATH.is_file():
        print(f"error: {SPEC_PATH} not found", file=sys.stderr)
        return 2
    # Thread variables must be set before numpy is first imported.
    _pin_environment()
    import mmwlab
    if Path(mmwlab.__file__).resolve().parent != (SRC / "mmwlab").resolve():
        print(f"error: mmwlab imported from {mmwlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, load_reference, run_child, sweep_worker_cap
    os.environ["MMWLAB_THREADS"] = str(sweep_worker_cap())
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    wl = WORKLOADS[args.workload](args.seed, load_reference())
    wl.track_rows = bool(args.trace)

    attempted, failed, messages = 0, 0, []

    def count(result: tuple[int, list[str]], ops: int) -> None:
        nonlocal attempted, failed
        attempted += ops
        failed += result[0]
        messages.extend(result[1])

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "request": wl.request, **_source_id(), "machine": _machine()}
    def probe_setup() -> None:
        setup = [run_child(wl.setup_argv(), SETUP_TIMEOUT_S)
                 for _ in range(SETUP_PROBES)]
        bad = [f"set-up probe exited {code}" for code, _, _ in setup if code]
        count((len(bad), bad), len(setup))
        record.setdefault("setup_probe_s", []).extend(
            wall for _, wall, _ in setup)

    if not args.trace:
        probe_setup()

    checked, bad, msgs = wl.prepare()
    count((bad, msgs), checked)

    if args.trace:
        trace_fn = trace_sweep if args.workload == "sweep_cli" else trace_in_process
        base, traced, trace, layers, same, extra = trace_fn(wl, args.seconds)
        count(_check(wl, base), base.ops)
        count(_check(wl, traced), traced.ops)
        if not same:
            count((traced.ops, ["traced outputs differ from untraced outputs"]), 0)
        record.update(extra, untraced_wall_s=base.wall,
                      traced_wall_s=traced.wall, outputs_match=same,
                      spans=trace)
        values, wanted = layers, spec["per_layer"]
    else:
        base = run_pass(wl, seconds=args.seconds)
        count(_check(wl, base), base.ops)
        probe_setup()
        values = {"setup_s": statistics.median(record["setup_probe_s"]),
                  "ops_per_s": wl.unit_ops / statistics.median(base.unit_wall),
                  "ops_per_s_whole_pass": base.ops / base.wall,
                  "peak_rss_mb": wl.peak_rss_mb(),
                  **_percentiles(base.lat)}
        wanted = spec["end_to_end"]
        record["aliases"] = {alias: {"value": values[src], "unit": unit}
                             for alias, (src, unit) in wl.aliases.items()}
    record.update(units=base.units, ops=base.ops, requests=len(base.lat),
                  pass_wall_s=base.wall, unit_wall_s=list(base.unit_wall))
    if args.workload == "sweep_cli" and base.outputs:
        firsts = [data for _, data in base.outputs]
        record["csv_identical_to_first"] = sum(d == firsts[0] for d in firsts)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    failed = min(failed, attempted)
    record.update(attempted=attempted, failed=failed,
                  failed_frac=failed / attempted, messages=messages,
                  metrics=metrics, all_values=values)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n",
                   encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} units={base.units} "
          f"requests={len(base.lat)} ({wl.request}) result={out.relative_to(ROOT)}")
    for msg in messages:
        print(f"# FAILED: {msg.strip()}")
    for name, v in metrics.items():
        print(f"{name} = {v['value']:.6g} {v['unit']}")
    for alias, v in record.get("aliases", {}).items():
        print(f"# {alias} = {v['value']:.6g} {v['unit']}")
    print(f"# failed_frac = {record['failed_frac']:.6g} ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
