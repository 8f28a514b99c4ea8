"""The benchmark's workloads: inputs, one measured unit of work, checks.

A workload turns the command-line seed into its inputs and runs in
units (a chunk of drops, a cycle of bias solves, one sweep command) of
`unit_ops` operations each. `run.py` repeats units until the next one
would end more than half a unit after the run length. A unit returns
its request latencies and its outputs; `check` turns a pass's outputs
into failed-operation counts against `reference.json`, and the traced
run compares the outputs of its untraced and traced passes.

This module imports only mmwlab, numpy and the standard library, so the
fresh-interpreter set-up probe measures the program's imports, not the
harness's.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mmwlab.analytic
import mmwlab.simulate
from mmwlab import ScenarioParams, coverage, params_for_city
from mmwlab.simulate import SimMode, sample_row

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"

# The paper's headline operating point: default scenario near the rate
# optimum (0.71), building-aware association.
FULL_POINT = ScenarioParams(beta=0.7)
FULL_CHUNK = 4

# Criterion 3 of the acceptance gate: the LOS-ball engine against the
# closed-form coverage over an 11-point bias grid.
LOSBALL_POINT = ScenarioParams(lambda_b=200.0, lambda_ell=200.0,
                               theta=math.pi / 6, gamma_c=0.6)
BETA_GRID = [i / 10 for i in range(11)]
LOSBALL_CHUNK = 100

# alpha = 2 takes the exact log branch of the band integral; alpha >= 3
# runs the nested quadrature.
LOG_SET = [("default", ScenarioParams()),
           ("gangnam", params_for_city("gangnam")),
           ("chicago", params_for_city("chicago"))]
QUAD_SET = [("default-a3", ScenarioParams(alpha=3.0)),
            ("default-a4", ScenarioParams(alpha=4.0))]
OBJECTIVES = ("rate", "coverage")

# Gangnam beta sweep through all three engines. The drop count is scaled
# from the 150 of a typical study so that a 20 s run holds three commands.
SWEEP_WORKERS = 2
SWEEP_DROPS = 40
SWEEP_ARGS = ["sweep", "--city", "gangnam", "--key", "beta", "--start", "0",
              "--stop", "1", "--steps", "6",
              "--engines", "analytic,sim-losball,sim-full", "--rate-gain",
              "--drops", str(SWEEP_DROPS)]
SWEEP_SETUP_ARGS = ["sweep", "--key", "beta", "--start", "0", "--stop", "1",
                    "--steps", "2", "--engines", "analytic"]
SWEEP_POINT = params_for_city("gangnam")
CLI_TIMEOUT_S = 150.0

# Exact replay: before measuring, each drop workload re-runs fixed blocks
# of drops (params, engine, drop count) from REPLAY_SEED and compares the
# digest of their trace rows with reference.json. Drops are a fixed
# function of (params, mode, seed), so a change to any drop's outcome in
# these blocks fails the run.
REPLAY_SEED = 3_900_000_000
REPLAY_BETAS = (0.2, 0.6, 1.0)
REPLAY = {
    "full_default": [("default/full/0.7", FULL_POINT, SimMode.FULL_GEOMETRY,
                      12)],
    "losball_grid": [(f"criterion3/losball/{b:g}", LOSBALL_POINT.with_(beta=b),
                      SimMode.LOS_BALL, 40) for b in BETA_GRID],
    "sweep_cli": [(f"gangnam/{engine}/{b:g}", SWEEP_POINT.with_(beta=b), mode, n)
                  for b in REPLAY_BETAS
                  for engine, mode, n in (("full", SimMode.FULL_GEOMETRY, 10),
                                          ("losball", SimMode.LOS_BALL, 50))],
}

# The statistical checks on measured drops are a sanity check beside the
# exact replay. Their z-bound is this wide, so a correct program fails
# one roughly once in two million checks.
Z_BOUND = 5.0
BETA_TOL = 1e-4      # golden-section tolerance of the optimizer
VALUE_RTOL = 1e-8    # bias-solve objective
ANALYTIC_RTOL = 1e-9 # analytic sweep rows


def seed_base(seed: int, *key: int) -> int:
    """First drop seed of a stream, derived from the command-line seed."""
    ss = np.random.SeedSequence([seed % 2**32, *key])
    return int(ss.generate_state(1, dtype=np.uint32)[0])


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _solve(params, objective):
    if objective == "rate":
        return mmwlab.analytic.optimal_bias_rate(params)
    return mmwlab.analytic.optimal_bias_coverage(params)


def warm_up(name: str):
    """The untimed first call of a workload; returns its result."""
    if name == "full_default":
        return mmwlab.simulate.realize(FULL_POINT, SimMode.FULL_GEOMETRY, 0)
    if name == "losball_grid":
        return mmwlab.simulate.realize(LOSBALL_POINT.with_(beta=0.5),
                                       SimMode.LOS_BALL, 0)
    if name == "analytic_log":
        return mmwlab.analytic.analytic_report(LOG_SET[0][1])
    if name == "analytic_quad":
        return mmwlab.analytic.analytic_report(QUAD_SET[0][1])
    raise ValueError(f"no in-process warm-up for {name!r}")


def sweep_worker_cap() -> int:
    """MMWLAB_THREADS value: the sweep's pool never exceeds the CPUs."""
    return max(1, min(SWEEP_WORKERS, usable_cpus()))


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_child(argv: list[str], timeout: float):
    """Run a child process group to completion.

    Returns (exit code, wall seconds, peak RSS in MB of the largest
    process in the group). The group is killed on timeout.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class _DropTimer:
    """Times each `realize` call that `estimate` makes, at the name
    `estimate` looks up. It is on in both passes, so the tracing overhead
    excludes it."""

    def __init__(self):
        self.lat = array("d")

    def __enter__(self):
        self._orig = mmwlab.simulate.realize
        orig, lat = self._orig, self.lat

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = orig(*args, **kwargs)
            lat.append(time.perf_counter() - t0)
            return out
        mmwlab.simulate.realize = timed
        return self

    def __exit__(self, *exc):
        mmwlab.simulate.realize = self._orig


def _z_ok(mean: float, ref: dict, n: int) -> bool:
    """|mean - reference mean| within Z_BOUND combined standard errors."""
    se = math.sqrt(ref["sd"] ** 2 / n + ref["sd"] ** 2 / ref["n"])
    return abs(mean - ref["mean"]) <= Z_BOUND * se


def replay_digest(params, mode, n: int) -> str:
    """Digest of the trace rows of n drops from REPLAY_SEED."""
    summary = mmwlab.simulate.estimate(params, mode, n_drops=n,
                                       seed_base=REPLAY_SEED)
    return _batch(0, summary.records, True).digest


def replay(name: str, reference: dict) -> tuple[int, int, list[str]]:
    """Replays workload `name`'s blocks against the reference digests;
    returns (drops, failed drops, messages)."""
    ops, failed, msgs = 0, 0, []
    for key, params, mode, n in REPLAY.get(name, ()):
        ops += n
        if replay_digest(params, mode, n) != reference["replay"][key]:
            failed += n
            msgs.append(f"replay {key}: the {n} drops from seed {REPLAY_SEED}"
                        " differ from the reference")
    return ops, failed, msgs


# ---------------------------------------------------------------------------


class Workload:
    name = ""
    request = ""     # what one latency sample times
    unit_ops = 0     # operations per unit; ops_per_s counts these
    aliases: dict = {}  # workload-specific metric name -> (metric, unit)
    track_rows = False  # digest drop trace rows, to compare two passes

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.ref = reference

    def setup_argv(self) -> list[str]:
        return [sys.executable, str(HERE / "probe.py"), "setup", self.name]

    def prepare(self) -> tuple[int, int, list[str]]:
        """Untimed warm-up and exact replay; returns (operations checked,
        failed operations, messages)."""
        warm_up(self.name)
        return replay(self.name, self.ref)

    def run_unit(self, i: int):
        """Runs unit i; returns (request latencies [s], outputs)."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def check(self, outputs: list) -> tuple[int, list[str]]:
        """Returns (failed operations, messages) for one pass."""
        raise NotImplementedError


@dataclass(frozen=True)
class DropBatch:
    """What the checks need from a chunk of drops. With row tracking on,
    `digest` hashes every trace row, so two passes compare without
    keeping the rows (memory that would grow with drops per second)."""
    key: int
    n: int
    covered: int
    rate_sum: float
    digest: str = ""


def _batch(key: int, records, track_rows: bool) -> DropBatch:
    digest = ""
    if track_rows:
        h = hashlib.sha256()
        for rec in records:
            h.update(",".join(sample_row(rec)).encode() + b"\n")
        digest = h.hexdigest()
    return DropBatch(key, len(records), sum(int(r.covered) for r in records),
                     float(sum(r.rate_bps for r in records)), digest)


class FullDefault(Workload):
    name = "full_default"
    request = "full-geometry drop"
    unit_ops = FULL_CHUNK
    aliases = {"drops_per_s": ("ops_per_s", "1/s"),
               "drop_ms_p50": ("op_ms_p50", "ms"),
               "drop_ms_p90": ("op_ms_p90", "ms")}

    def run_unit(self, i):
        base = seed_base(self.seed) + i * FULL_CHUNK
        with _DropTimer() as timer:
            summary = mmwlab.simulate.estimate(
                FULL_POINT, SimMode.FULL_GEOMETRY, n_drops=FULL_CHUNK,
                seed_base=base)
        return timer.lat, [_batch(0, summary.records, self.track_rows)]

    def check(self, outputs):
        n = sum(b.n for b in outputs)
        cov = sum(b.covered for b in outputs) / n
        rate = sum(b.rate_sum for b in outputs) / n
        ref = self.ref["full_default"]
        msgs = []
        if not _z_ok(cov, ref["coverage"], n):
            msgs.append(f"coverage {cov:.4f} vs reference "
                        f"{ref['coverage']['mean']:.4f} over {n} drops")
        if not _z_ok(rate, ref["rate_bps"], n):
            msgs.append(f"rate {rate:.4g} vs reference "
                        f"{ref['rate_bps']['mean']:.4g} over {n} drops")
        return (n if msgs else 0), msgs


class LosballGrid(Workload):
    name = "losball_grid"
    request = "LOS-ball drop"
    unit_ops = LOSBALL_CHUNK * len(BETA_GRID)
    aliases = {"drops_per_s": ("ops_per_s", "1/s"),
               "drop_ms_p50": ("op_ms_p50", "ms"),
               "drop_ms_p99": ("op_ms_p99", "ms")}

    def prepare(self):
        self.points = [LOSBALL_POINT.with_(beta=b) for b in BETA_GRID]
        self.targets = [coverage(p, p.beta) for p in self.points]
        return super().prepare()

    def run_unit(self, i):
        batches = []
        with _DropTimer() as timer:
            for k, params in enumerate(self.points):
                summary = mmwlab.simulate.estimate(
                    params, SimMode.LOS_BALL, n_drops=LOSBALL_CHUNK,
                    seed_base=seed_base(self.seed, k) + i * LOSBALL_CHUNK)
                batches.append(_batch(k, summary.records, self.track_rows))
        return timer.lat, batches

    def check(self, outputs):
        failed, msgs = 0, []
        for k, target in enumerate(self.targets):
            n = sum(b.n for b in outputs if b.key == k)
            p = sum(b.covered for b in outputs if b.key == k) / n
            stderr = math.sqrt(p * (1.0 - p) / (n - 1))  # covered is 0 or 1
            dev = abs(p - target)
            tol = max(0.05, 3.0 * stderr)  # criterion 3's rule
            if dev > tol:
                failed += n
                msgs.append(f"beta={BETA_GRID[k]:.1f}: |sim - analytic| = "
                            f"{dev:.4f} > {tol:.4f} over {n} drops")
        return failed, msgs


class _AnalyticSet(Workload):
    # One request is a whole cycle, timed as seconds per solve: the set
    # mixes solves of different cost, and a median over single solves
    # would jump between them.
    request = "bias-solve cycle, per solve"
    problems: list = []

    def __init__(self, *args):
        super().__init__(*args)
        self.jobs = [(name, params, obj) for name, params in self.problems
                     for obj in OBJECTIVES]
        self.unit_ops = len(self.jobs)

    def run_unit(self, i):
        jobs = self.jobs
        order = np.random.default_rng([self.seed % 2**32, i]).permutation(len(jobs))
        out = []
        t0 = time.perf_counter()
        for j in order:
            name, params, obj = jobs[j]
            beta_star, value = _solve(params, obj)
            out.append((name, obj, float(beta_star), float(value)))
        return [(time.perf_counter() - t0) / len(jobs)], out

    def check(self, outputs):
        failed, msgs = 0, []
        for name, obj, beta_star, value in outputs:
            ref = self.ref["analytic"][f"{name}/{obj}"]
            if (abs(beta_star - ref["beta_star"]) > BETA_TOL
                    or abs(value - ref["value"]) > VALUE_RTOL * abs(ref["value"])):
                failed += 1
                msgs.append(f"{name}/{obj}: ({beta_star}, {value}) vs "
                            f"({ref['beta_star']}, {ref['value']})")
        return failed, msgs


class AnalyticLog(_AnalyticSet):
    name = "analytic_log"
    problems = LOG_SET
    aliases = {"solve_s_log": ("op_s_p50", "s")}


class AnalyticQuad(_AnalyticSet):
    name = "analytic_quad"
    problems = QUAD_SET
    aliases = {"solve_s_quad": ("op_s_p50", "s")}


class SweepCli(Workload):
    name = "sweep_cli"
    request = "sweep command"
    unit_ops = rows = 6 * 3   # grid points x engines
    aliases = {"rows_per_s": ("ops_per_s", "1/s")}

    def setup_argv(self):
        return [sys.executable, "-m", "mmwlab.cli"] + SWEEP_SETUP_ARGS

    def prepare(self):
        self.work = HERE / "results" / "work"
        self.work.mkdir(parents=True, exist_ok=True)
        self.rss_mb = 0.0
        return replay(self.name, self.ref)

    def peak_rss_mb(self):
        """Largest single process of any sweep command's process group."""
        return self.rss_mb

    def argv(self, workers: int, out: Path, traced: Path | None = None):
        args = SWEEP_ARGS + ["--seed", str(seed_base(self.seed) % 1_000_000_000),
                             "--workers", str(workers), "--out", str(out)]
        if traced is None:
            return [sys.executable, "-m", "mmwlab.cli"] + args
        return [sys.executable, str(HERE / "probe.py"), "trace-cli",
                str(traced)] + args

    def command(self, workers: int, traced: Path | None = None):
        """One sweep command; returns (exit code, wall s, CSV bytes)."""
        out = self.work / f"sweep-{os.getpid()}.csv"
        out.unlink(missing_ok=True)
        code, wall, rss = run_child(self.argv(workers, out, traced),
                                    CLI_TIMEOUT_S)
        self.rss_mb = max(self.rss_mb, rss)
        data = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
        return code, wall, data

    def run_unit(self, i):
        code, wall, data = self.command(SWEEP_WORKERS)
        return [wall], [(code, data)]

    def check(self, outputs):
        failed, msgs = 0, []
        for code, data in outputs:
            bad = self._check_csv(code, data)
            failed += len(bad)
            msgs.extend(bad)
        return min(failed, self.rows * len(outputs)), msgs

    def _check_csv(self, code: int, data: bytes) -> list[str]:
        if code != 0:
            return [f"sweep exited {code}"] * self.rows
        lines = [ln for ln in data.decode().splitlines()
                 if not ln.startswith("#")]
        rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
        if len(rows) != self.rows:
            return [f"sweep wrote {len(rows)} rows, expected {self.rows}"] \
                * self.rows
        bad = []
        for row in rows:
            try:
                msg = self._check_row(row)
            except (KeyError, ValueError) as exc:
                msg = f"unreadable row {row}: {exc!r}"
            if msg:
                bad.append(msg)
        return bad

    def _check_row(self, row: dict) -> str | None:
        key = f"{float(row['value']):g}/{row['engine']}"
        want = self.ref["sweep"][key]
        if row["status"] != want["status"]:
            return f"{key}: status {row['status']} != {want['status']}"
        if row["engine"] == "analytic":
            for col in ("coverage", "rate_bps", "rate_gain"):
                got, exp = float(row[col]), want[col]
                if abs(got - exp) > ANALYTIC_RTOL * abs(exp):
                    return f"{key}: {col} {got} != {exp}"
        elif not (_z_ok(float(row["coverage"]), want["coverage"], SWEEP_DROPS)
                  and _z_ok(float(row["rate_bps"]), want["rate_bps"],
                            SWEEP_DROPS)):
            return (f"{key}: coverage {row['coverage']} or rate "
                    f"{row['rate_bps']} off the reference")
        return None


WORKLOADS = {w.name: w for w in (FullDefault, LosballGrid, AnalyticLog,
                                  AnalyticQuad, SweepCli)}
