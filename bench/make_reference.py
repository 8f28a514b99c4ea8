"""Record the reference values the benchmark checks outputs against.

    PYTHONPATH=src python3 bench/make_reference.py

Writes bench/reference.json. Deterministic values (bias solves, analytic
sweep rows, the digests of the exact-replay drop blocks) are recorded
exactly; Monte Carlo values are long-run means with their per-drop
standard deviation, from drop seeds that the benchmark's own seed
streams are unlikely to reuse. Run it only when a change is meant to
move the outputs, and say so.
"""

from __future__ import annotations

import json

import numpy as np

import mmwlab.cli
from mmwlab.simulate import SimMode, estimate

from workloads import (FULL_POINT, LOG_SET, OBJECTIVES, QUAD_SET, REPLAY,
                       REFERENCE_PATH, SWEEP_POINT, _solve, replay_digest)

FULL_DROPS = 1600
SWEEP_FULL_DROPS = 500
SWEEP_LOSBALL_DROPS = 4000
REF_SEED = 3_900_000_000
WORKERS = 2


def _moments(values) -> dict:
    v = np.asarray(values, dtype=float)
    return {"mean": float(v.mean()), "sd": float(v.std(ddof=1)), "n": len(v)}


def _sim_stats(params, mode, n, seed) -> dict:
    s = estimate(params, mode, n_drops=n, seed_base=seed, workers=WORKERS)
    return {"coverage": _moments([r.covered for r in s.records]),
            "rate_bps": _moments([r.rate_bps for r in s.records])}


def main() -> None:
    ref: dict = {"replay": {key: replay_digest(params, mode, n)
                            for blocks in REPLAY.values()
                            for key, params, mode, n in blocks}}
    ref["full_default"] = _sim_stats(FULL_POINT, SimMode.FULL_GEOMETRY,
                                     FULL_DROPS, REF_SEED)
    ref["analytic"] = {}
    for name, params in LOG_SET + QUAD_SET:
        for obj in OBJECTIVES:
            beta_star, value = _solve(params, obj)
            ref["analytic"][f"{name}/{obj}"] = {"beta_star": float(beta_star),
                                                "value": float(value)}
    ref["sweep"] = {}
    cols = mmwlab.cli.SWEEP_CSV_COLUMNS
    for i, value in enumerate(mmwlab.cli._sweep_grid(0.0, 1.0, 6)):
        job = (SWEEP_POINT, "beta", value, ("analytic",), 0, 0, False, True)
        row = dict(zip(cols, mmwlab.cli._sweep_point(job)[0]))
        ref["sweep"][f"{value:g}/analytic"] = {
            k: row[k] for k in ("status", "coverage", "rate_bps", "rate_gain")}
        params = SWEEP_POINT.with_(beta=value)
        for engine, mode, n in (("sim-losball", SimMode.LOS_BALL,
                                 SWEEP_LOSBALL_DROPS),
                                ("sim-full", SimMode.FULL_GEOMETRY,
                                 SWEEP_FULL_DROPS)):
            stats = _sim_stats(params, mode, n, REF_SEED + (i + 1) * 10_000)
            ref["sweep"][f"{value:g}/{engine}"] = {"status": "ok", **stats}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
