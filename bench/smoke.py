"""Reduced-size smoke run of the benchmark harness.

    python3 bench/smoke.py

Runs `bench/run.py` once untraced and once traced on every workload of
BENCHMARK.json, with seed 1 and a 1 s run length, and checks that every
metric BENCHMARK.json names comes out with its unit and that no
operation failed. Exits 1 on the first run that breaks that.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 180
SMOKE_SECONDS = 1
SMOKE_SEED = 1


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(SMOKE_SEED),
                             "--seconds", str(SMOKE_SECONDS),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=TIMEOUT_S, check=False)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"failed {result['failed']} of {result['attempted']}:\n"
                        + proc.stdout)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            problems.append(f"missing metric {m['name']}")
        elif entry.get("unit") != m["unit"] or not isinstance(
                entry.get("value"), (int, float)):
            problems.append(f"bad metric entry {m['name']}: {entry}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            status = "ok" if not problems else "FAIL"
            print(f"{workload} trace={trace}: {status}", flush=True)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
