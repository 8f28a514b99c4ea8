"""Byte-exact CLI outputs against checked-in golden files.

Each case runs one `mmwlab` command in process and compares its CSV (and
its per-drop trace, where the command writes one) with the file of the
same name under tests/golden/. A refactor that is meant to keep the
numbers must keep these bytes. To re-record after a change that is meant
to move them, run

    PYTHONPATH=src python tests/test_golden.py

which prints every CSV cell it changes, as `file:line:column old -> new`,
before it writes, and say in the change which bytes moved and why.
"""

import csv
import io
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import pytest

from mmwlab.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> argv; "{trace}" is replaced by the path of the trace file
CASES = {
    "analytic_default": ["analytic"],
    "analytic_gangnam_b05": ["analytic", "--city", "gangnam", "--beta", "0.5"],
    "optimal_beta_rate": ["optimal-beta", "--objective", "rate"],
    "optimal_beta_coverage": ["optimal-beta", "--objective", "coverage"],
    # Gangnam's knee (0.74) lies inside [0, 1]: the knee-segment branch
    "optimal_beta_coverage_gangnam": ["optimal-beta", "--objective",
                                      "coverage", "--city", "gangnam"],
    # alpha = 3 and 4 take the hypergeometric branch of the band integral
    "sweep_alpha_rate_gain": ["sweep", "--key", "alpha", "--start", "2",
                              "--stop", "4", "--steps", "3", "--engines",
                              "analytic", "--rate-gain"],
    # gamma_c = 0 and 1 take the one-class branches of the rate mix
    "sweep_gamma_c": ["sweep", "--key", "gamma_c", "--start", "0", "--stop",
                      "1", "--steps", "5", "--engines", "analytic",
                      "--rate-gain"],
    # sparse fields draw large windows: ~355 buildings and ~4,300 UEs a drop
    "sweep_sparse_full": ["sweep", "--key", "lambda_ell", "--start", "150",
                          "--stop", "400", "--steps", "2", "--engines",
                          "sim-full", "--drops", "4", "--seed", "7"],
    "simulate_full_max_rsrp": ["simulate", "--mode", "full", "--rule",
                               "max_rsrp", "--drops", "6", "--seed", "5",
                               "--beta", "0.6", "--trace", "{trace}"],
    "simulate_full_gangnam": ["simulate", "--city", "gangnam", "--mode",
                              "full", "--drops", "6", "--seed", "2",
                              "--beta", "0.5", "--trace", "{trace}"],
    "simulate_losball": ["simulate", "--mode", "losball", "--drops", "40",
                         "--seed", "3", "--beta", "0.6", "--trace",
                         "{trace}"],
    # the headline point: default scenario, building-aware rule, beta = 0.7
    "simulate_full_default_b07": ["simulate", "--mode", "full", "--drops",
                                  "12", "--seed", "9", "--beta", "0.7",
                                  "--trace", "{trace}"],
    # a beta sweep repeats the same rate-gain pair on every row
    "sweep_gangnam_beta_rate_gain": ["sweep", "--city", "gangnam", "--key",
                                     "beta", "--start", "0", "--stop", "1",
                                     "--steps", "3", "--engines", "analytic",
                                     "--rate-gain"],
}


def run_case(argv, out_dir: Path) -> dict[str, bytes]:
    """Run one command; returns {golden file suffix: bytes} of what it wrote."""
    out = out_dir / "out.csv"
    trace = out_dir / "trace.csv"
    args = [str(trace) if a == "{trace}" else a for a in argv]
    with redirect_stderr(io.StringIO()):
        code = main(args + ["--out", str(out)])
    assert code == EXIT_OK
    files = {".csv": out.read_bytes()}
    if trace.exists():
        files[".trace.csv"] = trace.read_bytes()
    return files


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_bytes(name, tmp_path):
    got = run_case(CASES[name], tmp_path)
    want = {suffix: (GOLDEN / f"{name}{suffix}").read_bytes()
            for suffix in (".csv", ".trace.csv")
            if (GOLDEN / f"{name}{suffix}").exists()}
    assert got.keys() == want.keys()
    for suffix, data in got.items():
        assert data == want[suffix], f"{name}{suffix} differs from golden"


def _moved_cells(file: str, old: bytes, new: bytes):
    """`file:line:column old -> new` for each CSV cell that differs; the
    column is named by the header, the first line not starting with '#'."""
    old_rows, new_rows = (list(csv.reader(io.StringIO(b.decode())))
                          for b in (old, new))
    header = next((r for r in new_rows if r and not r[0].startswith("#")), [])
    for i in range(max(len(old_rows), len(new_rows))):
        a = old_rows[i] if i < len(old_rows) else []
        b = new_rows[i] if i < len(new_rows) else []
        for j in range(max(len(a), len(b))):
            x = a[j] if j < len(a) else ""
            y = b[j] if j < len(b) else ""
            if x != y:
                column = header[j] if j < len(header) else str(j + 1)
                yield f"{file}:{i + 1}:{column} {x} -> {y}"


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            for suffix, data in run_case(argv, Path(tmp)).items():
                path = GOLDEN / f"{name}{suffix}"
                old = path.read_bytes() if path.exists() else b""
                for line in _moved_cells(path.name, old, data):
                    print(line)
                path.write_bytes(data)


if __name__ == "__main__":
    _record()
