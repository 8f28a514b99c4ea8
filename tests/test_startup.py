"""Start-up cost: scipy loads only where the closed forms run.

scipy is most of the time a fresh `import mmwlab` would take, and neither
drop engine uses it, so `mmwlab.analytic` imports `scipy.special` on
first use, and never `scipy.integrate`. Each check runs in a fresh
interpreter, because this one has long since imported scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PRELUDE = """
import sys
import mmwlab, mmwlab.cli
from mmwlab import ScenarioParams, SimMode, realize

SCIPY = ("scipy.integrate", "scipy.special")
OUT = sys.argv[1]

def loaded(names=SCIPY):
    return [m for m in names if m in sys.modules]

def cli(*argv):
    assert mmwlab.cli.main([*argv, "--out", OUT]) == 0, argv

def sweep(engines):
    cli("sweep", "--key", "beta", "--start", "0.2", "--stop", "0.8",
        "--steps", "2", "--engines", engines, "--drops", "2",
        "--workers", "2")
"""

DROPS_AND_COMMANDS = PRELUDE + """
assert loaded(SCIPY + ("concurrent.futures.process",)) == [], "import"
realize(ScenarioParams(beta=0.7), SimMode.FULL_GEOMETRY, 0)
realize(ScenarioParams(beta=0.7), SimMode.LOS_BALL, 0)
assert loaded() == [], "realize"
cli("presets")
assert loaded() == [], "presets"
cli("simulate", "--mode", "losball", "--drops", "4")
assert loaded() == [], "simulate"
sweep("sim-losball")
assert "concurrent.futures.process" in sys.modules, "no pool was built"
assert loaded() == [], "sweep"

import mmwlab.analytic
mmwlab.analytic.optimal_bias_rate(ScenarioParams())
mmwlab.analytic.optimal_bias_coverage(ScenarioParams(alpha=3.0))
assert loaded() == ["scipy.special"], "closed form"
# the benchmark's span tracer still finds the name it reads
assert mmwlab.analytic.integrate is sys.modules["scipy.integrate"]
"""

ANALYTIC_SWEEP = PRELUDE + """
sweep("analytic")
assert "concurrent.futures.process" in sys.modules, "no pool was built"
assert loaded() == ["scipy.special"], "parent"
"""


def run_fresh(script: str, out: Path) -> None:
    env = {k: v for k, v in os.environ.items() if k != "MMWLAB_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_drops_and_drop_commands_never_load_scipy(tmp_path):
    run_fresh(DROPS_AND_COMMANDS, tmp_path / "out.csv")


def test_parallel_analytic_sweep_loads_scipy_in_the_parent(tmp_path):
    run_fresh(ANALYTIC_SWEEP, tmp_path / "out.csv")
