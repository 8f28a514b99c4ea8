"""Child-process entry points of the benchmark.

    python3 bench/probe.py setup WORKLOAD
        Import mmwlab and make the workload's first call, then exit. The
        parent times this from a fresh interpreter for `setup_s`.

    python3 bench/probe.py trace-cli TRACE_JSON ARGS...
        Run `mmwlab ARGS...` with the span tracer installed and write the
        per-function totals to TRACE_JSON. Exits with the CLI's code.

Both expect `src` on PYTHONPATH, as `run.py` sets it.
"""

import json
import sys


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "setup":
        from workloads import warm_up
        warm_up(argv[1])
        return 0
    if len(argv) >= 2 and argv[0] == "trace-cli":
        import mmwlab.cli
        from tracer import Tracer
        with Tracer() as tracer:
            code = tracer.span("cli.main", mmwlab.cli.main, argv[2:])
        with open(argv[1], "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
        return code
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
