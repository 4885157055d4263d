"""Workload process: set up, measure, check, write one result file.

Started by ``perfbench/run.py`` (never run by hand): it runs as the
leader of its own session with the program's ``src/`` and the
lifetime guard of ``perfbench/boot`` on ``PYTHONPATH``.  Everything
below the ``__main__`` guard, because spawned children re-import this
file as ``__mp_main__``.
"""

import argparse
import importlib
import json
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from spans import Tracer

    workload = importlib.import_module(f"workloads.{args.workload}")
    result = workload.run(args, Tracer(enabled=bool(args.trace)))
    result.setdefault("environment", {})["pid_start_to_end_s"] = time.time() - args.t0
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
