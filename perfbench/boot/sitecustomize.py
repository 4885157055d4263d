"""Lifetime guard for every Python process the benchmark starts.

``perfbench/run.py`` puts this directory first on ``PYTHONPATH`` and
sets ``PERFBENCH_DEADLINE`` (a wall-clock time) in the environment of
its workload process.  Python imports ``sitecustomize`` at start-up, so
the workload process and every process it starts in turn - the
serving host, the sweep's spawned workers, the dataset writers, the
multiprocessing resource tracker - run the guard below.  A guarded
process exits on its own when the deadline passes or when the process
that started it goes away, so no process can outlive a benchmark run,
even one whose harness was killed with SIGKILL.

A traced workload whose layer calls run in processes it spawns (the
``reproduce`` sweep workers and dataset writers) sets
``PERFBENCH_TRACE_DIR`` for them.  Such a process wraps the ``repro.io``
journal calls at start-up and writes its spans to
``<PERFBENCH_TRACE_DIR>/<pid>.json`` when it exits, on SIGTERM too (a
``multiprocessing`` pool stops its workers with SIGTERM); the workload
merges the files.
"""

import os


def _guard(deadline, parent):
    import threading
    import time

    def watch():
        while True:
            if time.time() >= deadline or os.getppid() != parent:
                os._exit(124)
            time.sleep(0.2)

    threading.Thread(target=watch, name="perfbench-guard", daemon=True).start()


def _trace_children(directory):
    import atexit
    import signal
    import sys

    sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from repro.io import JsonJournal
    from spans import Tracer

    tracer = Tracer(enabled=True)
    tracer.wrap(JsonJournal, "update", "io.journal_update")
    tracer.wrap(JsonJournal, "read", None, counter="io.journal_reads")

    def dump():
        if tracer.spans or tracer.counts:
            tracer.dump(os.path.join(directory, f"{os.getpid()}.json"))

    def terminated(signum, _frame):
        dump()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    atexit.register(dump)
    signal.signal(signal.SIGTERM, terminated)


if os.environ.get("PERFBENCH_TRACE_DIR"):
    _trace_children(os.environ["PERFBENCH_TRACE_DIR"])
if os.environ.get("PERFBENCH_DEADLINE"):
    _guard(float(os.environ["PERFBENCH_DEADLINE"]), os.getppid())
