"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {train_step,serve,reproduce} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the program from
``src/``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics
plus ``trace_overhead.*`` (traced minus untraced value of each
end-to-end metric).  Human-readable lines (the metrics under the
paper-facing names, the environment and the correctness checks) go
before it.

Process model.  This harness starts the workload (``perfbench/
workload.py``) as the leader of a new session and never imports the
program itself.  The workload and everything it starts carry a
deadline and exit when their parent goes away (``perfbench/boot``).
On timeout, exception, SIGINT or SIGTERM the harness sends SIGTERM to
the session's process group, then SIGKILL.  Every run ends by checking
that no process of the session is alive; a run that leaks one fails.

End-to-end metrics are reported by every workload, each for the
workload's own unit of work (``train_step`` times are scaled to a
reference machine speed, see ``perfbench/calibrate.py``):

================  ==================  ===============  ==================
metric            train_step          serve            reproduce
================  ==================  ===============  ==================
throughput_per_s  training steps/s,   capacity (req/s  pipelines/s
                  SGD+HERO pairs      at saturation)   (datagen + sweep
                                                       + analysis)
p50_ms            HERO step           steady request,  sweep run
                                      from due time    (started->finished)
tail_ms           HERO step, p90      steady, p90      sweep run, p75
================  ==================  ===============  ==================

``setup_s`` (median of five to seven cold set-ups, each from process
start to the first timed operation) and ``peak_rss_mb`` (sampled
high-water RSS summed over the session) mean the same on all three.
The failure rate is ``failed / attempted`` in the result line.  The
paper-facing figures (``sgd_steps_per_s``, ``hero_sgd_cost_ratio``,
``p99_ms``, ``capacity_rps``, ``sweep_wall_s``, ...) are printed by name
above it.
"""

import argparse
import json
import os
import signal
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("train_step", "serve", "reproduce")

#: A run must end within this many seconds (the contract allows 180).
RUN_BUDGET_S = 170.0
#: Cold set-ups measured per untraced run (the last one precedes the
#: measurement); ``setup_s`` is their median.  Extra set-up-only runs
#: continue, up to SETUP_SAMPLES_MAX, while they have taken less than
#: SETUP_BUDGET_S in all, so cheap (and so noisier) set-ups get more.
SETUP_SAMPLES, SETUP_SAMPLES_MAX, SETUP_BUDGET_S = 5, 7, 8.0
#: Grace between SIGTERM and SIGKILL at teardown.
TERM_GRACE_S = 5.0
#: Time a finished workload's children get to exit on their own (the
#: multiprocessing resource tracker exits just after its parent).
SETTLE_S = 2.0
RSS_POLL_S = 0.1

OVERHEAD = "trace_overhead."


def declared_metrics():
    """``(end_to_end, per_layer)`` name -> unit maps from ``BENCHMARK.json``."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


class Interrupted(Exception):
    """SIGTERM or SIGINT arrived; the run tears down and fails."""


class LeakedProcess(RuntimeError):
    """A process of the workload's session survived teardown."""


# ----------------------------------------------------------------------
# /proc helpers (Linux)
# ----------------------------------------------------------------------
def _stat_fields(pid):
    """``(state, ppid, pgrp, session, rss_pages)`` of a process, or None."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            raw = fh.read()
    except OSError:
        return None
    fields = raw[raw.rindex(")") + 2:].split()
    return fields[0], int(fields[1]), int(fields[2]), int(fields[3]), int(fields[21])


def session_members(sid):
    """Live (non-zombie) pids whose session is ``sid`` or that descend from it."""
    table = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(int(name))
            if fields is not None:
                table[int(name)] = fields
    members = {pid for pid, f in table.items() if f[3] == sid}
    changed = True
    while changed:  # descendants that left the session by setsid()
        changed = False
        for pid, f in table.items():
            if pid not in members and f[1] in members:
                members.add(pid)
                changed = True
    return {pid: table[pid] for pid in members if table[pid][0] != "Z"}


PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 1e6


class RssSampler:
    """High-water mark of the summed RSS of this process and the session."""

    def __init__(self, sid):
        self.sid = sid
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        own = os.getpid()
        while not self._stop.is_set():
            pages = sum(f[4] for f in session_members(self.sid).values())
            mine = _stat_fields(own)
            pages += mine[4] if mine else 0
            self.peak_mb = max(self.peak_mb, pages * PAGE_MB)
            self._stop.wait(RSS_POLL_S)

    def stop(self):
        self._stop.set()
        self._thread.join()
        return self.peak_mb


# ----------------------------------------------------------------------
# One workload process
# ----------------------------------------------------------------------
#: Environment every workload process runs under: one BLAS thread (no
#: workload may put more than 2 threads of load on the 2-core target),
#: float32 engine, fixed hashing.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_DTYPE": "float32",
    "PYTHONHASHSEED": "0",
}


def child_env(deadline, workdir):
    env = dict(os.environ)
    env.update(
        PINNED_ENV,
        PYTHONPATH=os.pathsep.join([os.path.join(HERE, "boot"), os.path.join(REPO, "src")]),
        PERFBENCH_DEADLINE=repr(deadline),
        PYTHONDONTWRITEBYTECODE="1",
        REPRO_CACHE_DIR=os.path.join(workdir, "cache"),
    )
    for name in ("REPRO_WORKERS", "REPRO_DATASET_CACHE"):
        env.pop(name, None)
    return env


def run_workload(args, workdir, *, trace, setup_only, deadline):
    """Run ``workload.py`` in its own session; returns its result dict."""
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, "result.json")
    cmd = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(int(trace)),
        "--workdir", workdir,
        "--out", out,
        "--t0", repr(time.time()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(
        cmd,
        cwd=REPO,
        env=child_env(deadline, workdir),
        stdout=sys.stderr.fileno(),
        start_new_session=True,
    )
    sampler = None if setup_only else RssSampler(proc.pid)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        raise TimeoutError(f"{args.workload} did not finish before its deadline") from None
    finally:
        peak = sampler.stop() if sampler else None
        teardown(proc)
    if code != 0:
        raise RuntimeError(f"{args.workload} workload exited with code {code}")
    with open(out) as fh:
        result = json.load(fh)
    if peak is not None:
        result["metrics"]["peak_rss_mb"] = peak
    return result


def teardown(proc):
    """Stop the session led by ``proc``; raise if a process outlived it.

    A workload still running (timeout, error, signal) gets SIGTERM on
    its whole process group, then SIGKILL.  A workload that exited on
    its own must leave nothing behind: any session member still alive
    after a short settling time is killed and reported as a leak.
    """
    sid = proc.pid
    if proc.poll() is None:
        _signal_group(sid, signal.SIGTERM)
        try:
            proc.wait(timeout=TERM_GRACE_S)
        except subprocess.TimeoutExpired:
            _signal_group(sid, signal.SIGKILL)
            proc.wait()
    leaked = _wait_until_empty(sid, SETTLE_S)
    if not leaked:
        return
    for sig in (signal.SIGTERM, signal.SIGKILL):
        _signal_group(sid, sig)
        for pid in _wait_until_empty(sid, 0.0):
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        if not _wait_until_empty(sid, TERM_GRACE_S):
            break
    raise LeakedProcess(f"processes outlived the workload: {sorted(leaked)}")


def _wait_until_empty(sid, timeout):
    """Members of session ``sid`` still alive after up to ``timeout`` seconds."""
    limit = time.monotonic() + timeout
    while True:
        members = session_members(sid)
        if not members or time.monotonic() >= limit:
            return members
        time.sleep(0.05)


def _signal_group(pgid, sig):
    try:
        os.killpg(pgid, sig)
    except (ProcessLookupError, PermissionError):
        pass


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def environment(args):
    import platform

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "pinned_env": PINNED_ENV,
    }


def numpy_version():
    """numpy's version, read from its metadata (the harness never imports it)."""
    from importlib import metadata

    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def print_report(env, result):
    print("environment: " + json.dumps(dict(env, **result.get("environment", {})), sort_keys=True))
    for line in result.get("detail", []):
        print(line)
    for name, value in result.get("digests", {}).items():
        print(f"digest {name}: {value}")
    for name, ok in result["checks"].items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")


def remove_stale_workdirs():
    """Delete work dirs left by runs that were killed (their pid is gone)."""
    root = os.path.join(REPO, ".perfbench")
    for name in os.listdir(root) if os.path.isdir(root) else ():
        pid = name.rsplit("-", 1)[-1]
        if pid.isdigit() and not os.path.exists(f"/proc/{pid}"):
            shutil.rmtree(os.path.join(root, name), ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(REPO, "src", "repro", "__init__.py")):
        print(f"perfbench: no program under {REPO}/src; nothing to measure", file=sys.stderr)
        return 2

    deadline = time.time() + RUN_BUDGET_S
    e2e_units, layer_units = declared_metrics()

    def interrupt(signum, _frame):
        raise Interrupted(signal.Signals(signum).name)

    signal.signal(signal.SIGTERM, interrupt)
    signal.signal(signal.SIGINT, interrupt)

    remove_stale_workdirs()
    workdir = os.path.join(REPO, ".perfbench", f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            base = run_workload(args, os.path.join(workdir, "plain"), trace=False,
                                setup_only=False, deadline=deadline)
            traced = run_workload(args, os.path.join(workdir, "traced"), trace=True,
                                  setup_only=False, deadline=deadline)
            unknown = set(traced["layers"]) - set(layer_units)
            if unknown:
                raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
            # A layer the workload never calls reads 0 (its prediction).
            metrics = {name: traced["layers"].get(name, 0.0) for name in layer_units}
            for name in e2e_units:
                metrics[OVERHEAD + name] = traced["metrics"][name] - base["metrics"][name]
            result = traced
            units = layer_units
            checks = dict(traced["checks"])
            for name, value in traced["digests"].items():
                checks[f"{name}_traced_equals_untraced"] = value == base["digests"].get(name)
        else:
            runs = []
            begun = time.monotonic()
            while len(runs) < SETUP_SAMPLES - 1 or (
                    len(runs) < SETUP_SAMPLES_MAX - 1
                    and time.monotonic() - begun < SETUP_BUDGET_S):
                runs.append(run_workload(
                    args, os.path.join(workdir, f"setup{len(runs)}"), trace=False,
                    setup_only=True, deadline=deadline))
            result = run_workload(args, os.path.join(workdir, "plain"), trace=False,
                                  setup_only=False, deadline=deadline)
            runs.append(result)
            setups = [run["metrics"]["setup_s"] for run in runs]
            metrics = {name: result["metrics"][name] for name in e2e_units}
            metrics["setup_s"] = statistics.median(setups)
            units = e2e_units
            checks = dict(result["checks"])
            # The runs that report a digest (``train_step``'s set-up-only
            # runs do) worked on the same seed, so their digests must agree.
            for name, value in result["digests"].items():
                seen = [run["digests"][name] for run in runs if name in run.get("digests", {})]
                if len(seen) > 1:
                    checks[f"{name}_same_across_runs"] = all(v == value for v in seen)
                    result.setdefault("environment", {})[f"{name}_runs"] = len(seen)
            result.setdefault("environment", {})["setup_s_samples"] = setups
    except Interrupted as exc:
        print(f"perfbench: interrupted by {exc}; workload stopped", file=sys.stderr)
        return 130
    except (TimeoutError, RuntimeError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    result["checks"] = checks
    print_report(environment(args), result)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    attempted, failed = int(result["attempted"]), int(result["failed"])
    print(f"error_rate = {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    correct = all(checks.values()) and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
