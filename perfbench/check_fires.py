"""Show that the benchmark fires on an injected regression.

    python3 perfbench/check_fires.py

Copies the checkout's ``src/``, ``perfbench/`` and ``BENCHMARK.json``
twice under ``.perfbench/``; in one copy ``BatchJournal.claim`` (the
serving layer's batch claim) sleeps ``DELAY_S`` before doing its
work.  Every workload then runs ``REPS`` times on each copy with
seed ``SEED``, alternating which copy goes first, and the medians are
compared.
The layer table predicts the delay moves ``throughput_per_s``
(capacity) on ``serve`` and nothing on ``train_step`` or ``reproduce``,
which never claim a batch.  The check passes when that metric worsens
by more than its bound on ``serve`` and no end-to-end metric of the
other workloads worsens by more than its bound (the other ``serve``
metrics are shown, not judged: the claim delay is on their path too).  Exit status 0 means
the benchmark fired where predicted and nowhere else.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

DELAY_PATCH = '''

# --- injected by perfbench/check_fires.py -------------------------------
_perfbench_claim = BatchJournal.claim


def _perfbench_slow_claim(self, worker):
    time.sleep({delay})
    return _perfbench_claim(self, worker)


BatchJournal.claim = _perfbench_slow_claim
'''
PREDICTED = ("serve", "throughput_per_s")
SEED = 101
REPS = 3
#: At saturation a slower claim is partly hidden by fuller batches, so
#: the delay must be comparable to a worker's batch cycle (~80 ms).
DELAY_S = 0.040


def make_copy(dest, delay_s=None):
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    shutil.copytree(os.path.join(REPO, "src"), os.path.join(dest, "src"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, os.path.join(dest, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), dest)
    if delay_s is not None:
        with open(os.path.join(dest, "src", "repro", "serving", "server.py"), "a") as fh:
            fh.write(DELAY_PATCH.format(delay=delay_s))


def measure(tree, workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=200,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} in {tree} exited {out.returncode}: {out.stderr[-500:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def worsening(metric, base, mutant):
    """Share by which ``mutant`` is worse than ``base`` (negative: better)."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    return sign * (mutant - base) / base


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    root = os.path.join(REPO, ".perfbench", f"fires-{os.getpid()}")
    base, mutant = os.path.join(root, "base"), os.path.join(root, "mutant")
    failures = []
    try:
        make_copy(base)
        make_copy(mutant, delay_s=DELAY_S)
        for workload in [w["name"] for w in bench["workloads"]]:
            runs = {base: [], mutant: []}
            for rep in range(REPS):
                for tree in (base, mutant) if rep % 2 == 0 else (mutant, base):
                    runs[tree].append(measure(tree, workload, SEED, seconds))
            before = {name: statistics.median(r[name] for r in runs[base]) for name in metrics}
            after = {name: statistics.median(r[name] for r in runs[mutant]) for name in metrics}
            for name, metric in metrics.items():
                share = worsening(metric, before[name], after[name])
                fired = share > metric["bound"]
                if (workload, name) == PREDICTED:
                    expect, judged = "predicted to fire", fired
                elif workload == PREDICTED[0]:
                    expect, judged = "may move with it", True
                else:
                    expect, judged = "predicted still", not fired
                if not judged:
                    failures.append(f"{workload}/{name}")
                print(f"{workload:10s} {name:16s} {before[name]:11.4f} -> {after[name]:11.4f} "
                      f"worse by {share:+7.1%} (bound {metric['bound']:.0%}, {expect}) "
                      f"{'ok' if judged else 'UNEXPECTED'}")
    finally:
        shutil.rmtree(root, ignore_errors=True)
        parent = os.path.dirname(root)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)
    if failures:
        print("benchmark did not fire as predicted: " + ", ".join(failures))
        return 1
    print(f"benchmark fired on {PREDICTED[0]}/{PREDICTED[1]} only")
    return 0


if __name__ == "__main__":
    sys.exit(main())
