"""``reproduce``: the paper's pipeline at smoke scale, as a batch job.

One pipeline is three phases, each on a fresh (cold) cache directory:

* ``datagen``: stream one multi-shard ``cifar10_like`` dataset (8 train
  shards) into the dataset cache with 2 writer processes;
* ``sweep``: the queue scheduler with 2 spawned workers runs
  ``{sgd, first_order, grad_l1, hero} x 3 seeds`` of ``ResNet20-fast``
  at the smoke profile;
* ``analysis``: for the first seed's SGD and HERO models, the top
  Hessian eigenvalue (``power_iteration`` over ``HVPOperator``, fixed
  iterations) and a PTQ ``precision_sweep`` at 8/6/4 bits.

Pipelines repeat until the run's seconds are spent; figures are
medians over pipelines.  ``data``, the ``experiments`` scheduler,
``io`` on its write-heavy path, ``hessian`` and ``quant`` do the work;
``tensor`` runs inside many short training runs.
"""

import hashlib
import math
import os
import shutil
import time

import numpy as np

from spans import duration, median, named, quantile

SHARD = 8192
TRAIN_SHARDS = 8
WRITERS = SWEEP_WORKERS = 2
METHODS = ("sgd", "first_order", "grad_l1", "hero")
SEEDS_PER_METHOD = 3
HVP_ITERS = 8
HVP_BATCH = 64
PTQ_BITS = (8, 6, 4)
TAIL_Q = 0.75
#: Pipelines run at least this many times, so medians are medians.
MIN_PIPELINES = 3


def dataset_spec(seed):
    from repro.data import resolve_spec

    return resolve_spec("cifar10_like", seed=seed, train_size=TRAIN_SHARDS * SHARD,
                        test_size=SHARD)


def grid(seed):
    from repro.experiments.config import make_grid

    seeds = tuple(seed * SEEDS_PER_METHOD + i for i in range(SEEDS_PER_METHOD))
    return make_grid(["ResNet20-fast"], ["cifar10_like"], list(METHODS), seeds=seeds,
                     profile="smoke", dtype="float32")


def datagen(spec, cache_dir, tracer):
    from repro.data import warm_dataset

    start = time.perf_counter()
    with tracer.span("data.warm_dataset"):
        key, hit = warm_dataset(spec, cache_dir, workers=WRITERS, shard_size=SHARD)
    seconds = time.perf_counter() - start
    if hit:
        raise RuntimeError("datagen phase found a warm cache")
    path = os.path.join(cache_dir, key)
    digest = hashlib.sha256()
    for name in ("train_inputs.npy", "train_targets.npy", "test_inputs.npy", "test_targets.npy"):
        digest.update(np.load(os.path.join(path, name), mmap_mode="r").tobytes())
    return {"seconds": seconds, "key": key, "content": digest.hexdigest()}


def sweep(configs, cache_dir, tracer):
    from repro.experiments.scheduler import TaskQueue
    from repro.experiments.sweep import run_sweep

    start_wall = time.time()
    with tracer.span("experiments.run_sweep"):
        report = run_sweep(configs, workers=SWEEP_WORKERS, cache_dir=cache_dir,
                           scheduler="queue")
    end_wall = time.time()
    entries = list(TaskQueue(report.queue).snapshot().values())
    run_s = [e["finished_at"] - e["started_at"] for e in entries]
    return {
        "report": report,
        "wall_s": report.wall_seconds,
        "run_s": run_s,
        "spawn_s": min(e["started_at"] for e in entries) - start_wall,
        "claim_wait_s": [e["started_at"] - e["enqueued_at"] for e in entries],
        "tail_lag_s": end_wall - max(e["finished_at"] for e in entries),
        "attempts": sum(e["attempts"] for e in entries) / len(entries),
    }


def analysis(configs, cache_dir, tracer):
    from repro import nn
    from repro.experiments.runner import accuracy_eval_fn, load_experiment_data, run_training
    from repro.hessian import HVPOperator, power_iteration
    from repro.quant import precision_sweep

    start = time.perf_counter()
    first_seed = min(config.seed for config in configs)
    out = {}
    for config in configs:
        if config.seed != first_seed or config.method not in ("sgd", "hero"):
            continue
        result = run_training(config, cache_dir=cache_dir)
        if not result.from_cache:
            raise RuntimeError(f"analysis retrained {config.method}; the sweep left no model")
        train, test, _spec = load_experiment_data(config, dataset_cache=os.path.join(cache_dir, "datasets"))
        x, y = train[np.arange(HVP_BATCH)]
        model = result.model
        operator = HVPOperator(model, nn.CrossEntropyLoss(), x, y)
        shapes = [p.data.shape for p in operator.params]
        top, _vec, _history = power_iteration(operator.matvec, shapes, iters=HVP_ITERS, tol=0.0,
                                              seed=config.seed)
        evaluate = accuracy_eval_fn(test)

        def traced_eval(model):
            with tracer.span("quant.ptq_eval"):
                return evaluate(model)

        ptq = precision_sweep(model, traced_eval, bits_list=PTQ_BITS)
        out[config.method] = {"top_eigenvalue": float(top), "ptq_accuracy": ptq["accuracy"],
                              "full_precision": ptq["full_precision"]}
    out["seconds"] = time.perf_counter() - start
    return out


def serial_parity(configs, records, seed, workdir):
    """Re-run one sampled config inline on a fresh cache: same test_acc?"""
    from repro.experiments.runner import execute_record

    index = int(np.random.default_rng(seed).integers(len(configs)))
    cache = os.path.join(workdir, "parity-cache")
    inline = execute_record(configs[index], cache_dir=cache)
    shutil.rmtree(cache, ignore_errors=True)
    queued = {record.key: record for record in records}[configs[index].cache_key()]
    return inline.status == "ok" and inline.test_acc == queued.test_acc, configs[index]


def rss_probe(spec, workdir):
    """Streamed RSS growth of one writer, in shards (traced runs only).

    One inline (single-writer) streamed write on a cold cache with the
    process's RSS high-water mark reset first, as ``docs/memory-model.md``
    describes: the growth should be about one shard.
    """
    from repro.data import stream_dataset
    from repro.data.streaming import shard_nbytes

    def status_kb(field):
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
        raise KeyError(field)

    cache = os.path.join(workdir, "rss-probe")
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")
    before = status_kb("VmRSS")
    stream_dataset(spec, cache, workers=1, shard_size=SHARD)
    growth = (status_kb("VmHWM") - before) * 1024
    shutil.rmtree(cache, ignore_errors=True)
    return growth / shard_nbytes(spec, SHARD)


def install(tracer):
    from repro.hessian import HVPOperator
    from repro.io import JsonJournal

    tracer.wrap(HVPOperator, "matvec", "hessian.hvp", counter="hessian.hvp_calls")
    tracer.wrap(JsonJournal, "update", "io.journal_update")
    tracer.wrap(JsonJournal, "read", None, counter="io.journal_reads")


def run(args, tracer):
    import repro.experiments.sweep  # noqa: F401 - imports belong to set-up

    spec = dataset_spec(args.seed)
    configs = grid(args.seed)
    install(tracer)
    child_spans = os.path.join(args.workdir, "child-spans")
    if tracer.enabled:
        # The sweep workers and dataset writers make most journal calls;
        # the boot module traces them in those processes.
        os.makedirs(child_spans)
        os.environ["PERFBENCH_TRACE_DIR"] = child_spans
    setup_s = time.time() - args.t0
    if args.setup_only:
        return {"metrics": {"setup_s": setup_s}}

    pipelines = []
    stop = time.perf_counter() + args.seconds
    while len(pipelines) < MIN_PIPELINES or time.perf_counter() < stop:
        cache = os.path.join(args.workdir, f"cache-{len(pipelines)}")
        start = time.perf_counter()
        data = datagen(spec, os.path.join(cache, "datasets"), tracer)
        swept = sweep(configs, cache, tracer)
        analysed = analysis(configs, cache, tracer)
        pipelines.append({"wall_s": time.perf_counter() - start, "data": data, "sweep": swept,
                          "analysis": analysed})
        shutil.rmtree(cache, ignore_errors=True)

    records = [r for p in pipelines for r in p["sweep"]["report"].records]
    failed_runs = sum(1 for r in records if r.status != "ok")
    failed_analyses = sum(
        1 for p in pipelines
        if not all(math.isfinite(p["analysis"][m]["top_eigenvalue"])
                   and all(math.isfinite(a) for a in p["analysis"][m]["ptq_accuracy"])
                   for m in ("sgd", "hero")))
    failed = failed_runs + failed_analyses
    parity, sampled = serial_parity(configs, pipelines[0]["sweep"]["report"].records, args.seed,
                                    args.workdir)
    run_ms = [s * 1e3 for p in pipelines for s in p["sweep"]["run_s"]]
    samples = spec.train_size + spec.test_size
    datagen_rate = median(samples / p["data"]["seconds"] for p in pipelines)
    sweep_wall = median(p["sweep"]["wall_s"] for p in pipelines)
    analysis_s = median(p["analysis"]["seconds"] for p in pipelines)
    keys = {p["data"]["key"] for p in pipelines}
    contents = {p["data"]["content"] for p in pipelines}
    first = pipelines[0]
    result = {
        "metrics": {
            "setup_s": setup_s,
            "throughput_per_s": 1.0 / median(p["wall_s"] for p in pipelines),
            "p50_ms": median(run_ms),
            "tail_ms": quantile(run_ms, TAIL_Q),
        },
        # Each pipeline attempts one dataset, its sweep runs and one analysis.
        "attempted": len(records) + 2 * len(pipelines),
        "failed": failed,
        "checks": {
            "all_runs_ok": failed_runs == 0,
            "analysis_finite": failed_analyses == 0,
            "serial_equals_queue": parity,
            "dataset_key_stable": len(keys) == 1 and len(contents) == 1,
        },
        "digests": {"dataset_key": first["data"]["key"], "dataset_content": first["data"]["content"]},
        "detail": [
            f"datagen_samples_per_s = {datagen_rate:.1f} samples/s "
            f"({TRAIN_SHARDS} train shards of {SHARD}, {WRITERS} writers)",
            f"sweep_wall_s = {sweep_wall:.4f} s ({len(configs)} runs, {SWEEP_WORKERS} workers)",
            f"analysis_s = {analysis_s:.4f} s",
            f"pipelines = {len(pipelines)}, median wall {median(p['wall_s'] for p in pipelines):.4f} s; "
            f"run p{TAIL_Q * 100:.0f} over {len(run_ms)} sweep runs",
            f"dataset key {first['data']['key']} content {first['data']['content'][:16]}",
            f"serial == queue on {sampled.method}/seed {sampled.seed}: {parity}",
            "top eigenvalue sgd/hero: "
            f"{first['analysis']['sgd']['top_eigenvalue']:.4g}/"
            f"{first['analysis']['hero']['top_eigenvalue']:.4g}",
        ],
        "environment": {
            "processes": 1 + max(WRITERS, SWEEP_WORKERS),
            "datagen_writers": WRITERS,
            "sweep_workers": SWEEP_WORKERS,
            "grid": f"ResNet20-fast x {len(METHODS)} methods x {SEEDS_PER_METHOD} seeds, smoke",
            "pipelines": len(pipelines),
            "samples_per_dataset": samples,
        },
    }
    if tracer.enabled:
        del os.environ["PERFBENCH_TRACE_DIR"]
        dumps = sorted(os.listdir(child_spans))
        for name in dumps:
            tracer.merge(os.path.join(child_spans, name))
        result["checks"]["child_spans_merged"] = bool(dumps)
        result["detail"].append(f"io.* figures merge this process's spans with those of "
                                f"{len(dumps)} spawned workers and writers")
        result["layers"] = layer_metrics(tracer, pipelines, spec, args.workdir)
    return result


def layer_metrics(tracer, pipelines, spec, workdir):
    from repro.data.pipeline import plan_shards

    tracer.unwrap_all()
    spans = tracer.spans
    sweeps = [p["sweep"] for p in pipelines]
    walls = [s["wall_s"] for s in sweeps]
    waits = [w for s in sweeps for w in s["claim_wait_s"]]
    served_journal_ops = sum(len(s["run_s"]) for s in sweeps)
    return {
        "hessian.hvp_ms": median(duration(s) * 1e3 for s in named(spans, "hessian.hvp")),
        "hessian.hvp_calls": tracer.counts.get("hessian.hvp_calls", 0) / len(pipelines),
        "quant.ptq_eval_ms": median(duration(s) * 1e3 for s in named(spans, "quant.ptq_eval")),
        "data.generate_s": median(p["data"]["seconds"] for p in pipelines),
        "data.shards_written": len(plan_shards(spec.train_size, SHARD))
        + len(plan_shards(spec.test_size, SHARD)),
        "data.samples_per_s": median((spec.train_size + spec.test_size) / p["data"]["seconds"]
                                     for p in pipelines),
        "data.peak_rss_shards": rss_probe(spec, workdir),
        "experiments.sweep_wall_s": median(walls),
        "experiments.spawn_s": median(s["spawn_s"] for s in sweeps),
        "experiments.claim_wait_s": median(waits),
        "experiments.claim_wait_max_s": max(waits),
        "experiments.run_s": median(r for s in sweeps for r in s["run_s"]),
        "experiments.tail_lag_s": median(s["tail_lag_s"] for s in sweeps),
        "experiments.busy_frac": median(sum(s["run_s"]) / (SWEEP_WORKERS * s["wall_s"])
                                        for s in sweeps),
        "experiments.attempts_per_task": median(s["attempts"] for s in sweeps),
        "io.journal_update_ms": median(duration(s) * 1e3 for s in named(spans, "io.journal_update")),
        "io.journal_reads_per_request": tracer.counts.get("io.journal_reads", 0) / served_journal_ops,
    }
