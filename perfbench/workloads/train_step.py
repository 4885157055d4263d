"""``train_step``: closed loop of SGD and HERO training steps, one process.

Settings are ``make_config("ResNet20", "cifar10_like", ...)`` at the
fast profile (resnet20 at width 0.5, h=0.005, gamma=0.05), batch 64,
float32.  Two identically seeded models train side by side, one per
method; after warm-up the steps run in pairs, alternating which method
goes first, so the per-pair HERO/SGD ratio cancels machine speed.  The
reported step times are scaled to a reference machine speed by a
calibration kernel timed after each pair (``perfbench/calibrate.py``).

Only ``tensor``, ``nn``, ``core`` and ``optim`` do work here.
"""

import hashlib
import math
import time
import tracemalloc

import numpy as np

import calibrate
from spans import children_of, duration, median, named, quantile, self_time

TRAIN_SAMPLES = 512
BATCH = 64
#: Warm-up pairs, counted in ``setup_s``.  Only the first pair of a
#: fresh process runs slow (~1.5x on a 2-core VM).  The count is fixed
#: because pair times jitter by ~10%, so a stop-when-stable rule ends
#: after a varying number of pairs and makes set-up time spread.
#: Whether the last WARM_WINDOW pairs lay within WARM_TOLERANCE of
#: their median is printed with the results.
WARM_PAIRS, WARM_WINDOW, WARM_TOLERANCE = 6, 3, 0.10
#: ``tail_ms`` is this quantile of the HERO step times (a 25 s run
#: holds ~80 HERO steps at ~250 ms).
TAIL_Q = 0.90
#: HERO steps profiled under tracemalloc at the end of a traced run.
ALLOC_STEPS = 2


def build(seed):
    from repro.data import make_dataset
    from repro.experiments.config import make_config
    from repro.experiments.runner import build_model, build_trainer

    trainers = {}
    for method in ("sgd", "hero"):
        config = make_config("ResNet20", "cifar10_like", method, profile="fast", seed=seed,
                             dtype="float32", batch_size=BATCH)
        if not trainers:
            train, _test, spec = make_dataset("cifar10_like", seed=seed,
                                              train_size=TRAIN_SAMPLES, test_size=BATCH)
        trainers[method] = build_trainer(config, build_model(config, spec))
    batches = [train[np.arange(i, i + BATCH)] for i in range(0, TRAIN_SAMPLES, BATCH)]
    return trainers, batches, config


class Stepper:
    """Runs and times steps; counts ``Function.apply`` calls per step."""

    def __init__(self, trainers, batches, tracer):
        self.trainers = trainers
        self.batches = batches
        self.tracer = tracer
        self.steps = {"sgd": 0, "hero": 0}
        self.apply_calls = {"sgd": [], "hero": []}
        self.losses = []

    def step(self, method):
        trainer = self.trainers[method]
        x, y = self.batches[self.steps[method] % len(self.batches)]
        calls = self.tracer.counts.get("tensor.apply", 0)
        with self.tracer.span(f"step.{method}"):
            start = time.perf_counter()
            loss, _logits = trainer.training_step(x, y)
            trainer.optimizer.step()
            seconds = time.perf_counter() - start
        self.apply_calls[method].append(self.tracer.counts.get("tensor.apply", 0) - calls)
        self.losses.append(loss)
        self.steps[method] += 1
        return seconds

    def pair(self, index):
        order = ("sgd", "hero") if index % 2 == 0 else ("hero", "sgd")
        return {method: self.step(method) for method in order}


def weights_digest(model):
    digest = hashlib.sha256()
    for name, array in sorted(model.state_dict().items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def install(tracer, trainers):
    """Wrap the public calls this workload's layers go through."""
    from repro import core, optim
    from repro.core import hero as hero_module
    from repro.nn import Module
    from repro.tensor import Function, Tensor

    state = {"graph_seen": False}

    def backward_name(args, kwargs):
        if kwargs.get("create_graph", False) or (len(args) > 2 and args[2]):
            state["graph_seen"] = True
            return "tensor.graph_backward"
        return "tensor.penalty_backward" if state["graph_seen"] else "tensor.backward"

    def step_name(args, kwargs):
        state["graph_seen"] = False
        return "core.training_step"

    models = {id(t.model) for t in trainers.values()}
    tracer.wrap(Function, "apply", None, counter="tensor.apply")
    tracer.wrap(Tensor, "backward", backward_name)
    tracer.wrap(Module, "__call__", lambda args, kwargs: "nn.forward" if id(args[0]) in models else None)
    tracer.wrap(core.ERMTrainer, "training_step", step_name)
    tracer.wrap(core.HEROTrainer, "training_step", step_name)
    tracer.wrap(hero_module, "apply_offsets", "core.perturb")
    tracer.wrap(hero_module.PERTURBATIONS, "layer_adaptive", "core.perturb")
    tracer.wrap(optim.SGD, "step", "optim.step")


def layer_metrics(tracer, stepper, times, im2col):
    spans = tracer.spans
    by_parent = children_of(spans)
    per_step = {"sgd": [], "hero": []}
    for method in per_step:
        for step in named(spans, f"step.{method}"):
            kids = {}
            (training_step,) = [s for s in by_parent.get(step["id"], ())
                                if s["name"] == "core.training_step"]
            for kid in by_parent.get(training_step["id"], ()):
                kids.setdefault(kid["name"], []).append(kid)
            per_step[method].append((training_step, kids))

    def per_step_ms(method, name):
        return median(sum(duration(s) for s in kids.get(name, ())) * 1e3
                      for _ts, kids in per_step[method])

    hero_self = median(self_time(ts, [k for group in kids.values() for k in group]) * 1e3
                       for ts, kids in per_step["hero"])
    pair_ratio = median(h / s for s, h in zip(times["sgd"], times["hero"]))
    lookups = im2col["hits"] + im2col["misses"]
    return {
        "tensor.apply_calls.sgd": median(stepper.apply_calls["sgd"]),
        "tensor.apply_calls.hero": median(stepper.apply_calls["hero"]),
        "tensor.backward_ms": per_step_ms("sgd", "tensor.backward"),
        "tensor.graph_backward_ms": per_step_ms("hero", "tensor.graph_backward"),
        "tensor.penalty_backward_ms": per_step_ms("hero", "tensor.penalty_backward"),
        "nn.forward_ms": median(duration(s) * 1e3 for s in named(spans, "nn.forward")),
        "nn.im2col_hit_ratio": im2col["hits"] / lookups if lookups else 0.0,
        "core.perturb_ms": per_step_ms("hero", "core.perturb"),
        "core.step_self_ms": hero_self,
        "core.hero_sgd_cost_ratio": pair_ratio,
        "optim.step_ms": median(duration(s) * 1e3 for s in named(spans, "optim.step")),
    }


def run(args, tracer):
    from repro.nn import im2col_cache_info

    trainers, batches, config = build(args.seed)
    stepper = Stepper(trainers, batches, tracer)
    install(tracer, trainers)

    warm = [sum(stepper.pair(index).values()) for index in range(WARM_PAIRS)]
    setup_s = time.time() - args.t0
    # Every run of an invocation, set-up-only ones included, trains the
    # same seed through the same warm-up: ``run.py`` checks they agree.
    digests = {f"weights_after_{WARM_PAIRS}_steps": "/".join(
        weights_digest(trainers[m].model) for m in ("sgd", "hero"))}
    if args.setup_only:
        return {"metrics": {"setup_s": setup_s}, "digests": digests}
    recent = warm[-WARM_WINDOW:]
    warm_spread = max(abs(t / median(recent) - 1) for t in recent)

    warm_steps = dict(stepper.steps)
    tracer.spans.clear()
    base = im2col_cache_info()
    stepper.apply_calls = {"sgd": [], "hero": []}
    times = {"sgd": [], "hero": []}
    kernels = []
    stop = time.perf_counter() + args.seconds
    pairs = 0
    while time.perf_counter() < stop or pairs < 2:
        for method, seconds in stepper.pair(pairs).items():
            times[method].append(seconds)
        kernels.append(calibrate.kernel())
        pairs += 1
    info = im2col_cache_info()
    im2col = {key: info[key] - base[key] for key in ("hits", "misses")}

    sgd, hero = times["sgd"], times["hero"]
    ratio = median(h / s for s, h in zip(sgd, hero))
    # Each pair is scaled by the calibration kernel timed right after it.
    pair_ref = [calibrate.scale(s + h, k) for s, h, k in zip(sgd, hero, kernels)]
    hero_ref = [calibrate.scale(h, k) for h, k in zip(hero, kernels)]
    result = {
        "metrics": {
            "setup_s": setup_s,
            "throughput_per_s": 2.0 / median(pair_ref),
            "p50_ms": median(hero_ref) * 1e3,
            "tail_ms": quantile(hero_ref, TAIL_Q) * 1e3,
        },
        "attempted": len(stepper.losses),
        "failed": sum(1 for loss in stepper.losses if not math.isfinite(loss)),
        "checks": {
            "losses_finite": all(math.isfinite(loss) for loss in stepper.losses),
        },
        "digests": digests,
        "detail": [
            f"sgd_steps_per_s = {1.0 / median(sgd):.4f} steps/s (raw; "
            f"{1.0 / median(calibrate.scale(s, k) for s, k in zip(sgd, kernels)):.4f} at reference speed)",
            f"hero_steps_per_s = {1.0 / median(hero):.4f} steps/s (raw; "
            f"{1.0 / median(hero_ref):.4f} at reference speed)",
            f"calibration kernel = {median(kernels) * 1e3:.3f} ms median "
            f"(reference {calibrate.REFERENCE_S * 1e3:.1f} ms)",
            f"hero_sgd_cost_ratio = {ratio:.4f} x (median of {len(sgd)} interleaved pairs)",
            f"tail_ms = HERO step p{TAIL_Q * 100:.0f} over {len(hero)} steps",
            f"warm-up pair times (ms): {', '.join(f'{t * 1e3:.0f}' for t in warm)}; last "
            f"{WARM_WINDOW} within {warm_spread:.1%} of their median "
            f"({'stable' if warm_spread <= WARM_TOLERANCE else 'NOT stable'} at "
            f"{WARM_TOLERANCE:.0%})",
        ],
        "environment": {
            "model": f"{config.model} x{config.model_scale}",
            "h": config.h,
            "gamma": config.gamma,
            "batch": BATCH,
            "processes": 1,
            "warmup_pairs": WARM_PAIRS,
            "warmup_steps": warm_steps,
            "timed_pairs": pairs,
        },
    }
    if tracer.enabled:
        layers = layer_metrics(tracer, stepper, times, im2col)
        tracer.unwrap_all()
        tracemalloc.start()
        peaks = []
        for _ in range(ALLOC_STEPS):
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            stepper.step("hero")
            peaks.append((tracemalloc.get_traced_memory()[1] - before) / 1e6)
        tracemalloc.stop()
        layers["tensor.alloc_peak_mb.hero"] = median(peaks)
        result["layers"] = layers
    return result
