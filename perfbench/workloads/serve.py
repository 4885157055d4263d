"""``serve``: open-loop Poisson load against the micro-batched server.

This process is the load generator: one submit thread sends requests
on a Poisson schedule drawn from the seed, one collector thread
watches the response directory.  The server runs in a separate
benchmark-owned process (``perfbench/serve_host.py``) over the
``ptq_w8a8`` artifact of ``benchmarks/bench_serving.py``'s model
(resnet8 at width 0.5, 8x8 inputs).  Two phases, each on a fresh
server instance per round (a new server directory, so an empty
journal) and a fixed request count:

* ``steady``: 4 rounds of 250 requests at 40 req/s; p50, p90 and p99
  pool the 1000 latencies, so p99 has ten samples beyond it.  Latency runs
  from each request's *scheduled* send time, so a stalled generator
  or server shows up in every later request.
* ``saturate``: 5 rounds of 200 requests offered at 400 req/s; a
  round's capacity is served requests over the span from its first
  due time to its last response, and the phase reports the median.

Both phases stop at a deadline; a request without a response by then,
or with an error marker, counts as failed.  Every response is compared
byte for byte with an offline forward of the in-memory PTQ model the
artifact was published from.

The server's cost grows with the requests an instance has seen
(``BatchJournal.claim`` reads every batch record, ``MicroBatcher.admit``
lists every request file), which is why round sizes are fixed.
"""

import os
import subprocess
import sys
import threading
import time

import numpy as np

from spans import children_of, duration, median, named, quantile

MODEL = dict(name="resnet8", num_classes=10, in_channels=3, scale=0.5, image_size=8)
PHASES = (
    # label, offered rate (req/s), rounds, requests per round
    ("steady", 40.0, 4, 250),
    ("saturate", 400.0, 5, 200),
)
#: ``tail_ms`` is this quantile of the steady latencies (100 samples
#: beyond it).  p99 is printed too, but its run-to-run spread on a 2-core
#: VM (0.17-0.35 of its median over ten runs) is wider than any bound.
TAIL_Q = 0.90
#: A phase ends this long after its last due time, answered or not.
DRAIN_S = 15.0
HOST_START_S = 60.0
HOST_STOP_S = 30.0
COLLECT_POLL_S = 0.001
HOST = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "serve_host.py")


def publish(cache_dir, seed):
    """Publish the w8a8 PTQ artifact; returns its key and the in-memory model.

    The in-memory PTQ model is the reference responses are checked
    against, so the check covers the artifact round trip (publish, load,
    build) as well as batching and the workers.
    """
    from repro.models import create_model
    from repro.quant import quantize_weights_and_activations
    from repro.serving import model_spec, publish_artifact, uniform_weight_quant

    model = create_model(MODEL["name"], num_classes=MODEL["num_classes"],
                         in_channels=MODEL["in_channels"], scale=MODEL["scale"], seed=seed,
                         image_size=MODEL["image_size"])
    model.eval()
    rng = np.random.default_rng(seed)
    calibration = [(rng.standard_normal((16, 3, 8, 8)).astype(np.float32), None)]
    ptq = quantize_weights_and_activations(model, weight_bits=8, act_bits=8, batches=calibration)
    manifest = publish_artifact(ptq, model_spec(**MODEL), cache_dir=cache_dir,
                                weight_quant=uniform_weight_quant(8))
    return manifest.key, ptq


class Host:
    """The server-host process and the control directory it obeys."""

    def __init__(self, key, cache_dir, workdir, trace):
        self.control = os.path.join(workdir, "control")
        os.makedirs(self.control, exist_ok=True)
        self.proc = subprocess.Popen([
            sys.executable, HOST, "--cache-dir", cache_dir, "--artifact", key,
            "--control", self.control, "--trace", str(int(trace)),
        ])
        self._wait_for("host.ready", HOST_START_S)

    def _signal(self, flag):
        with open(os.path.join(self.control, flag), "w"):
            pass

    def _wait_for(self, flag, timeout):
        limit = time.monotonic() + timeout
        path = os.path.join(self.control, flag)
        while not os.path.exists(path):
            if self.proc.poll() is not None:
                raise RuntimeError(f"server host exited with {self.proc.returncode} before {flag}")
            if time.monotonic() > limit:
                raise TimeoutError(f"server host not {flag} within {timeout}s")
            time.sleep(0.005)

    def start_round(self, name):
        """Start a fresh server instance called ``name``; wait until it serves."""
        self._signal(name + ".start")
        self._wait_for(name + ".ready", HOST_START_S)

    def end_round(self, name):
        self._signal(name + ".stop")
        self._wait_for(name + ".done", HOST_STOP_S)

    def close(self):
        """Tell the host to exit and wait for it; kill it if it hangs."""
        self._signal("exit")
        try:
            self.proc.wait(timeout=HOST_STOP_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server host exited with {self.proc.returncode}")

    def spans_path(self):
        return os.path.join(self.control, "spans.json")


def drive(root, inputs, rate, seed, tracer):
    """Open-loop run of ``inputs``; returns per-request timing dicts.

    Returns ``(rows, store)``: one row per request with ``due``
    (scheduled send, perf-counter clock), ``sent``, ``seen`` (collector
    saw the response; None if it never did), ``error`` and
    ``observe_lag`` (response file written -> seen).  Both threads stop
    by ``DRAIN_S`` after the last due time whatever happens.
    """
    from repro.serving import RequestStore

    store = RequestStore(root)
    os.makedirs(store.requests_dir, exist_ok=True)
    os.makedirs(store.responses_dir, exist_ok=True)
    offsets = np.cumsum(np.random.default_rng(seed).exponential(1.0 / rate, size=len(inputs)))
    ids = [f"r{index:05d}" for index in range(len(inputs))]
    start = time.perf_counter() + 0.05
    rows = {rid: {"due": start + float(t), "sent": None, "seen": None, "error": False,
                  "observe_lag": None} for rid, t in zip(ids, offsets)}
    deadline = start + float(offsets[-1]) + DRAIN_S
    stop = threading.Event()

    def submit():
        for rid, x in zip(ids, inputs):
            row = rows[rid]
            delay = row["due"] - time.perf_counter()
            if delay > 0 and stop.wait(delay):
                return
            row["sent"] = time.perf_counter()
            with tracer.span("serving.submit", rid):
                store.submit(x, request_id=rid)

    def collect():
        outstanding = set(ids)
        while outstanding and time.perf_counter() < deadline and not stop.is_set():
            now, wall = time.perf_counter(), time.time()
            for name in os.listdir(store.responses_dir):
                if name.endswith(".npy"):
                    rid, error = name[:-4], False
                elif name.endswith(".error.json"):
                    rid, error = name[: -len(".error.json")], True
                else:
                    continue
                if rid in outstanding and not name.startswith(".tmp."):
                    outstanding.discard(rid)
                    row = rows[rid]
                    row["seen"], row["error"] = now, error
                    try:
                        mtime = os.stat(os.path.join(store.responses_dir, name)).st_mtime
                        row["observe_lag"] = max(0.0, wall - mtime)
                    except FileNotFoundError:
                        pass
            time.sleep(COLLECT_POLL_S)

    threads = [threading.Thread(target=submit, daemon=True),
               threading.Thread(target=collect, daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.perf_counter()) + 5.0)
    stop.set()
    for thread in threads:
        thread.join(timeout=5.0)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("serve driver threads did not stop")
    return rows, store


def check_responses(rows, store, inputs, reference):
    """Count responses byte-identical to the offline forward."""
    from repro.tensor import Tensor, no_grad

    identical = 0
    with no_grad():
        for (rid, row), x in zip(rows.items(), inputs):
            if row["seen"] is None or row["error"]:
                continue
            served = np.load(os.path.join(store.responses_dir, rid + ".npy"))
            offline = reference(Tensor(x)).data
            if served.dtype == offline.dtype and served.shape == offline.shape \
                    and served.tobytes() == offline.tobytes():
                identical += 1
    return identical


def run(args, tracer):
    from repro.serving import server_root

    cache_dir = os.path.join(args.workdir, "cache")
    key, reference = publish(cache_dir, args.seed)
    rng = np.random.default_rng(args.seed + 1)
    plan = [(label, index, rate, n) for label, rate, rounds, n in PHASES for index in range(rounds)]
    inputs = {(label, index): [rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
                               for _ in range(n)] for label, index, _rate, n in plan}

    rounds = {}
    host = Host(key, cache_dir, args.workdir, tracer.enabled)
    try:
        for label, index, rate, _n in plan:
            name = f"{label}-{index}"
            host.start_round(name)
            try:
                if not rounds:
                    setup_s = time.time() - args.t0
                    if args.setup_only:
                        return {"metrics": {"setup_s": setup_s}}
                rows, store = drive(server_root(name, cache_dir), inputs[label, index], rate,
                                    args.seed * 7919 + len(rounds), tracer)
            finally:
                host.end_round(name)
            rounds[label, index] = (rows, store)
    finally:
        host.close()
    if tracer.enabled:
        tracer.merge(host.spans_path())

    attempted = failed = identical = 0
    for round_key, (rows, store) in rounds.items():
        attempted += len(rows)
        failed += sum(1 for row in rows.values() if row["seen"] is None or row["error"])
        identical += check_responses(rows, store, inputs[round_key], reference)

    def answered(rows):
        return [row for row in rows.values() if row["seen"] is not None and not row["error"]]

    steady, round_p50, capacities = [], [], []
    for (label, _index), (rows, _store) in rounds.items():
        served = answered(rows)
        if label == "steady":
            latencies = [(row["seen"] - row["due"]) * 1e3 for row in served]
            round_p50.append(median(latencies))
            steady += latencies
        elif served:
            span = max(row["seen"] for row in served) - min(row["due"] for row in rows.values())
            capacities.append(len(served) / span)
    capacity = median(capacities)
    all_rows = [row for rows, _store in rounds.values() for row in rows.values()]
    generator_lag = median((row["sent"] - row["due"]) * 1e3 for row in all_rows
                           if row["sent"] is not None)
    observe_lag = median(row["observe_lag"] * 1e3 for row in all_rows
                         if row["observe_lag"] is not None)
    p50, tail, p99 = median(steady), quantile(steady, TAIL_Q), quantile(steady, 0.99)
    phases = {label: {"rate": rate, "rounds": n_rounds, "requests_per_round": n}
              for label, rate, n_rounds, n in PHASES}
    result = {
        "metrics": {
            "setup_s": setup_s,
            "throughput_per_s": capacity,
            "p50_ms": p50,
            "tail_ms": tail,
        },
        "attempted": attempted,
        "failed": failed,
        "checks": {
            "served_equals_offline": identical == attempted,
            "all_requests_answered": failed == 0,
        },
        "digests": {},
        "detail": [
            f"p50_ms = {p50:.3f} ms (steady, {len(steady)} requests at 40 req/s; per round "
            f"{', '.join(f'{v:.1f}' for v in round_p50)})",
            f"p90_ms = {tail:.3f} ms, p99_ms = {p99:.3f} ms (steady; "
            f"{sum(1 for v in steady if v > tail)} and {sum(1 for v in steady if v > p99)} "
            "samples beyond them)",
            f"capacity_rps = {capacity:.3f} req/s (saturate, median of rounds "
            f"{', '.join(f'{v:.1f}' for v in capacities)}; 400 req/s offered)",
            f"generator_lag_ms = {generator_lag:.3f} ms (median), "
            f"observe_lag_ms = {observe_lag:.3f} ms (median)",
            f"byte-identical responses: {identical}/{attempted}",
        ],
        "environment": {
            "processes": 2,
            "generator_threads": 2,
            "server_workers": 2,
            "max_batch": 8,
            "max_delay_ms": 5.0,
            "phases": phases,
            "model": MODEL,
        },
    }
    if tracer.enabled:
        result["layers"] = layer_metrics(tracer, rounds, generator_lag, observe_lag)
    return result


def layer_metrics(tracer, rounds, generator_lag, observe_lag):
    from repro.serving import BatchJournal

    spans = tracer.spans
    by_parent = children_of(spans)
    forwards = [kid for batch in named(spans, "serving.serve_batch")
                for kid in by_parent.get(batch["id"], ()) if kid["name"] == "nn.forward"]
    fills, admit_waits = [], []
    wall_offset = time.time() - time.perf_counter()
    served = 0
    for rows, store in rounds.values():
        records = BatchJournal(store.root).snapshot()
        for record in records.values():
            fills.append(len(record.requests))
            served += len(record.requests)
            for rid in record.requests:
                admit_waits.append((record.created_at - (rows[rid]["due"] + wall_offset)) * 1e3)
    calls = tracer.counts.get("serving.claim_calls", 0)

    def ms(name):
        return median(duration(s) * 1e3 for s in named(spans, name))

    return {
        "nn.forward_ms": ms("nn.forward"),
        "serving.submit_ms": ms("serving.submit"),
        "serving.poll_ms": ms("serving.poll"),
        "serving.admit_wait_ms": median(admit_waits),
        "serving.claim_ms": ms("serving.claim"),
        "serving.claim_hit_ratio": tracer.counts.get("serving.claim_hits", 0) / calls if calls else 0.0,
        "serving.claim_wait_ms": median(v * 1e3 for v in tracer.values.get("serving.claim_wait_s", ())),
        "serving.forward_ms": median(duration(s) * 1e3 for s in forwards),
        "serving.respond_ms": ms("serving.respond"),
        "serving.batch_fill": sum(fills) / len(fills) if fills else 0.0,
        "serving.observe_lag_ms": observe_lag,
        "serving.generator_lag_ms": generator_lag,
        "io.journal_update_ms": ms("io.journal_update"),
        "io.journal_reads_per_request": tracer.counts.get("io.journal_reads", 0) / served if served else 0.0,
    }
