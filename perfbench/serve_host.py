"""Server host of the ``serve`` workload: fresh ``InferenceServer`` rounds.

Started once by ``perfbench/workloads/serve.py``.  It loads the
published artifact and warms a throw-away server instance, then serves
rounds: for each ``<control>/<round>.start`` file it starts a fresh
instance named after the round (two worker threads, ``max_batch`` 8,
``max_delay`` 5 ms; a new directory, so an empty journal), writes
``<round>.ready``, serves until ``<round>.stop`` appears, stops the
instance and writes ``<round>.done``.  ``<control>/exit`` ends the
host.  In a traced run the wrappers are installed here, so the
server's own calls are timed, and the spans are written to
``<control>/spans.json`` before the host exits.
"""

import argparse
import os
import time

WORKERS, MAX_BATCH, MAX_DELAY = 2, 8, 0.005
WARM_REQUESTS = 16
POLL_S = 0.005


def touch(path):
    tmp = path + ".tmp"
    with open(tmp, "w"):
        pass
    os.replace(tmp, path)


def warm_up(key, cache_dir, name, inputs):
    """Serve a few requests on a separate instance (caches, code paths)."""
    from repro.serving import InferenceServer

    with InferenceServer(key, cache_dir=cache_dir, name=name, workers=WORKERS,
                         max_batch=MAX_BATCH, max_delay=MAX_DELAY) as server:
        client = server.client()
        ids = [client.submit(x) for x in inputs]
        for request_id in ids:
            client.result(request_id, timeout=30.0)


def install(tracer):
    """Wrap the serving, io and nn calls the server makes."""
    from repro.io import JsonJournal
    from repro.nn import Module
    from repro.serving import server as server_module

    def claimed(record):
        tracer.count("serving.claim_calls")
        if record is not None:
            tracer.count("serving.claim_hits")
            tracer.observe("serving.claim_wait_s", record["leased_at"] - record["created_at"])

    def top_level_forward(args, kwargs):
        current = tracer.current()
        return None if current is not None and current["name"] == "nn.forward" else "nn.forward"

    def request_id(args, kwargs):
        return args[1]  # (self, request_id, ...)

    tracer.wrap(server_module.MicroBatcher, "poll", "serving.poll")
    tracer.wrap(server_module.BatchJournal, "enqueue", "serving.enqueue")
    tracer.wrap(server_module.BatchJournal, "claim", "serving.claim", on_result=claimed)
    tracer.wrap(server_module, "serve_batch", "serving.serve_batch")
    tracer.wrap(server_module.RequestStore, "load", "serving.load", rid=request_id)
    tracer.wrap(server_module.RequestStore, "respond", "serving.respond", rid=request_id)
    tracer.wrap(Module, "__call__", top_level_forward)
    tracer.wrap(JsonJournal, "update", "io.journal_update")
    tracer.wrap(JsonJournal, "read", None, counter="io.journal_reads")


def wait_for(path):
    while not os.path.exists(path):
        time.sleep(POLL_S)


def next_command(control, served):
    """Name of the next round to serve, or ``None`` once told to exit."""
    while True:
        if os.path.exists(os.path.join(control, "exit")):
            return None
        for name in sorted(os.listdir(control)):
            if name.endswith(".start") and name[: -len(".start")] not in served:
                return name[: -len(".start")]
        time.sleep(POLL_S)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--artifact", required=True)
    parser.add_argument("--control", required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    import numpy as np

    from repro.serving import InferenceServer
    from spans import Tracer

    rng = np.random.default_rng(0)
    warm_up(args.artifact, args.cache_dir, "warm-up",
            [rng.standard_normal((1, 3, 8, 8)).astype(np.float32) for _ in range(WARM_REQUESTS)])
    tracer = Tracer(enabled=bool(args.trace))
    install(tracer)
    touch(os.path.join(args.control, "host.ready"))
    served = set()
    try:
        while (name := next_command(args.control, served)) is not None:
            served.add(name)
            server = InferenceServer(args.artifact, cache_dir=args.cache_dir, name=name,
                                     workers=WORKERS, max_batch=MAX_BATCH, max_delay=MAX_DELAY)
            server.start()
            try:
                touch(os.path.join(args.control, name + ".ready"))
                wait_for(os.path.join(args.control, name + ".stop"))
            finally:
                server.stop()
            touch(os.path.join(args.control, name + ".done"))
    finally:
        tracer.unwrap_all()
    if tracer.enabled:
        tracer.dump(os.path.join(args.control, "spans.json"))


if __name__ == "__main__":
    main()
