"""The benchmark's workloads; each module's ``run(args, tracer)`` returns a result dict."""
