"""The program side of the benchmark: runs kzbraid CLI requests.

    python3 worker.py serve SRC
        Imports kzbraid from SRC, reads one JSON line {"warmup": [argv, ...]},
        runs those requests, prints {"ready": true}, then answers each line
        {"id", "argv", "trace": bool, "ref": bool} with {"rc", "seconds",
        "stdout", "peak_rss_kb"} (plus "spans" and "layers" when traced, and the reference
        kernel's "ref_seconds", timed just before the request, when ref)
        until stdin closes.  Requests go through kzbraid.cli.main in this
        process, one at a time.

    python3 worker.py cli SRC TRACE_FILE ARG...
        One traced `kzbraid ARG...` invocation: times the import, runs
        kzbraid.cli.main with its real stdout, writes the spans and layer
        totals to TRACE_FILE and exits with main's exit code.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

import reference
import tracing


def _traced_call(recorder, call):
    """Run call() with every traced name wrapped; returns (result, first span)."""
    first = len(recorder.spans)
    lookups, hits = tracing.cache_counts()
    undo = tracing.install(recorder)
    try:
        result = call()
    finally:
        tracing.uninstall(undo)
    after_lookups, after_hits = tracing.cache_counts()
    recorder.count("relations.cache_lookups", after_lookups - lookups)
    recorder.count("relations.cache_hits", after_hits - hits)
    return result, first


def _record(recorder, first, request):
    """This request's spans, parents counted from its first span, and totals."""
    spans = [
        [name, start, end, None if parent is None else parent - first, req]
        for name, start, end, parent, req in recorder.spans[first:]
    ]
    counts = [c for c in recorder.counts if c[0] == request]
    return {"spans": spans, "layers": tracing.layer_totals(spans, counts)}


def serve(src):
    sys.path.insert(0, src)
    protocol = sys.stdout
    warmup = json.loads(sys.stdin.readline())["warmup"]
    from kzbraid import cli

    def run(argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
            rc = cli.main(list(argv))
        return rc, buffer.getvalue()

    for argv in warmup:
        rc, text = run(argv)
        if rc != 0:
            raise SystemExit(f"warm-up request {argv} failed with exit code {rc}: {text[-200:]}")
    protocol.write(json.dumps({"ready": True}) + "\n")
    protocol.flush()

    recorder = tracing.Recorder()
    for line in sys.stdin:
        message = json.loads(line)
        argv = message["argv"]
        reply = {"ref_seconds": reference.time_kernel()} if message["ref"] else {}
        if message["trace"]:
            recorder.request = message["id"]
            start = time.perf_counter()
            (rc, text), first = _traced_call(recorder, lambda: run(argv))
            reply["seconds"] = time.perf_counter() - start
            reply.update(_record(recorder, first, message["id"]))
        else:
            start = time.perf_counter()
            rc, text = run(argv)
            reply["seconds"] = time.perf_counter() - start
        reply.update(rc=rc, stdout=text, peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        protocol.write(json.dumps(reply) + "\n")
        protocol.flush()


def traced_cli(src, trace_file, argv):
    recorder = tracing.Recorder()
    recorder.request = 0
    sys.path.insert(0, src)
    with recorder.span("import"):
        from kzbraid import cli
    rc, _first = _traced_call(recorder, lambda: cli.main(argv))
    sys.stdout.flush()
    with open(trace_file, "w", encoding="utf-8") as handle:
        json.dump(_record(recorder, 0, 0), handle)
    return rc


if __name__ == "__main__":
    if sys.argv[1] == "serve":
        serve(sys.argv[2])
    elif sys.argv[1] == "cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[3], sys.argv[4:]))
    else:
        raise SystemExit(f"unknown mode {sys.argv[1]!r}")
