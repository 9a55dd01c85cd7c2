"""kzbraid benchmark: closed-loop CLI requests, checked, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kzbraid checkout; the package is imported from
./src.  One client sends one request at a time and waits for it.  The
workload's requests are generated from the seed and run in whole passes
until S seconds have passed; every response is checked untimed.
With --trace 0 the result holds the end-to-end metrics, times scaled to a
nominal machine speed (reference.py); with --trace 1 the per-layer metrics
of a run whose requests go in equal-cost pairs, one traced and one not.
Spans of a traced run are written to .perfbench/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MAX_PASSES = 64
HARD_STOP_S = 100.0  # start no pass after this, whatever --seconds says
# set-up is repeated at least SETUP_MIN times, and on up to SETUP_MAX times
# while the repeats so far took under SETUP_BUDGET_S
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 7, 4.0
# Abelianization residual a response may reach, by --steps.  Observed maxima
# on this tree: 1.5e-12 at 512 steps, 1.7e-10 at 128 steps; a quarter of the
# steps multiplies the RK4 error by 256.
RESIDUAL_LIMIT = {512: 1e-11, 128: 1e-9}

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment():
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": commit,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def cold_reference():
    """Seconds a fresh interpreter takes to run reference.COLD_CODE."""
    begin = time.perf_counter()
    subprocess.run([sys.executable, "-c", reference.COLD_CODE], env=child_env(), cwd=ROOT, check=True)
    return time.perf_counter() - begin


class Worker:
    """A `worker.py serve` process; start() returns its set-up seconds."""

    NOMINAL = reference.KERNEL_NOMINAL_S

    def __init__(self, warmup):
        self.warmup = warmup
        self.process = None

    def start(self):
        begin = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "serve", str(SRC)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=ROOT,
        )
        self._send({"warmup": [list(argv) for argv in self.warmup]})
        if not json.loads(self._receive()).get("ready"):
            raise RuntimeError("worker did not become ready")
        return time.perf_counter() - begin

    def request(self, index, argv, trace, ref=False):
        """Reply to one request; with ref, also time the reference kernel first."""
        self._send({"id": index, "argv": list(argv), "trace": trace, "ref": ref})
        return json.loads(self._receive())

    def stop(self):
        if self.process is not None:
            self.process.stdin.close()
            self.process.stdout.read()
            self.process.wait()
            self.process = None

    def _send(self, message):
        self.process.stdin.write(json.dumps(message) + "\n")
        self.process.stdin.flush()

    def _receive(self):
        line = self.process.stdout.readline()
        if not line:
            code = self.process.wait()
            raise RuntimeError(f"worker exited with code {code}")
        return line


class ColdRunner:
    """A fresh `python -m kzbraid.cli` process per request."""

    NOMINAL = reference.COLD_NOMINAL_S

    def __init__(self):
        OUT.mkdir(exist_ok=True)
        self.trace_file = OUT / f"cli-spans-{os.getpid()}.json"

    def request(self, index, argv, trace, ref=False):
        references = {"ref_seconds": cold_reference()} if ref else {}
        if trace:
            command = [sys.executable, str(HERE / "worker.py"), "cli", str(SRC), str(self.trace_file)]
        else:
            command = [sys.executable, "-m", "kzbraid.cli"]
        begin = time.perf_counter()
        done = subprocess.run(command + list(argv), capture_output=True, text=True, env=child_env(), cwd=ROOT)
        reply = {"seconds": time.perf_counter() - begin, "rc": done.returncode, "stdout": done.stdout,
                 "peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, **references}
        if trace:
            reply.update(json.loads(self.trace_file.read_text(encoding="utf-8")))
            self.trace_file.unlink()
        return reply


def repeat_setup(start):
    """Set-up times from repeated calls of start(), each after a reference."""
    times, references = [], []
    while len(times) < SETUP_MIN or (len(times) < SETUP_MAX and sum(times) < SETUP_BUDGET_S):
        references.append(cold_reference())
        times.append(start())
    return times, references


def setup_cold():
    def start():
        begin = time.perf_counter()
        subprocess.run([sys.executable, "-m", "kzbraid.cli", "--help"], capture_output=True,
                       env=child_env(), cwd=ROOT, check=True)
        return time.perf_counter() - begin

    return repeat_setup(start)


def setup_worker(warmup):
    """Start workers repeatedly; keep the last one running."""
    workers = []

    def start():
        if workers:
            workers.pop().stop()
        workers.append(Worker(warmup))
        return workers[-1].start()

    return *repeat_setup(start), workers[0]


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(runner, passes, seconds, trace):
    """Run whole passes, at least one, until `seconds` have passed.

    Untraced, each group sends its first request, timed after a reference
    and scaled by it.  Traced, each group sends both its equal-cost
    requests, one traced and one not, alternating which goes first.
    """
    record = {"raw_latency": [], "references": [], "traced": [], "layers": [], "spans": [],
              "failures": [], "residuals": [], "attempted": 0, "passes": 0, "runs": {},
              "first_reply": {}}
    wall = time.perf_counter()
    index = 0
    for batch in passes:
        for group in batch:
            for position, request in enumerate(group if trace else group[:1]):
                traced = trace and (position + index) % 2 == 1
                reply = runner.request(index, request.argv, traced, ref=position == 0)
                if position == 0:
                    record["references"].append(reply["ref_seconds"])
                _check_reply(record, request, reply)
                if traced:
                    record["traced"].append(reply["seconds"])
                    record["layers"].append(reply["layers"])
                    record["spans"].extend(reply["spans"])
                else:
                    record["raw_latency"].append(reply["seconds"])
            index += 1
        record["passes"] += 1
        if record["passes"] == 1:
            record["peak_rss_mb"] = reply["peak_rss_kb"] / 1024.0
        if time.perf_counter() - wall >= min(seconds, HARD_STOP_S):
            break
    record["latency"] = reference.scaled(record["raw_latency"], record["references"], runner.NOMINAL)
    return record


def _check_reply(record, request, reply):
    """Count the reply and record why it failed, if it did."""
    record["attempted"] += 1
    if request.argv[0] == "compute":
        reason, residual = checks.check_compute(request, reply["rc"], reply["stdout"],
                                                RESIDUAL_LIMIT[request.steps])
    else:
        reason, residual = checks.check_cli(request.argv, reply["rc"], reply["stdout"]), None
    first = record["first_reply"].setdefault(request.argv, reply["stdout"])
    if reason is None and first != reply["stdout"]:
        reason = "output differs from the first run of the same command"
    record["runs"][request.argv] = record["runs"].get(request.argv, 0) + 1
    if reason:
        record["failures"].append(f"{' '.join(request.argv)[:120]}: {reason}")
    if residual is not None:
        record["residuals"].append(residual)


def rerun_shapes(runner, passes, record):
    """Re-run the first request of each shape; its bytes must not change.

    A shape whose command already ran twice in the measured passes was
    compared there and is not run again.
    """
    shapes = {}
    for batch in passes[: record["passes"]]:
        for group in batch:
            shapes.setdefault(group[0].shape, group[0])
    rerun = [r for r in shapes.values() if record["runs"][r.argv] == 1]
    for request in rerun:
        reply = runner.request(-1, request.argv, False)
        if reply["stdout"] != record["first_reply"][request.argv] or reply["rc"] != 0:
            record["failures"].append(f"{' '.join(request.argv)[:120]}: re-run output is not byte-identical")
    return len(rerun)


def end_to_end(setup, latency, peak_rss_mb):
    """End-to-end metric values from set-up times and latency samples."""
    return {
        "setup_s": statistics.median(setup),
        "throughput_rps": len(latency) / sum(latency),
        "latency_p50_s": statistics.median(latency),
        "latency_p90_s": percentile(latency, 0.9),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(record):
    """Per-layer metrics with units, totals and per traced request."""
    totals = {}
    for layers in record["layers"]:
        for name, value in layers.items():
            totals[name] = totals.get(name, 0) + value
    count = len(record["layers"])
    out = {}
    for name in tracing.TIME_METRICS:
        out[name] = (totals[name], "s")
        out[f"{name}.per_request"] = (totals[name] / count, "s")
    for name in tracing.COUNT_METRICS:
        if name == "relations.cache_hits":
            continue
        out[name] = (totals[name], "count")
        out[f"{name}.per_request"] = (totals[name] / count, "count")
    lookups = totals["relations.cache_lookups"]
    out["relations.cache_hit_ratio"] = (totals["relations.cache_hits"] / lookups if lookups else 0.0, "ratio")
    traced, untraced = sum(record["traced"]), sum(record["raw_latency"])
    accounted = sum(totals[name] for name in tracing.TIME_METRICS)
    out["trace.requests"] = (count, "count")
    out["trace.request_s"] = (traced, "s")
    out["trace.accounted_frac"] = (accounted / traced, "ratio")
    out["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kzbraid" / "cli.py").is_file():
        print(f"error: no kzbraid package under {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    passes = workloads.schedule(args.workload, args.seed, MAX_PASSES)
    # compile the package's bytecode once, so no set-up repeat pays for it
    subprocess.run([sys.executable, "-c", "import kzbraid.cli"], env=child_env(), cwd=ROOT, check=True)
    if workload.in_process:
        setup_times, setup_references, runner = setup_worker(workload.warmup)
    else:
        (setup_times, setup_references), runner = setup_cold(), ColdRunner()
    try:
        record = measure(runner, passes, args.seconds, bool(args.trace))
        reruns = rerun_shapes(runner, passes, record)
    finally:
        if workload.in_process:
            runner.stop()

    attempted, failed = record["attempted"], len(record["failures"])
    latency = record["latency"]
    print(f"workload {args.workload}  seed {args.seed}  argv sha256 {workloads.argv_hash(passes)}")
    print("environment " + json.dumps(environment()))
    print(f"{len(latency)} latency samples in {record['passes']} passes; {reruns} shape re-runs")
    for failure in record["failures"][:20]:
        print(f"FAILED {failure}")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted})")
    if record["residuals"]:
        print(f"abelian_residual_max {max(record['residuals']):.6g} abs")
    else:
        print("abelian_residual_max n/a (no compute requests)")
    if args.trace:
        metrics = per_layer(record)
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "request"],
                                          "spans": record["spans"]}), encoding="utf-8")
        print(f"spans written to {spans_file.relative_to(ROOT)}")
    else:
        setup = reference.scaled(setup_times, setup_references, reference.COLD_NOMINAL_S)
        values = end_to_end(setup, latency, record["peak_rss_mb"])
        unscaled = end_to_end(setup_times, record["raw_latency"], record["peak_rss_mb"])
        beyond = sum(1 for v in latency if v > values["latency_p90_s"])
        print(f"latency_p90_s {values['latency_p90_s']:.6g} s ({beyond} of {len(latency)} samples beyond it;"
              " not in the result: it needs ten)")
        print("unscaled " + "  ".join(f"{name} {value:.6g}" for name, value in unscaled.items())
              + f"  (reference median {statistics.median(record['references']):.4g} s,"
              f" nominal {runner.NOMINAL} s; set-up reference median"
              f" {statistics.median(setup_references):.4g} s, nominal {reference.COLD_NOMINAL_S} s)")
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
