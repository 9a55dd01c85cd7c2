"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json for one second with a fixed seed,
traced and untraced, and checks that the result line carries exactly the
declared metric names and units with no failed request.  Then feeds the
checks corrupted responses and asserts each one counts as a failure.  Exits
non-zero on the first problem.
"""

from __future__ import annotations

import json
import subprocess
import sys

import checks
import run
import workloads

SEED = 7


def declared():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    return [w["name"] for w in spec["workloads"]], units


def check_result_lines():
    names, units = declared()
    for workload in names:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, cwd=run.ROOT, check=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, done.stdout[-2000:]
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            assert got == units[trace], (workload, trace, set(got) ^ set(units[trace]))
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics, {result['attempted']} requests")


def corrupt_number(text, marker):
    """Change the first digit after `marker` in text."""
    at = text.index(marker) + len(marker)
    while not text[at].isdigit():
        at += 1
    return text[:at] + str((int(text[at]) + 3) % 10) + text[at + 1:]


class CorruptingRunner:
    """Hands back every reply of `inner` with one coefficient changed."""

    def __init__(self, inner):
        self.inner = inner

    NOMINAL = run.Worker.NOMINAL

    def request(self, index, argv, trace, ref=False):
        reply = self.inner.request(index, argv, trace, ref)
        reply["stdout"] = corrupt_number(reply["stdout"], '"re": ')
        return reply


def check_corruption():
    link = workloads.schedule("link-closure", SEED, 1)[0]
    worker = run.Worker(())
    worker.start()
    try:
        clean = run.measure(worker, [link], 0, False)
        corrupted = run.measure(CorruptingRunner(worker), [link], 0, False)
    finally:
        worker.stop()
    assert not clean["failures"], clean["failures"]
    assert len(corrupted["failures"]) == corrupted["attempted"] == len(link), corrupted["failures"]

    request = next(
        group[0] for group in link
        if len(checks.closure_cycles(group[0].strands, group[0].word)) > 1
    )
    text = clean["first_reply"][request.argv]
    limit = run.RESIDUAL_LIMIT[request.steps]
    assert checks.check_compute(request, 0, text, limit)[0] is None
    assert checks.check_compute(request, 1, text, limit)[0] is not None
    assert checks.check_compute(request, 0, text[: len(text) // 2], limit)[0] is not None
    # a wrong linking number alone: no linking number is a quarter
    document = checks.split_json(text)
    circles = document["link"]["components"]
    document["link"]["series"]["terms"].append(
        {"slots": [1, 1] + [0] * (circles - 2), "word": [[[0, 0], [1, 0]]], "re": 0.25, "im": 0.0}
    )
    assert checks.check_compute(request, 0, "table\n" + json.dumps(document), limit)[0] is not None

    dims = ("dims", "--circles", "1", "-m", "5")
    assert checks.check_cli(dims, 0, "0:1 1:0 2:1 3:1 4:3 5:4\n") is None
    assert checks.check_cli(dims, 0, "0:1 1:0 2:1 3:1 4:3 5:5\n") is not None
    verify = ("verify", "abelian", "-m", "3")
    assert checks.check_cli(verify, 0, "abelian: residual=3.231e-13 tolerance=1.0e-07 PASS\n") is None
    assert checks.check_cli(verify, 2, "abelian: residual=3.231e-05 tolerance=1.0e-07 FAIL\n") is not None
    print("ok  corrupted responses count as failures")


if __name__ == "__main__":
    check_corruption()
    check_result_lines()
