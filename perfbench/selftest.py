"""Self-test of the benchmark: its checks accept real outputs and reject wrong ones.

    python3 perfbench/selftest.py

Runs the first request group of every workload through cohgen.cli.main,
requires every output to pass its checks, then requires each check to reject
the deliberately wrong version of those outputs: a capacity scaled by ln 2,
a trajectory CSV with one entropy value moved by 1e-6, and a verify report
with one check flipped to failed.  Also checks that BENCHMARK.json names
exactly the metrics the benchmark prints.  Exits 0 when all of that holds.
"""
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks    # noqa: E402
import run       # noqa: E402
import tracing   # noqa: E402
import worker    # noqa: E402


def metric_names_agree() -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if declared != list(run.END_TO_END.items()):
        problems.append(f"end_to_end in BENCHMARK.json {declared} != printed {run.END_TO_END}")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != tracing.per_layer_metrics():
        problems.append("per_layer in BENCHMARK.json differs from tracing.per_layer_metrics()")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from run.WORKLOADS")
    return problems


def tail_rule_holds() -> list:
    samples = [float(k) for k in range(1, 101)]
    value, percentile = run.tail(samples)
    if (value, percentile) != (90.0, 90.0) or sum(x > value for x in samples) != 10:
        return [f"tail of 1..100 gave {value} at p{percentile}"]
    return []


def checks_bite(workload: str, workdir: str) -> list:
    client = worker.Client(workload, 0, workdir)
    try:
        pairs = []
        for request in client.group(0):
            ok, _, out = client.checked_call(request)
            if not ok:
                return [f"{workload}: real output rejected: {client.notes}"]
            pairs.append((request, out))
    finally:
        client.close()
    tried, missed = checks.mutants_caught(workload, pairs)
    if tried == 0 or missed:
        return [f"{workload}: {missed} of {tried} wrong outputs passed the checks"]
    print(f"ok  {workload}: {len(pairs)} real outputs pass, {tried} wrong outputs rejected")
    return []


def main() -> int:
    problems = metric_names_agree() + tail_rule_holds()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for workload in run.WORKLOADS:
            problems += checks_bite(workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test passed" if not problems else "self-test FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
