"""Worker process for one benchmark run: one closed-loop client of cohgen.

    python3 perfbench/worker.py JOB.json RESULT.json

run.py starts it with ``src`` on PYTHONPATH and BLAS pinned to one thread.
Each request writes its input files, then calls ``cohgen.cli.main(argv)``
exactly as the console script would; only that call is timed.  The next
request starts when the previous one has returned.
"""
import contextlib
import json
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np

import cohgen.cli

import checks
import workloads
from tracing import Tracer

MAX_FAILURE_NOTES = 20


class Client:
    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.make_group = workloads.GROUPS[workload]
        self.check = checks.CHECKS[workload]
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self._sink = open(os.devnull, "w")

    def close(self):
        self._sink.close()

    def group(self, index: int, make=None) -> list:
        return (make or self.make_group)(self.seed, index, self.workdir)

    def call(self, request):
        """Run one request; returns (exit code, seconds, output bytes or None)."""
        for path, text in request.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        if os.path.exists(request.out):
            os.remove(request.out)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self._sink):
                code = cohgen.cli.main(request.argv)
        except SystemExit as exc:          # argparse rejected the arguments
            code = exc.code
        except Exception:                  # a crash is a failed request, not a dead run
            code = "exception"
            traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - start
        out = None
        if os.path.exists(request.out):
            with open(request.out, "rb") as fh:
                out = fh.read()
        return code, seconds, out

    def judge(self, request, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.notes) < MAX_FAILURE_NOTES:
                self.notes.append(f"{' '.join(request.argv[:1])} {request.kind} "
                                  f"d={request.dim}: {'; '.join(problems)}")
        return not problems

    def checked_call(self, request, check=None):
        code, seconds, out = self.call(request)
        ok = self.judge(request, (check or self.check)(request, code, out))
        return ok, seconds, out

    def repeat_identical(self, first: list):
        """Run group 0 again; every output must match the first run byte for byte."""
        for request, out in zip(self.group(0), [out for _, out in first]):
            code, _, again = self.call(request)
            problems = [] if code == 0 and again == out else ["repeat is not byte-identical"]
            self.judge(request, problems)


def quality_ratios(request, out) -> tuple:
    """The capacity found over two rigorous upper bounds: (row-sum bound, Hölder bound)."""
    value = json.loads(out)["numeric"]["value"]
    h = request.meta["hamiltonian"]
    holder = float(np.linalg.norm(h)) * checks.capacity_bound(h.shape[0])
    return value / checks.row_sum_bound(h), value / holder


def capacity_quality(client: Client, done: dict) -> list:
    """Quality ratios of the random-H requests of the first capacity groups.

    ``done`` maps group index to (request, output) pairs the timed phase
    already ran; the rest run now, untimed.
    """
    ratios = []
    for index in range(workloads.QUALITY_GROUPS):
        pairs = done.get(index)
        if pairs is None:
            pairs = []
            for request in client.group(index, workloads.capacity_group):
                if request.kind == "random":
                    ok, _, out = client.checked_call(request, checks.check_capacity)
                    pairs.append((request, out if ok else None))
        ratios += [quality_ratios(r, out) for r, out in pairs if r.kind == "random" and out]
    return ratios


def run_timed(client: Client, seconds: float) -> dict:
    """Closed loop over whole groups until the timed calls add up to ``seconds``."""
    latencies, labels, first, quality_done = [], [], [], {}
    busy, index = 0.0, 0
    while busy < seconds:
        pairs = []
        for request in client.group(index):
            ok, elapsed, out = client.checked_call(request)
            busy += elapsed
            latencies.append(elapsed)
            labels.append(f"{request.kind}-d{request.dim}" if request.dim else request.kind)
            pairs.append((request, out if ok else None))
        if index == 0:
            first = pairs
        if client.workload == "capacity_sweep" and index < workloads.QUALITY_GROUPS:
            quality_done[index] = pairs
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    client.repeat_identical(first)
    tried, missed = checks.mutants_caught(client.workload, [p for p in first if p[1]])
    return {
        "latencies": latencies,
        "labels": labels,
        "busy_s": busy,
        "groups": index,
        "peak_rss_mb": peak_rss_mb,
        "quality": capacity_quality(client, quality_done),
        "mutants": [tried, missed],
    }


def run_traced(client: Client, seconds: float) -> dict:
    """Fixed work, so per-layer counts repeat exactly: the first TRACE_GROUPS
    groups, run untraced then traced, as many times as ``seconds`` allows
    (at least once).  Per-layer figures are per traced pass."""
    requests = [r for i in range(workloads.TRACE_GROUPS[client.workload])
                for r in client.group(i)]
    tracer = Tracer()
    reference = None
    untraced = traced = 0.0
    passes = 0
    while passes == 0 or untraced + traced < seconds:
        for tracing in (False, True):
            if tracing:
                tracer.install()
            try:
                outputs = []
                for request in requests:
                    if reference is None:
                        ok, elapsed, out = client.checked_call(request)
                        out = out if ok else None
                    else:
                        code, elapsed, out = client.call(request)
                        same = code == 0 and out == reference[len(outputs)]
                        client.judge(request, [] if same else ["repeat is not byte-identical"])
                    outputs.append(out)
                    if tracing:
                        traced += elapsed
                    else:
                        untraced += elapsed
            finally:
                tracer.uninstall()
            if reference is None:
                reference = outputs
        passes += 1
    pairs = [(r, out) for r, out in zip(requests, reference) if out]
    tried, missed = checks.mutants_caught(client.workload, pairs)
    return {
        "per_layer": tracer.metrics(passes, untraced, traced),
        "passes": passes,
        "untraced_s": untraced,
        "traced_s": traced,
        "requests_per_pass": len(requests),
        "mutants": [tried, missed],
    }


def blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):          # older numpy has no dict mode
        return "unknown"


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    client = Client(job["workload"], job["seed"], job["workdir"])
    try:
        if job["trace"]:
            result = run_traced(client, job["seconds"])
        else:
            result = run_timed(client, job["seconds"])
    finally:
        client.close()
    result.update(
        inputs=workloads.INPUT_SIZES[job["workload"]],
        attempted=client.attempted,
        failed=client.failed,
        failure_notes=client.notes,
        numpy=np.__version__,
        blas=blas_name(),
        python=platform.python_version(),
    )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
