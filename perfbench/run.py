"""cohgen benchmark.

    python3 perfbench/run.py --workload capacity_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  Workloads (see BENCHMARK.json for
why each exists): capacity_sweep, orbit_scan, verify_suite.

--trace 0 measures the end-to-end metrics; --trace 1 measures the per-layer
metrics in a separate, traced run.  Every request's output is checked.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is a JSON report with the
machine, the code, the inputs and the figures behind the metrics.  A
readable table of the metrics goes to stderr.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("capacity_sweep", "orbit_scan", "verify_suite")
SETUP_REPEATS = 4      # before the worker, and again after it
TAIL_BEYOND = 10       # samples that must lie beyond the reported tail percentile
RUN_DEADLINE_S = 170   # the whole run, set-up included
BLAS_THREADS = "1"

END_TO_END = {          # name -> unit
    "setup_s": "s",
    "req_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "capacity_quality": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def measure_setup(env: dict, warm: bool) -> list:
    """Wall times of fresh interpreters through ``import cohgen.cli``."""
    argv = [sys.executable, "-c", "import cohgen.cli"]
    if not warm:
        subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60)   # fills __pycache__
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return times


def tail(latencies: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond it.

    Below 2*TAIL_BEYOND samples no percentile at or above the median has that
    many beyond it, and the maximum is reported as percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def source_digest() -> str:
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_worker(job: dict, workdir: str, env: dict, timeout: float) -> dict:
    job_path = os.path.join(workdir, "job.json")
    result_path = os.path.join(workdir, "result.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path, result_path],
                   env=env, cwd=ROOT, check=True, timeout=timeout)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(result: dict, setup_times: list) -> tuple:
    latencies = result["latencies"]
    tail_value, tail_pct = tail(latencies)
    values = {
        "setup_s": statistics.median(setup_times),
        "req_per_s": len(latencies) / result["busy_s"],
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "peak_rss_mb": result["peak_rss_mb"],
        "capacity_quality": statistics.fmean(q for q, _ in result["quality"]),
    }
    by_class = {}
    for label, seconds in zip(result["labels"], latencies):
        by_class.setdefault(label, []).append(seconds)
    details = {
        "latency_samples": len(latencies),
        "latency_tail_percentile": tail_pct,
        "groups": result["groups"],
        "busy_s": result["busy_s"],
        "setup_samples_s": setup_times,
        "capacity_quality_samples": len(result["quality"]),
        "capacity_quality_holder": statistics.fmean(q for _, q in result["quality"]),
        "latency_p50_by_class_s": {k: statistics.median(v) for k, v in sorted(by_class.items())},
        "requests_by_class": {k: len(v) for k, v in sorted(by_class.items())},
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cohgen", "cli.py")):
        print(f"error: no cohgen sources under {SRC}; run from a cohgen checkout",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    env = child_env()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setup_times = measure_setup(env, warm=False)
        job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "workdir": workdir}
        budget = RUN_DEADLINE_S - (time.monotonic() - started)
        result = run_worker(job, workdir, env, budget)
        setup_times += measure_setup(env, warm=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = result["per_layer"]
        details = {k: result[k] for k in ("passes", "untraced_s", "traced_s", "requests_per_pass")}
    else:
        metrics, details = end_to_end(result, setup_times)
    tried, missed = result["mutants"]
    attempted, failed = result["attempted"], result["failed"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "python": result["python"],
            "numpy": result["numpy"],
            "blas": result["blas"],
            "blas_threads": int(BLAS_THREADS),
        },
        "inputs": result["inputs"],
        "failed_frac": failed / attempted if attempted else 1.0,
        "failure_notes": result["failure_notes"],
        "mutants_tried": tried,
        "mutants_missed": missed,
        **details,
    }
    print(json.dumps({"report": report}))
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    print(f"{'failed_frac':48s} {report['failed_frac']:>16.6g} frac "
          f"({failed} of {attempted} requests)", file=sys.stderr)
    correct = attempted > 0 and failed == 0 and tried > 0 and missed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
