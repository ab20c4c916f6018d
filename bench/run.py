"""Benchmark entry point: run one workload, or all of them, end to end.

    python3 bench/run.py --workload stabiliser --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the program is imported from
``src/``.  The seed makes the scenario documents (bench/workloads.py);
each run then starts fresh interpreters with one thread for numeric
libraries: a few that only import ``frobqec.cli``, for setup time, and
one worker that runs the task list (bench/worker.py).  Times are scaled to a reference machine
speed by a fixed kernel timed around every sample (bench/speed.py), so
that the host's changing speed does not read as a change of the
program; the result file keeps the raw times too.  ``--trace 1``
runs an untraced, a traced and another untraced pass over the task
list, each in its own worker, and reports per-layer metrics instead of
end-to-end ones.

The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a full result file with
machine info goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from speed import kernel_time, scale  # noqa: E402
from tracing import PER_LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, workload_params, write_tasks  # noqa: E402

SETUP_PROBES = 15
TAIL_BEYOND = 10
RUN_DEADLINE_S = 170.0
WORK_DIR = ".bench_work"
_PROBE = "import time, frobqec.cli; print(time.clock_gettime(time.CLOCK_MONOTONIC))"

END_TO_END_UNITS = {
    "wall_s": "s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed task)."""


def tail_percentile(values, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns the value, its percentile and the sample count: the value of
    rank n - beyond (1-based) in sorted order, which is percentile
    100 * (n - beyond) / n."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        raise BenchError(f"{n} samples leave no percentile with {beyond} beyond it")
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, n


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def machine_info(root: str) -> dict:
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(root),
    }


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as handle:
                head = handle.read().strip()
        return head
    except OSError:
        return "unknown"


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run deadline passed")
    return left


def setup_samples(env: dict, deadline: float) -> tuple[list[float], list[float]]:
    """Time from spawning a fresh interpreter to frobqec.cli imported:
    the samples scaled to the reference machine, and as measured."""
    scaled, raw = [], []
    before = kernel_time()
    for _ in range(SETUP_PROBES):
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                              text=True, timeout=_remaining(deadline))
        if proc.returncode != 0:
            raise BenchError(f"importing frobqec.cli failed:\n{proc.stderr.strip()}")
        raw.append(float(proc.stdout.strip()) - spawned)
        after = kernel_time()
        scaled.append(scale(raw[-1], [before, after]))
        before = after
    return scaled, raw


def run_worker(work: str, seconds: float, mode: str, env: dict, deadline: float) -> dict:
    out_path = os.path.join(work, f"worker-{mode}.json")
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    argv = [sys.executable, worker, os.path.join(work, "tasks.json"), str(seconds),
            mode, out_path]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=_remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


def task_medians(result: dict, key: str = "latencies") -> list[float]:
    return [statistics.median(lat) for lat in result[key]]


def end_to_end(result: dict, setups: list[float], key: str = "latencies") -> tuple[dict, dict]:
    """wall_s is the time to run the whole task list once with every
    task at its median latency; the tail is taken over tasks.  ``key``
    picks the scaled latencies or the raw ones."""
    per_task = task_medians(result, key)
    tail, pct, count = tail_percentile(per_task)
    metrics = {
        "wall_s": sum(per_task),
        "task_p50_s": statistics.median(per_task),
        "task_tail_s": tail,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    return metrics, {"tail_percentile": pct, "tail_samples": count}


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: returns the full result document."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not os.path.isfile(os.path.join(root, "src", "frobqec", "cli.py")):
        raise BenchError(f"no program to measure: {root}/src/frobqec is missing")
    work = os.path.join(root, WORK_DIR, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(work, ignore_errors=True)
    tasks = write_tasks(workload, seed, os.path.join(work, "scenarios"))
    with open(os.path.join(work, "tasks.json"), "w", encoding="utf-8") as handle:
        json.dump(tasks, handle)

    env = child_env(root)
    setups, raw_setups = setup_samples(env, deadline)
    doc = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "params": workload_params(workload),
        "tasks": len(tasks), "machine": machine_info(root),
        "setup_samples": setups, "raw_setup_samples": raw_setups,
    }
    if trace:
        # Untraced passes before and after the traced one, so a change of
        # machine speed during the run does not read as tracing overhead.
        before = run_worker(work, seconds, "once", env, deadline)
        traced = run_worker(work, seconds, "traced", env, deadline)
        after = run_worker(work, seconds, "once", env, deadline)
        plain_wall = (sum(task_medians(before)) + sum(task_medians(after))) / 2
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = sum(task_medians(traced)) / plain_wall - 1
        runs = (before, traced, after)
        doc["counts"] = traced["counts"]
    else:
        result = run_worker(work, seconds, "timed", env, deadline)
        metrics, doc["tail"] = end_to_end(result, setups)
        doc["raw_metrics"], _ = end_to_end(result, raw_setups, "raw_latencies")
        doc["kernel_s"] = statistics.median(result["kernel_times"])
        runs = (result,)
        doc["passes"] = result["pass_times"]
        doc["task_medians"] = {
            f"{t['name']}:{t['command']}": median
            for t, median in zip(tasks, task_medians(result))
        }
    doc["attempted"] = sum(r["attempted"] for r in runs)
    doc["failed"] = sum(len(r["failures"]) for r in runs)
    doc["failed_frac"] = doc["failed"] / doc["attempted"]
    doc["failures"] = [f for r in runs for f in r["failures"]][:50]
    doc["metrics"] = metrics

    results = os.path.join(root, WORK_DIR, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload}-seed{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
    shutil.rmtree(os.path.join(work, "scenarios"), ignore_errors=True)
    return doc


def units(trace: int) -> dict[str, str]:
    if not trace:
        return END_TO_END_UNITS
    return {name: _layer_unit(name) for name in PER_LAYER_METRICS + ["trace.overhead_frac"]}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def report_lines(doc: dict) -> list[str]:
    lines = [
        f"workload {doc['workload']} seed {doc['seed']} trace {doc['trace']}: "
        f"{doc['attempted']} tasks attempted, {doc['failed']} failed "
        f"(failed_frac {doc['failed_frac']:g})"
    ]
    for failure in doc["failures"][:5]:
        lines.append(f"  FAILED {failure['task']} {failure['command']}: {failure['problem']}")
    unit_of = units(doc["trace"])
    for name, value in doc["metrics"].items():
        note = ""
        if name == "task_tail_s":
            note = (f"  (p{doc['tail']['tail_percentile']:.1f} of "
                    f"{doc['tail']['tail_samples']} tasks)")
        lines.append(f"  {name:28s} {value:.6g} {unit_of[name]}{note}")
    return lines


def result_line(doc: dict) -> str:
    unit_of = units(doc["trace"])
    return json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in doc["metrics"].items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    docs = []
    try:
        for name in names:
            doc = run_workload(root, name, args.seed, args.seconds, args.trace)
            print("\n".join(report_lines(doc)), flush=True)
            docs.append(doc)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(result_line(docs[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
