"""One benchmark run in a fresh interpreter.

Usage (from run.py, with PYTHONPATH pointing at the checkout's src):

    python3 bench/worker.py TASKS.json SECONDS MODE OUT.json

The task list runs in a closed loop, one task at a time, calling
frobqec.cli.main in-process, with the reference kernel of bench/speed.py
timed around every task.  MODE is ``timed`` (pass after pass while the
next one fits in SECONDS, see run), ``once`` (a single pass) or
``traced`` (a single pass with the layer tracer on).
"""

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time

from frobqec import cli

from checks import Checker, load_expected
from speed import Probe, scale
from tracing import Tracer, layer_metrics

# A task is run again in later passes until it has MIN_SAMPLES samples
# and they add up to SAMPLE_BUDGET_S seconds, while its next sample
# still fits in the run: a long sample already spans many scheduler
# periods, while a short task needs samples spread over the run for a
# steady median.
SAMPLE_BUDGET_S = 1.0
MIN_SAMPLES = 3
MODES = ("timed", "once", "traced")


def run_task(task: dict, probe: Probe) -> tuple[float, list[float], object, str, str | None]:
    """Call the CLI once; return latency, the kernel times that scale
    it, exit code, stdout and the escaping exception, if any."""
    argv = [task["command"], "--scenario", task["path"], "--json", *task["args"]]
    out, err = io.StringIO(), io.StringIO()
    error = None
    probe.start()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a task must never stop the run
        code, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        probe.disarm()
    latency = time.perf_counter() - start - probe.spent
    return latency, probe.finish(), code, out.getvalue(), error


def run(tasks: list[dict], seconds: float, once: bool, tracer: Tracer | None = None) -> dict:
    """Passes over the task list, each task once per pass.

    The first pass runs every task.  Unless ``once``, each further pass
    runs the tasks that want more samples (see MIN_SAMPLES), cheapest
    first for as long as their last samples still fit in ``seconds``,
    until none is left.  ``latencies`` are scaled to the reference
    machine by the kernel times around each sample and, unless ``once``,
    during it (bench/speed.py), so that the untraced passes around a
    traced one are scaled like it; ``raw_latencies`` are as measured."""
    checker = Checker(load_expected())
    latencies = [[] for _ in tasks]
    raw = [[] for _ in tasks]
    probe = Probe(during=not once)
    kernel_times = [probe.last]
    pass_times: list[float] = []
    failures: list[dict] = []
    attempted = 0
    todo = list(range(len(tasks)))
    start = time.perf_counter()
    while True:
        wall = 0.0
        for index in todo:
            task = tasks[index]
            if tracer is not None:
                tracer.task = index
            gc.collect()
            latency, around, code, stdout, error = run_task(task, probe)
            kernel_times += around[1:]
            wall += latency
            raw[index].append(latency)
            latencies[index].append(scale(latency, around))
            attempted += 1
            problem = checker.check(task, code, stdout, error)
            if problem is not None:
                failures.append({"task": task["name"], "command": task["command"],
                                 "pass": len(pass_times), "problem": problem})
        pass_times.append(wall)
        if once:
            break
        wanted = [i for i in range(len(tasks))
                  if len(raw[i]) < MIN_SAMPLES or sum(raw[i]) < SAMPLE_BUDGET_S]
        left = seconds - (time.perf_counter() - start)
        todo = []
        for i in sorted(wanted, key=lambda i: raw[i][-1]):
            # the probe takes about 3 kernel runs per sample and 4% within one
            cost = 1.04 * raw[i][-1] + 3 * kernel_times[-1]
            if cost > left:
                break
            left -= cost
            todo.append(i)
        if not todo:
            break
        todo.sort()
    return {
        "pass_times": pass_times,
        "latencies": latencies,
        "raw_latencies": raw,
        "kernel_times": kernel_times,
        "attempted": attempted,
        "failures": failures,
    }


def main(argv: list[str]) -> int:
    tasks_path, seconds, mode, out_path = argv
    with open(tasks_path, encoding="utf-8") as handle:
        tasks = json.load(handle)
    if mode not in MODES:
        raise SystemExit(f"mode must be one of {MODES}, got {mode!r}")
    tracer = Tracer() if mode == "traced" else None
    if tracer is not None:
        tracer.install()
    result = run(tasks, float(seconds), once=mode != "timed", tracer=tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer.spans, tracer.counts)
        spans_path = os.path.join(os.path.dirname(out_path), "spans.jsonl")
        with open(spans_path, "w", encoding="utf-8") as handle:
            for row in tracer.spans:
                handle.write(json.dumps(row) + "\n")
        result["counts"] = dict(tracer.counts)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
