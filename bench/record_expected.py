"""Record the expected-results file the checks compare against.

    PYTHONPATH=src python3 bench/record_expected.py 0 31

Runs every task of every workload for the seeds FIRST..LAST once,
keeps only tasks that pass the seed-independent identities, and writes
bench/expected.json: task key -> digest of the exit code and the
report's verdict keys (see checks.SUMMARY_KEYS).  Rerun it only when the
generator changes; a program change must keep the recorded answers.
"""

import json
import os
import sys
import tempfile

from checks import EXPECTED_PATH, Checker, summary_digest, task_key
from speed import Probe
from worker import run_task
from workloads import WORKLOADS, write_tasks


def record(seeds) -> dict[str, str]:
    recorded: dict[str, str] = {}
    probe = Probe(during=False)
    with tempfile.TemporaryDirectory(dir=os.getcwd(), prefix=".bench_record_") as scratch:
        for seed in seeds:
            for workload in WORKLOADS:
                checker = Checker({})
                tasks = write_tasks(workload, seed, os.path.join(scratch, f"{workload}{seed}"))
                for task in tasks:
                    key = task_key(task)
                    if key in recorded and task["command"] != "stabiliser":
                        continue
                    _, _, code, stdout, error = run_task(task, probe)
                    problem = checker.check(task, code, stdout, error)
                    if problem is not None:
                        raise SystemExit(f"{workload} seed {seed} {task['name']}: {problem}")
                    recorded[key] = summary_digest(task["command"], code, json.loads(stdout))
            print(f"seed {seed}: {len(recorded)} tasks recorded", flush=True)
    return recorded


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    tasks = record(range(first, last + 1))
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"seeds": [first, last], "tasks": tasks}, handle, sort_keys=True, indent=0)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
