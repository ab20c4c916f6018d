"""Self-tests of the benchmark: generator, metric arithmetic, tracer,
and a smoke run of the worker.  Run with ``python3 -m pytest bench/tests``."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import checks
import run
import speed
import tracing
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first = workloads.write_tasks(workload, 7, str(tmp_path / "a"))
    second = workloads.write_tasks(workload, 7, str(tmp_path / "b"))
    assert [t["doc"] for t in first] == [t["doc"] for t in second]
    for a, b in zip(first, second):
        with open(a["path"], encoding="utf-8") as fa, open(b["path"], encoding="utf-8") as fb:
            assert fa.read() == fb.read()
    other = workloads.build_tasks(workload, 8)
    if workload != "census":  # census spaces repeat; its caps and forms may too
        assert [t["doc"] for t in other] != [t["doc"] for t in first]


def test_task_lists_keep_their_shape_across_seeds():
    for workload in workloads.WORKLOADS:
        shapes = {
            tuple((t["name"], t["command"]) for t in workloads.build_tasks(workload, seed))
            for seed in range(3)
        }
        assert len(shapes) == 1


def test_group_order_model_on_worked_examples():
    z4 = workloads.Ring(workloads.zm(4))
    form = workloads.identity_form(z4, 1)
    zero = Fraction(0)
    # Shift and phase of Z_4 generate all 16 labels and the quarter turns.
    assert workloads.group_order(z4, form, 1, [(zero, (1,), (0,)), (zero, (0,), (1,))]) == 64
    c22 = workloads.Ring(workloads.chain(2, 2))
    form = workloads.identity_form(c22, 2)
    one, u, o = (1, 0), (0, 1), (0, 0)
    mixed = [(zero, (one, o), (u, o)), (zero, (o, one), (o, u))]
    # The README's chain(2,2) example: four labels and the scalars 0, 1/2.
    assert workloads.group_order(c22, form, 2, mixed) == 8
    assert workloads.group_order(c22, form, 2, mixed, bound=7) is None


def test_perfect_forms_have_unit_determinant():
    ring = workloads.Ring(workloads.zm(4))
    forms = workloads.perfect_forms(ring, 2)
    assert ((1, 0), (0, 1)) in forms and ((0, 1), (1, 0)) in forms
    assert ((2, 0), (0, 1)) not in forms


def test_nilpotency_closed_forms():
    assert workloads.Ring(workloads.zm(4096)).nilpotency_index() == 12
    assert workloads.Ring(workloads.chain(4, 6)).nilpotency_index() == 7
    assert workloads.Ring(workloads.zm(1155)).nilpotency_index() == 1


# -- metric arithmetic -------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct, count = run.tail_percentile(list(range(1, 101)))
    assert (value, pct, count) == (90, 90.0, 100)
    value, pct, count = run.tail_percentile([5.0] * 10 + [1.0] * 10)
    assert (value, pct, count) == (1.0, 50.0, 20)
    with pytest.raises(run.BenchError):
        run.tail_percentile(list(range(10)))


def test_scale_divides_by_the_mean_kernel_time():
    ref = speed.REFERENCE_S
    assert speed.scale(0.5, [ref, ref]) == pytest.approx(0.5)
    # A host half as fast: the kernel takes twice as long, the sample counts half.
    assert speed.scale(1.0, [2 * ref, 2 * ref, 2 * ref]) == pytest.approx(0.5)
    assert speed.scale(1.0, [ref, 3 * ref]) == pytest.approx(0.5)


def test_probe_times_the_kernel_during_a_long_sample():
    probe = speed.Probe()
    probe.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 3 * speed.PROBE_EVERY_S:
        pass
    probe.disarm()
    times = probe.finish()
    assert len(times) >= 4  # before, at least two ticks, after
    assert 0 < probe.spent < time.perf_counter() - start
    assert probe.last == times[-1]
    probe.start()  # the kernel time after one sample is the one before the next
    assert probe.times == [times[-1]]
    probe.disarm()


def _spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 6].
    return [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["weyl.group_closure", 1.0, 4.0, 0, 0],
        ["weyl.group_closure", 2.0, 3.0, 1, 0],
        ["oracle.projector_rank", 5.0, 6.0, 0, 0],
    ]


def test_self_time_subtracts_children():
    assert tracing.self_times(_spans()) == [6.0, 2.0, 1.0, 1.0]


def test_group_time_counts_nested_calls_once():
    times = tracing.group_times(_spans(), tracing.SPAN_GROUPS)
    assert times["weyl.closure"] == 3.0
    assert times["oracle.projector"] == 1.0
    assert times["rings.build"] == 0.0


def test_layer_metrics_sum_self_time_per_layer():
    metrics = tracing.layer_metrics(_spans(), {"weyl.weyl_mul": 8})
    assert set(metrics) == set(tracing.PER_LAYER_METRICS)
    assert metrics["cli.self_s"] == 6.0
    assert metrics["weyl.self_s"] == 3.0
    assert metrics["weyl.mul.calls"] == 8


# -- tracer on the real package ---------------------------------------------


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    from frobqec import cli, weyl

    original = weyl.group_closure
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({
        "ring": {"family": "zm", "m": 4},
        "space": {"k": 1, "n": 1},
        "stabiliser": {"generators": [{"a": [2], "b": [0]}]},
    }))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.group_closure is weyl.group_closure is not original
        tracer.task = 0
        with open(os.devnull, "w") as sink:
            saved, sys.stdout = sys.stdout, sink
            try:
                assert cli.main(["stabiliser", "--scenario", str(scenario), "--json"]) == 0
            finally:
                sys.stdout = saved
    finally:
        tracer.uninstall()
    assert cli.group_closure is original and weyl.group_closure is original
    names = [row[0] for row in tracer.spans]
    assert "cli.cmd_stabiliser" in names and "weyl.group_closure" in names
    closure = names.index("weyl.group_closure")
    assert tracer.spans[tracer.spans[closure][3]][0] == "cli.cmd_stabiliser"
    assert tracer.counts["weyl.weyl_mul"] > 0
    assert tracer.counts["weyl.group_order"] == 2


# -- checks ------------------------------------------------------------------


def test_checker_flags_bad_outputs():
    task = {"name": "c00", "command": "census", "args": ["--max-elems", "4"],
            "doc": {}, "expect": {}}
    good = json.dumps({"submodules": 5, "isotropic": 4, "css": 3,
                       "non_css_with_witness": 1, "max_elems": 4})
    checker = checks.Checker({})
    assert checker.check(task, 0, good, None) is None
    assert checker.check(task, 7, good, None).startswith("undocumented")
    assert checker.check(task, 0, "not json", None) == "output is not valid JSON"
    assert checker.check(task, None, "", "ValueError: boom").startswith("escaping")
    nested = good.replace('"css": 3', '"css": 5')
    assert checker.check(task, 0, nested, None) == "census counts are not nested"
    recorded = checks.Checker({checks.task_key(task): "0" * 16})
    assert recorded.check(task, 0, good, None).startswith("report differs")


# -- smoke runs --------------------------------------------------------------


def _small_tasks(tmp_path):
    tasks = workloads.build_tasks("census", 1)[1:9] + workloads.build_tasks("stabiliser", 1)[:4]
    tasks += workloads.build_tasks("large_tables", 1)[5:8]
    for i, task in enumerate(tasks):
        task["name"] = f"t{i:02d}"
        path = tmp_path / f"{task['name']}.json"
        path.write_text(json.dumps(task["doc"]))
        task["path"] = str(path)
    for first, second in zip(tasks, tasks[1:]):
        if first["command"] == "stabiliser" and second["command"] == "oracle":
            second["name"] = first["name"]
    (tmp_path / "tasks.json").write_text(json.dumps(tasks))
    return tasks


@pytest.mark.parametrize("mode", ["timed", "traced"])
def test_worker_smoke_run(tmp_path, mode):
    tasks = _small_tasks(tmp_path)
    env = run.child_env(ROOT)
    out = tmp_path / "result.json"
    subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), str(tmp_path / "tasks.json"),
                    "0.1", mode, str(out)], env=env, check=True, timeout=120)
    result = json.loads(out.read_text())
    assert result["failures"] == []
    assert len(result["latencies"]) == len(tasks)
    metrics, tail = run.end_to_end(result, [0.2])
    assert metrics["wall_s"] > 0 and tail["tail_samples"] == len(tasks)
    if mode == "traced":
        assert set(result["layers"]) == set(tracing.PER_LAYER_METRICS)
        assert (tmp_path / "spans.jsonl").exists()


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
