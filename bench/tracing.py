"""Per-layer tracing, installed from outside the program.

The tracer replaces each public function of the six frobqec layers at
every module attribute that binds it (``frobqec.cli.group_closure`` and
``frobqec.weyl.group_closure`` alike, and function tables such as the
CLI command map), so calls between layers and inside a layer are both
caught.  Spans are kept in memory as ``[name, start, end, parent, task]``
rows and counts in a Counter; nothing is written until the run ends.

A span's self time is its duration minus the time its child spans
cover.  A layer's ``self_s`` is the self time of all its spans; a named
``<layer>.<group>_s`` metric is the inclusive time of the outermost
spans of that group, so nested calls are not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("rings", "spaces", "weyl", "analysis", "oracle", "cli")

# Leaf functions called so often that a span each would cost more than
# the work they do, and close_under_addition, the additive closure that
# rings and spaces both build on: they are counted only, and their time
# stays in the self time of the span that called them.
COUNT_ONLY = {
    "rings.close_under_addition",
    "rings.ring_pairing", "rings.turn_sort_key", "rings.family_size",
    "rings.element_to_doc", "rings.element_from_doc",
    "spaces.form_eval", "spaces.phase_pairing", "spaces.identity_form",
    "spaces.ambient_bound",
    "weyl.weyl_mul", "weyl.weyl_inv", "weyl.omega", "weyl.identity_element",
    "weyl.join_label", "weyl.split_label", "weyl.weyl_element",
    "analysis.apply_matrix", "analysis.apply_matrix_blockwise",
    "oracle.turn_phase",
}

# Turn arithmetic, counted as rings.turn_ops.
TURN_METHODS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "root")

# Timed groups: metric prefix -> the spans it covers.
SPAN_GROUPS = {
    "rings.build": {"rings.make_zm", "rings.make_chain_ring", "rings.make_product"},
    "rings.ideal": {"rings.ideal_span", "rings.nilradical", "rings.nilpotency_index"},
    "spaces.span": {"spaces.submodule_span", "spaces.additive_module"},
    "spaces.enumerate": {"spaces.enumerate_submodules"},
    "spaces.orthogonal": {"spaces.orthogonal"},
    "spaces.form_many": {"spaces.form_many"},
    "spaces.make_space": {"spaces.make_space"},
    "weyl.closure": {"weyl.group_closure"},
    "weyl.phase_fix": {"weyl.phase_fix"},
    "weyl.isotropy": {"weyl.is_isotropic"},
    "analysis.census": {"analysis.submodule_census"},
    "analysis.css": {"analysis.css_verdict"},
    "analysis.protection": {"analysis.check_nilpotent_protection"},
    "analysis.isometry": {"analysis.isometry_group", "analysis.isometry_action"},
    "analysis.invariants": {"analysis.invariants"},
    "oracle.projector": {"oracle.projector_rank"},
    "oracle.commutation": {"oracle.numeric_commutation_check"},
    "cli.load": {"cli.load_scenario"},
}

# Count metrics: name -> the call counters summed into it.
CALL_GROUPS = {
    "rings.build.calls": ("rings.make_zm", "rings.make_chain_ring", "rings.make_product"),
    "rings.turn_ops": tuple(f"rings.Turn.{m}" for m in TURN_METHODS),
    "spaces.span.calls": ("spaces.submodule_span", "spaces.additive_module"),
    "spaces.pairing.calls": ("spaces.phase_pairing", "spaces.form_eval"),
    "weyl.mul.calls": ("weyl.weyl_mul",),
}


# Counts read off arguments and results: (counter, function) -> amount.
def _group_order(args, result):
    return len(result)


def _census_submodules(args, result):
    return result.submodules


def _matrix_entries(args, result):
    space, group = args[0], args[1]
    return space.size * space.size * len(group)


RESULT_COUNTS = {
    "weyl.group_closure": ("weyl.group_order", _group_order),
    "analysis.submodule_census": ("analysis.census.submodules", _census_submodules),
    "oracle.projector_rank": ("oracle.matrix_entries", _matrix_entries),
}

PER_LAYER_METRICS = (
    [f"{layer}.self_s" for layer in LAYERS]
    + [f"{group}_s" for group in SPAN_GROUPS]
    + list(CALL_GROUPS)
    + [counter for counter, _ in RESULT_COUNTS.values()]
)


class Tracer:
    """Spans and counts for one process; install() patches, uninstall()
    puts every original back."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.task = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        extra = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            row = [name, clock(), 0.0, stack[-1] if stack else -1, self.task]
            spans.append(row)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                row[2] = clock()
            counts[name] += 1
            if extra is not None:
                counts[extra[0]] += extra[1](args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        package = sys.modules["frobqec"]
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                make = self._counter if name in COUNT_ONLY else self._span
                wrapped[id(fn)] = (fn, make(name, fn))

        for mod_name, module in list(sys.modules.items()):
            if mod_name != "frobqec" and not mod_name.startswith("frobqec."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((setattr, module, attr, value))
                    setattr(module, attr, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = wrapped.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._undo.append((dict.__setitem__, value, key, item))
                            value[key] = hit[1]

        turn = sys.modules[f"{package.__name__}.rings"].Turn
        for method in TURN_METHODS:
            original = turn.__dict__[method]
            self._undo.append((setattr, turn, method, original))
            setattr(turn, method, self._counter(f"rings.Turn.{method}", original))

    def uninstall(self) -> None:
        while self._undo:
            put, target, key, value = self._undo.pop()
            put(target, key, value)


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Spans are appended on entry, so a parent always precedes its
    children; calls in one thread never overlap, so the children's
    durations add up to the time they cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _task in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(row[2] - row[1]) - c for row, c in zip(spans, covered)]


def group_times(spans, groups: dict[str, set]) -> dict[str, float]:
    """Inclusive time of the outermost spans of each group."""
    bit = {}
    for i, names in enumerate(groups.values()):
        for name in names:
            bit[name] = 1 << i
    above = [0] * len(spans)  # groups open in some strict ancestor
    totals = [0.0] * len(groups)
    for index, (name, start, end, parent, _task) in enumerate(spans):
        if parent >= 0:
            above[index] = above[parent] | bit.get(spans[parent][0], 0)
        mine = bit.get(name, 0)
        if mine and not above[index] & mine:
            totals[mine.bit_length() - 1] += end - start
    return dict(zip(groups, totals))


def layer_metrics(spans, counts) -> dict[str, float]:
    """Every per-layer metric from one traced pass."""
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for row, own in zip(spans, self_times(spans)):
        out[f"{row[0].split('.', 1)[0]}.self_s"] += own
    for group, total in group_times(spans, SPAN_GROUPS).items():
        out[f"{group}_s"] = total
    for metric, names in CALL_GROUPS.items():
        out[metric] = sum(counts.get(n, 0) for n in names)
    for counter, _ in RESULT_COUNTS.values():
        out[counter] = counts.get(counter, 0)
    return {name: out[name] for name in PER_LAYER_METRICS}
