"""Command line front end: scenario documents in, verdict reports out.

One JSON scenario drives every command.  It names a ring family, a
space (k, n, optional form matrix), and optionally a code, a stabiliser
generator list, and an ideal; each command picks the parts it needs.
Turns are serialised as "num/den" strings and ring elements in the
family notation (integers for zm, coefficient lists for chain rings,
pairs for products).

Exit codes: 0 for an affirmative verdict, 1 for a definite negative
one, 2 for invalid input (an argv error also prints a usage line), 3 for
a resource bound, 4 when the numeric oracle cannot decide (a pivot in
the rank routine's dead band), 5 for an internal consistency failure.
Every command but examples reads --scenario; --max-elems is for census
only.  Reports are plain text by default and stable JSON under --json.

One writer, ``_json_text``, prints every JSON report.  Its text is
byte-identical to ``json.dumps(report, sort_keys=True, indent=2)``, which
the indent keeps on the stdlib's pure-Python encoder; strings go through
the C ``encode_basestring_ascii``.  The ring report's two per-element
lists, ``character`` and ``nilradical``, are rows (``_Rows``): the
family's element layout from ``rings.element_rows`` becomes one format
template, filled from one digits array, with the character turns reduced
by one ``np.gcd``.  Text mode builds only the 16 entries it shows.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii

import numpy as np

from .analysis import (
    check_nilpotent_protection,
    css_verdict,
    invariants,
    isometry_group,
    submodule_census,
)
from .errors import ConsistencyError, DiagnosticError, InvalidInputError, ResourceLimitError
from .oracle import numeric_commutation_check, projector_rank
from .rings import (
    Ideal,
    RingSpec,
    Turn,
    element_rows,
    ideal_span,
    make_chain_ring,
    make_product,
    make_zm,
    nilpotency_index,
    nilradical,
    verify_generating_character,
)
from .spaces import (
    PhaseSpace,
    Submodule,
    _check_carrier,
    identity_form,
    is_self_orthogonal,
    make_space,
    orthogonal,
    pairing_turn_numerators,
    phase_pairing,
    submodule_span,
)
from .weyl import (
    WeylElement,
    code_dimension,
    group_closure,
    is_abelian_mod_scalars,
    label_module_of,
    offending_pair,
    omega,
    phase_fix,
    weyl_element,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3
EXIT_UNDECIDED = 4
EXIT_INTERNAL = 5

DEFAULT_CENSUS_CAP = 64


# ---------------------------------------------------------------------------
# scenario documents

def ring_from_doc(doc) -> RingSpec:
    """Build a ring from its family document."""
    if not isinstance(doc, dict):
        raise InvalidInputError(f"ring document must be an object, got {doc!r}")
    kind = doc.get("family")
    if kind == "zm":
        _expect_keys(doc, {"family", "m"}, "zm ring")
        return make_zm(_expect_int(doc, "m"))
    if kind == "chain":
        _expect_keys(doc, {"family", "m", "e"}, "chain ring")
        return make_chain_ring(_expect_int(doc, "m"), _expect_int(doc, "e"))
    if kind == "product":
        _expect_keys(doc, {"family", "factors"}, "product ring")
        factors = doc["factors"]
        if not isinstance(factors, list) or len(factors) != 2:
            raise InvalidInputError("product ring needs exactly two factors")
        return make_product(ring_from_doc(factors[0]), ring_from_doc(factors[1]))
    raise InvalidInputError(f"unknown ring family {kind!r}")


def _expect_keys(doc: dict, allowed: set, context: str, required: set | None = None) -> None:
    extra = set(doc) - allowed
    if extra:
        raise InvalidInputError(f"unexpected keys {sorted(extra)} in {context}")
    missing = (required if required is not None else allowed) - set(doc)
    if missing:
        raise InvalidInputError(f"missing keys {sorted(missing)} in {context}")


def _expect_int(doc: dict, key: str) -> int:
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidInputError(f"{key} must be an integer, got {value!r}")
    return value


class Scenario:
    """A parsed scenario document.

    The ring is built immediately; the space and everything hanging off
    it are built on first use, so commands that never touch the carrier
    (the ring report, mainly) work regardless of its size.
    """

    def __init__(self, ring: RingSpec, space_doc, code_doc, stabiliser_doc, ideal_doc):
        self.ring = ring
        self._space_doc = space_doc
        self._code_doc = code_doc
        self._stabiliser_doc = stabiliser_doc
        self._ideal_doc = ideal_doc

    @cached_property
    def space(self) -> PhaseSpace:
        if self._space_doc is None:
            raise InvalidInputError("scenario has no space document")
        doc = self._space_doc
        k = _expect_int(doc, "k")
        n = _expect_int(doc, "n")
        _check_carrier(self.ring, k, n)
        if "form" in doc:
            form = tuple(
                tuple(self.ring.element_from_doc(x) for x in row) for row in doc["form"]
            )
        else:
            form = identity_form(self.ring, k)
        return make_space(self.ring, k, n, form)

    def vector(self, doc, *, doubled: bool = False):
        width = 2 * self.space.rank if doubled else self.space.rank
        if not isinstance(doc, list) or len(doc) != width:
            raise InvalidInputError(f"vector must be a list of {width} elements, got {doc!r}")
        return tuple(self.ring.element_from_doc(x) for x in doc)

    def require_code(self) -> Submodule:
        if self._code_doc is None:
            raise InvalidInputError("scenario has no code document")
        gens = [self.vector(g) for g in self._code_doc["generators"]]
        return submodule_span(self.space, gens)

    def require_stabiliser_generators(self) -> list[WeylElement]:
        if self._stabiliser_doc is None:
            raise InvalidInputError("scenario has no stabiliser document")
        out = []
        for g in self._stabiliser_doc["generators"]:
            turn = Turn.parse(g.get("turn", "0"))
            out.append(
                weyl_element(self.space, turn, self.vector(g["a"]), self.vector(g["b"]))
            )
        return out

    def require_ideal(self) -> Ideal:
        if self._ideal_doc is None:
            raise InvalidInputError("scenario has no ideal document")
        gens = [self.ring.element_from_doc(x) for x in self._ideal_doc["generators"]]
        return ideal_span(self.ring, gens)


def scenario_from_doc(doc) -> Scenario:
    if not isinstance(doc, dict):
        raise InvalidInputError("scenario must be a JSON object")
    _expect_keys(
        doc,
        {"ring", "space", "code", "stabiliser", "ideal"},
        "scenario",
        required={"ring"},
    )
    ring = ring_from_doc(doc["ring"])

    space_doc = doc.get("space")
    if space_doc is not None:
        if not isinstance(space_doc, dict):
            raise InvalidInputError("space document must be an object")
        _expect_keys(space_doc, {"k", "n", "form"}, "space document", required={"k", "n"})
        rows = space_doc.get("form", [])
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise InvalidInputError("form must be a list of rows")

    for name in ("code", "ideal"):
        part = doc.get(name)
        if part is not None:
            if not isinstance(part, dict):
                raise InvalidInputError(f"{name} document must be an object")
            _expect_keys(part, {"generators"}, f"{name} document")
            if not isinstance(part["generators"], list):
                raise InvalidInputError(f"{name} generators must be a list")

    stab = doc.get("stabiliser")
    if stab is not None:
        if not isinstance(stab, dict):
            raise InvalidInputError("stabiliser document must be an object")
        _expect_keys(stab, {"generators"}, "stabiliser document")
        if not isinstance(stab["generators"], list):
            raise InvalidInputError("stabiliser generators must be a list")
        for g in stab["generators"]:
            if not isinstance(g, dict):
                raise InvalidInputError("stabiliser generators must be objects")
            _expect_keys(g, {"turn", "a", "b"}, "stabiliser generator", required={"a", "b"})

    return Scenario(ring, space_doc, doc.get("code"), stab, doc.get("ideal"))


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InvalidInputError(f"cannot read scenario {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON, or an integer too long to parse
        raise InvalidInputError(f"scenario {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InvalidInputError(f"scenario {path} is nested too deeply") from exc
    return scenario_from_doc(doc)


# ---------------------------------------------------------------------------
# report helpers

@dataclass(frozen=True)
class _Rows:
    """A long list whose items share one ``layout``: the JSON shape of an
    item with a format field text at each leaf (``rings.element_rows``),
    filled, item by item, with the rows of the integer array ``fields``."""

    layout: object
    fields: np.ndarray


def _json_text(value, pad: str = "") -> str:
    """The text of ``json.dumps(value, sort_keys=True, indent=2)``, byte
    for byte, on what reports hold: dicts with str keys, lists, tuples,
    str, int, bool and None, each line after the first indented by ``pad``
    more.  ``_Rows`` render as the list of their items, all through one
    format template.  Anything else raises TypeError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("report keys must be str")
        items = [f"{encode_basestring_ascii(key)}: {_json_text(item, inner)}"
                 for key, item in sorted(value.items())]
        return _block(items, inner, pad, "{}")
    if isinstance(value, (list, tuple)):
        return _block([_json_text(item, inner) for item in value], inner, pad, "[]")
    if isinstance(value, _Rows):
        template = _block([_template(value.layout, inner)] * len(value.fields), inner, pad, "[]")
        return template.format(*value.fields.ravel().tolist())
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _block(items: list[str], inner: str, pad: str, brackets: str) -> str:
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def _template(layout, pad: str) -> str:
    """The text of one item of this layout at this indent, as a format
    string: a leaf is its own format text, a list is laid out as
    ``_json_text`` lays one out."""
    if isinstance(layout, str):
        return layout
    inner = pad + "  "
    return _block([_template(item, inner) for item in layout], inner, pad, "[]")


def _vec_doc(ring: RingSpec, v) -> list:
    return [ring.element_to_doc(c) for c in v]


def _weyl_doc(ring: RingSpec, e: WeylElement) -> dict:
    return {"turn": str(e.turn), "a": _vec_doc(ring, e.shift), "b": _vec_doc(ring, e.phase)}


def _offending_doc(ring: RingSpec, group) -> dict | None:
    """The first generator pair that fails to commute mod scalars, or
    None for an abelian-mod-scalars group."""
    pair = offending_pair(group)
    if pair is None:
        return None
    g, h, value = pair
    return {"g": _weyl_doc(ring, g), "h": _weyl_doc(ring, h), "omega": str(value)}


def _witness_doc(space: PhaseSpace, pair) -> dict | None:
    if pair is None:
        return None
    a, b = pair
    return {
        "a": _vec_doc(space.ring, a),
        "b": _vec_doc(space.ring, b),
        "pairing": str(phase_pairing(space, b, a)),
    }


# ---------------------------------------------------------------------------
# commands

def cmd_ring(scenario: Scenario, args) -> tuple[int, dict, list[str]]:
    ring = scenario.ring
    nil = nilradical(ring)
    layout, fields = element_rows(ring, ring.elements())
    # Turn(n, d) reduces n/d by gcd(n, d); eps_num is already below eps_den.
    common = np.gcd(ring.eps_num, ring.eps_den)
    characters = np.column_stack([fields, ring.eps_num // common, ring.eps_den // common])
    report = {
        "size": ring.size,
        "family": ring.family,
        # Construction raises ConsistencyError on a character that does
        # not generate, so every ring that reaches here has one.
        "generating": True,
        "nilradical": _Rows(layout, fields[nil.indices]),
        "nilpotency_index": nilpotency_index(nil),
        "character": _Rows([layout, '"{}/{}"'], characters),
    }
    lines = [
        f"ring size: {ring.size}",
        "generating character: yes",
        f"nilradical size: {len(nil)}",
        f"nilpotency index: {report['nilpotency_index']}",
    ]
    for x in range(min(ring.size, 16)):
        lines.append(f"  character({ring.element_to_doc(x)!r}) = {ring.epsilon(x)}")
    if ring.size > 16:
        lines.append(f"  ... {ring.size - 16} more entries")
    return EXIT_OK, report, lines


def cmd_code(scenario: Scenario, args) -> tuple[int, dict, list[str]]:
    space = scenario.space
    code = scenario.require_code()
    perp = orthogonal(space, code)
    self_orth = is_self_orthogonal(space, code)
    product_ok = len(code) * len(perp) == space.size
    report = {
        "carrier_size": space.size,
        "code_size": len(code),
        "orthogonal_size": len(perp),
        "self_orthogonal": self_orth,
        "duality_product_matches": product_ok,
    }
    lines = [
        f"carrier size: {space.size}",
        f"code size: {len(code)}",
        f"orthogonal complement size: {len(perp)}",
        f"self-orthogonal: {'yes' if self_orth else 'no'}",
        f"|C| * |C_perp| = |H|: {'yes' if product_ok else 'no'}",
    ]
    return (EXIT_OK if self_orth else EXIT_NEGATIVE), report, lines


def cmd_stabiliser(scenario: Scenario, args) -> tuple[int, dict, list[str]]:
    space = scenario.space
    group = group_closure(space, scenario.require_stabiliser_generators())
    offending = _offending_doc(space.ring, group)
    report = {
        "order": len(group),
        "scalar_turns": [str(t) for t in group.scalar_turns],
        "abelian_mod_scalars": offending is None,
    }
    lines = [
        f"group order: {len(group)}",
        f"scalar turns: {', '.join(report['scalar_turns'])}",
    ]
    if offending is not None:
        report["offending"] = offending
        lines.append("abelian mod scalars: no")
        lines.append(
            f"offending pair: {offending['g']} vs {offending['h']}"
            f" with omega {offending['omega']}"
        )
        return EXIT_NEGATIVE, report, lines

    lines.append("abelian mod scalars: yes")
    # Omega vanishes on the generator labels, so by biadditivity on the
    # whole label module: it is isotropic, which css_verdict checks.
    labels = label_module_of(group)
    fixed = phase_fix(group)
    dimension = code_dimension(space, fixed)
    verdict = css_verdict(space, labels)
    report["label_module_size"] = len(labels)
    report["isotropic"] = True
    report["fixed_scalar_turns"] = [str(t) for t in fixed.scalar_turns]
    report["code_dimension"] = dimension
    report["css"] = {"status": verdict.status, "witness": _witness_doc(space, verdict.witness)}
    lines.append(f"label module size: {len(labels)}")
    lines.append("isotropic: yes")
    lines.append(f"scalar turns after phase fix: {', '.join(report['fixed_scalar_turns'])}")
    lines.append(f"code dimension: {dimension}")
    lines.append(f"css: {verdict.status}")
    if verdict.witness is not None:
        lines.append(f"non-css witness: {report['css']['witness']}")
    return EXIT_OK, report, lines


def cmd_protect(scenario: Scenario, args) -> tuple[int, dict, list[str]]:
    space = scenario.space
    ideal = scenario.require_ideal()
    outcome = check_nilpotent_protection(space, ideal)
    ring = space.ring

    def _event_doc(event):
        if event is None:
            return None
        b, u, value = event
        return {"error_phase": _vec_doc(ring, b), "code_vector": _vec_doc(ring, u),
                "turn": str(value)}

    report = {
        "passed": outcome.passed,
        "code_size": outcome.code_size,
        "square_zero": outcome.square_zero,
        "self_orthogonal": outcome.self_orthogonal,
        "counterexample": _event_doc(outcome.counterexample),
        "demo": _event_doc(outcome.demo),
    }
    lines = [
        f"ideal size: {len(ideal)}",
        f"code size: {outcome.code_size}",
        f"protection: {'pass' if outcome.passed else 'FAIL'}",
    ]
    if outcome.counterexample is not None:
        lines.append(f"counterexample: {report['counterexample']}")
    if outcome.demo is not None:
        lines.append(f"non-admissible disturbance: {report['demo']}")
    return (EXIT_OK if outcome.passed else EXIT_NEGATIVE), report, lines


def cmd_census(scenario: Scenario, args) -> tuple[int, dict, list[str]]:
    space = scenario.space
    table = submodule_census(space, args.max_elems)
    report = {
        "submodules": table.submodules,
        "isotropic": table.isotropic,
        "css": table.css,
        "non_css_with_witness": table.non_css_with_witness,
        "max_elems": table.max_elems,
    }
    lines = [
        f"submodules up to {table.max_elems} elements: {table.submodules}",
        f"isotropic: {table.isotropic}",
        f"css: {table.css}",
        f"non-css with witness: {table.non_css_with_witness}",
    ]
    return EXIT_OK, report, lines


def cmd_oracle(scenario: Scenario, args) -> tuple[int, dict, list[str]]:
    space = scenario.space
    group = group_closure(space, scenario.require_stabiliser_generators())
    offending = _offending_doc(space.ring, group)
    if offending is not None:
        report = {"abelian_mod_scalars": False, "offending": offending}
        return EXIT_NEGATIVE, report, [f"not abelian mod scalars, omega {offending['omega']}"]

    fixed = phase_fix(group)
    exact = code_dimension(space, fixed)
    rank = projector_rank(space, fixed)
    commutation_ok = numeric_commutation_check(space, *fixed.generators)
    agree = exact == rank
    report = {
        "abelian_mod_scalars": True,
        "code_dimension": exact,
        "projector_rank": rank,
        "dimensions_agree": agree,
        "generator_commutation_verified": commutation_ok,
    }
    lines = [
        f"exact code dimension: {exact}",
        f"numeric projector rank: {rank}",
        f"agreement: {'yes' if agree else 'NO'}",
        f"generator commutation verified numerically: {'yes' if commutation_ok else 'NO'}",
    ]
    return (EXIT_OK if agree and commutation_ok else EXIT_NEGATIVE), report, lines


def cmd_invariants(scenario: Scenario, args) -> tuple[int, dict, list[str]]:
    triple = invariants(scenario.space)
    report = {
        "frobenius_rank": triple.frobenius_rank,
        "nilpotent_height": triple.nilpotent_height,
        "commutator_depth": triple.commutator_depth,
    }
    lines = [
        f"frobenius rank: {triple.frobenius_rank}",
        f"nilpotent height: {triple.nilpotent_height}",
        f"commutator depth: {triple.commutator_depth}",
    ]
    return EXIT_OK, report, lines


def cmd_isometries(scenario: Scenario, args) -> tuple[int, dict, list[str]]:
    space = scenario.space
    ring = space.ring
    group = isometry_group(space)
    report = {
        "count": len(group),
        "matrices": [[_vec_doc(ring, row) for row in g] for g in group],
    }
    lines = [f"isometries of the site form: {len(group)}"]
    for g in group.matrices[:8]:
        lines.append(f"  {[_vec_doc(ring, row) for row in g]}")
    if len(group) > 8:
        lines.append(f"  ... {len(group) - 8} more")

    if scenario._code_doc is not None:
        code = scenario.require_code()
        base = is_self_orthogonal(space, code)
        preserved = True
        for image in group.orbit(code):
            if len(image) != len(code) or is_self_orthogonal(space, image) != base:
                preserved = False
                break
        report["code_orbit_preserved"] = preserved
        lines.append(f"code orbit preserves self-orthogonality: {'yes' if preserved else 'NO'}")
        if not preserved:
            return EXIT_NEGATIVE, report, lines
    return EXIT_OK, report, lines


# ---------------------------------------------------------------------------
# built-in example checks

def _builtin_checks() -> list[tuple[str, bool]]:
    out: list[tuple[str, bool]] = []

    ring = make_chain_ring(2, 2)
    space = make_space(ring, 2, 1, identity_form(ring, 2))
    u = ring.element_from_doc([0, 1])
    e1, e2 = (ring.one, ring.zero), (ring.zero, ring.one)
    ue1, ue2 = space.scalar_vec(u, e1), space.scalar_vec(u, e2)

    out.append(("chain(2,2) character is generating", verify_generating_character(ring)))

    u_code = submodule_span(space, [ue1, ue2])
    sweep = pairing_turn_numerators(space, u_code.rows, u_code.rows)
    out.append(("u-multiples all pair trivially", bool((sweep == 0).all())))
    out.append(("uH is self-orthogonal", is_self_orthogonal(space, u_code)))

    out.append(
        ("mixed generators commute", omega(space, (e1, ue1), (e2, ue2)).is_zero)
    )
    group = group_closure(
        space,
        [weyl_element(space, Turn(), e1, ue1), weyl_element(space, Turn(), e2, ue2)],
    )
    out.append(
        (
            "mixed closure has scalars 0 and 1/2",
            is_abelian_mod_scalars(group)
            and set(group.scalar_turns) == {Turn(), Turn(1, 2)},
        )
    )
    labels = label_module_of(group)
    verdict = css_verdict(space, labels)
    out.append(
        (
            "mixed stabiliser is non-css with an anticommuting witness",
            verdict.status == "non_css"
            and verdict.witness is not None
            and _witness_doc(space, verdict.witness)["pairing"] == "1/2",
        )
    )
    fixed = phase_fix(group)
    out.append(("phase-fixed dimension is 4", code_dimension(space, fixed) == 4))
    out.append(
        (
            "ideal (u) earns protection",
            check_nilpotent_protection(space, ideal_span(ring, [u])).passed,
        )
    )

    z4 = make_zm(4)
    quarters = [Turn(), Turn(1, 4), Turn(1, 2), Turn(3, 4)]
    out.append(
        ("z4 character walks the quarter turns",
         [z4.epsilon(x) for x in z4.elements()] == quarters)
    )
    pair_space = make_space(z4, 1, 2, identity_form(z4, 1))
    doubles = submodule_span(pair_space, [(2, 0), (0, 2)])
    out.append(("2H is self-orthogonal over z4", is_self_orthogonal(pair_space, doubles)))

    single = make_space(z4, 1, 1, identity_form(z4, 1))
    full = group_closure(
        single,
        [weyl_element(single, Turn(), (1,), (0,)), weyl_element(single, Turn(), (0,), (1,))],
    )
    out.append(
        ("z4 shift and phase generate all quarter-turn scalars",
         set(full.scalar_turns) == set(quarters))
    )
    report = check_nilpotent_protection(pair_space, ideal_span(z4, [2]))
    out.append(
        ("ideal (2) earns protection and a disturbance demo",
         report.passed and report.demo is not None)
    )
    return out


def cmd_examples(args) -> tuple[int, dict, list[str]]:
    checks = _builtin_checks()
    all_passed = all(passed for _, passed in checks)
    report = {
        "checks": [{"name": name, "passed": passed} for name, passed in checks],
        "passed": all_passed,
    }
    lines = [f"{'pass' if passed else 'FAIL'}  {name}" for name, passed in checks]
    failures = sum(1 for _, passed in checks if not passed)
    lines.append("all checks passed" if all_passed else f"{failures} check(s) failed")
    return (EXIT_OK if all_passed else EXIT_NEGATIVE), report, lines


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "ring": cmd_ring,
    "code": cmd_code,
    "stabiliser": cmd_stabiliser,
    "protect": cmd_protect,
    "census": cmd_census,
    "oracle": cmd_oracle,
    "invariants": cmd_invariants,
    "isometries": cmd_isometries,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobqec",
        description="construct and check stabiliser codes over finite Frobenius rings",
    )
    parser.add_argument("command", choices=[*_COMMANDS, "examples"])
    parser.add_argument("--scenario", help="scenario JSON file (every command but examples)")
    parser.add_argument("--json", action="store_true", help="emit a JSON report (every command)")
    parser.add_argument("--max-elems", type=int, metavar="N", help="largest submodule size to "
                        f"include (census only, default {DEFAULT_CENSUS_CAP})")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    needs_scenario = args.command != "examples"
    if (args.scenario is not None) != needs_scenario:
        parser.error(f"{args.command} {'requires' if needs_scenario else 'takes no'} --scenario")
    if args.max_elems is None:
        args.max_elems = DEFAULT_CENSUS_CAP
    elif args.command != "census":
        parser.error("--max-elems applies to census only")
    try:
        if args.command == "examples":
            code, report, lines = cmd_examples(args)
        else:
            scenario = load_scenario(args.scenario)
            code, report, lines = _COMMANDS[args.command](scenario, args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ResourceLimitError as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except DiagnosticError as exc:
        print(f"diagnostic: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        if args.json:
            print(_json_text(report))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (``| head``): what is left, and the
        # flush at exit, go to devnull, and the verdict stands.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
