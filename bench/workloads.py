"""Seeded scenario generator for the three benchmark workloads.

Everything here is plain Python and never imports frobqec: the program
under test only ever sees the JSON scenario documents written here.
Group orders, census caps, carrier and ring sizes are bounded with a
small independent model of the ring families, so a workload cannot ask
the program for more work than the bounds below allow.

Each workload is a fixed template of task slots.  The slot fixes what
sets the cost (command, ring, carrier, group order, generator count,
code and ideal size), and the seed draws the content (generators,
turns, forms, caps, unit multipliers, a prime modulus), so the work per
task list barely moves between seeds.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from fractions import Fraction

# Resource bounds checked before a scenario is written.
MAX_GROUP_ORDER = 512
MAX_ORACLE_CARRIER = 256
MAX_RING_SIZE = 4096
MAX_LARGE_CARRIER = 1 << 16
MAX_CENSUS_AMBIENT = 256
MAX_ISOMETRY_SCAN = 1 << 16
_MAX_DRAWS = 4000

WORKLOADS = ("stabiliser", "census", "large_tables")


# ---------------------------------------------------------------------------
# an independent model of the ring families

def zm(m: int) -> dict:
    return {"family": "zm", "m": m}


def chain(m: int, e: int) -> dict:
    return {"family": "chain", "m": m, "e": e}


def product(left: dict, right: dict) -> dict:
    return {"family": "product", "factors": [left, right]}


def family_name(family: dict) -> str:
    kind = family["family"]
    if kind == "zm":
        return f"Z_{family['m']}"
    if kind == "chain":
        return f"chain({family['m']},{family['e']})"
    left, right = family["factors"]
    return f"{family_name(left)}x{family_name(right)}"


class Ring:
    """Ring arithmetic on element documents (int, coefficient list, pair)."""

    def __init__(self, family: dict):
        self.family = family
        kind = family["family"]
        if kind == "zm":
            self.size = family["m"]
        elif kind == "chain":
            self.size = family["m"] ** family["e"]
        elif kind == "product":
            self.parts = tuple(Ring(f) for f in family["factors"])
            self.size = self.parts[0].size * self.parts[1].size
        else:
            raise ValueError(f"unknown ring family {kind!r}")
        if self.size > MAX_RING_SIZE:
            raise ValueError(f"ring {family_name(family)} exceeds {MAX_RING_SIZE} elements")
        self.kind = kind

    @property
    def zero(self):
        if self.kind == "zm":
            return 0
        if self.kind == "chain":
            return (0,) * self.family["e"]
        return tuple(p.zero for p in self.parts)

    @property
    def one(self):
        if self.kind == "zm":
            return 1
        if self.kind == "chain":
            return (1,) + (0,) * (self.family["e"] - 1)
        return tuple(p.one for p in self.parts)

    def add(self, x, y):
        if self.kind == "zm":
            return (x + y) % self.family["m"]
        if self.kind == "chain":
            m = self.family["m"]
            return tuple((a + b) % m for a, b in zip(x, y))
        return tuple(p.add(a, b) for p, a, b in zip(self.parts, x, y))

    def neg(self, x):
        if self.kind == "zm":
            return -x % self.family["m"]
        if self.kind == "chain":
            return tuple(-a % self.family["m"] for a in x)
        return tuple(p.neg(a) for p, a in zip(self.parts, x))

    def mul(self, x, y):
        if self.kind == "zm":
            return x * y % self.family["m"]
        if self.kind == "chain":
            m, e = self.family["m"], self.family["e"]
            return tuple(
                sum(x[i] * y[d - i] for i in range(d + 1)) % m for d in range(e)
            )
        return tuple(p.mul(a, b) for p, a, b in zip(self.parts, x, y))

    def eps(self, x) -> Fraction:
        """The generating character as an exact turn (not reduced mod 1)."""
        if self.kind == "zm":
            return Fraction(x, self.family["m"])
        if self.kind == "chain":
            return Fraction(x[-1], self.family["m"])
        return sum((p.eps(a) for p, a in zip(self.parts, x)), Fraction(0))

    def random(self, rng: random.Random):
        if self.kind == "zm":
            return rng.randrange(self.family["m"])
        if self.kind == "chain":
            return tuple(rng.randrange(self.family["m"]) for _ in range(self.family["e"]))
        return tuple(p.random(rng) for p in self.parts)

    def elements(self):
        if self.kind == "zm":
            return list(range(self.family["m"]))
        if self.kind == "chain":
            return list(itertools.product(range(self.family["m"]), repeat=self.family["e"]))
        return list(itertools.product(*(p.elements() for p in self.parts)))

    def is_nilpotent(self, x) -> bool:
        for _ in range(self.size.bit_length()):
            x = self.mul(x, x)
        return x == self.zero

    def is_unit(self, x) -> bool:
        if self.kind == "zm":
            return math.gcd(x, self.family["m"]) == 1
        if self.kind == "chain":
            return math.gcd(x[0], self.family["m"]) == 1
        return all(p.is_unit(a) for p, a in zip(self.parts, x))

    def random_unit(self, rng: random.Random):
        while True:
            x = self.random(rng)
            if self.is_unit(x):
                return x

    def nilpotency_index(self) -> int:
        """Least h with nil^h = 0, by the closed form of each family."""
        if self.kind == "zm":
            return max(_factor(self.family["m"]).values())
        if self.kind == "chain":
            m, e = self.family["m"], self.family["e"]
            exponents = _factor(m).values()
            if len(exponents) != 1:
                raise ValueError("chain rings are built over prime powers here")
            return next(iter(exponents)) + e - 1
        return max(p.nilpotency_index() for p in self.parts)


def _factor(m: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _doc(x):
    """Element in scenario notation: tuples become JSON lists."""
    if isinstance(x, tuple):
        return [_doc(c) for c in x]
    return x


# ---------------------------------------------------------------------------
# forms, pairings and the order of a Weyl group

def identity_form(ring: Ring, k: int):
    return tuple(tuple(ring.one if i == j else ring.zero for j in range(k)) for i in range(k))


def form_value(ring: Ring, form, k: int, v, w):
    total = ring.zero
    for base in range(0, len(v), k):
        for p in range(k):
            for q in range(k):
                term = ring.mul(ring.mul(v[base + p], form[p][q]), w[base + q])
                total = ring.add(total, term)
    return total


def pairing(ring: Ring, form, k: int, v, w) -> Fraction:
    return ring.eps(form_value(ring, form, k, v, w)) % 1


def omega(ring: Ring, form, k: int, g, h) -> Fraction:
    """Commutation turn of two generators (turn, shift, phase)."""
    return (pairing(ring, form, k, g[2], h[1]) - pairing(ring, form, k, h[2], g[1])) % 1


def group_order(ring: Ring, form, k: int, gens, bound: int = MAX_GROUP_ORDER) -> int | None:
    """Order of the group the generators span, or None above ``bound``.

    Breadth-first over labels with one representative turn per label.
    Reaching a known label gives a scalar (Schreier's lemma), the
    scalars generate the scalar subgroup Z, a cyclic subgroup of Q/Z of
    order lcm of their denominators, and |G| = |labels| * |Z|.
    """
    rank = len(gens[0][1])
    zero = (ring.zero,) * (2 * rank)
    reps = {zero: Fraction(0)}
    queue = [zero]
    z_order = 1
    for label in queue:
        turn, phase = reps[label], label[rank:]
        for g_turn, shift, g_phase in gens:
            nxt = tuple(ring.add(x, y) for x, y in zip(label, shift + g_phase))
            t = (turn + g_turn + pairing(ring, form, k, phase, shift)) % 1
            if nxt in reps:
                z_order = math.lcm(z_order, ((t - reps[nxt]) % 1).denominator)
            else:
                reps[nxt] = t
                queue.append(nxt)
            if len(reps) * z_order > bound:
                return None
    return len(reps) * z_order


def perfect_forms(ring: Ring, k: int):
    """Every symmetric k x k form whose determinant is a unit (k <= 2)."""
    units = {x for x in ring.elements() if any(ring.mul(x, y) == ring.one for y in ring.elements())}
    if k == 1:
        return [((u,),) for u in sorted(units)]
    forms = []
    for a, b, d in itertools.product(ring.elements(), repeat=3):
        det = ring.add(ring.mul(a, d), ring.neg(ring.mul(b, b)))
        if det in units:
            forms.append(((a, b), (b, d)))
    return forms


# ---------------------------------------------------------------------------
# workload templates

Z2, Z3, Z4, C22 = zm(2), zm(3), zm(4), chain(2, 2)
Z6 = product(zm(2), zm(3))
TURNS = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 6), Fraction(1, 8)]

# (ring, k, n, kind, group order, generator count).  Orders are exact:
# the generator redraws until its own count agrees, so with the
# generator count fixed too, closure and oracle cost is set by the slot.
# The counts put task_p50_s inside the class of order 32-36 groups and
# task_tail_s inside the class of order 64 groups.
STABILISER_SLOTS = (
    [(Z2, 1, 3, "commuting", 8, 2)]
    + [(Z2, 1, 4, "turned", 16, 3)]
    + [(Z3, 1, 2, "commuting", 9, 2)]
    + [(Z4, 1, 2, "turned", 16, 2)]
    + [(C22, 1, 2, "commuting", 16, 3)]
    + [(Z6, 1, 2, "commuting", 36, 2)] * 4
    + [(Z2, 1, 5, "commuting", 32, 4)] * 4
    + [(Z2, 1, 6, "turned", 64, 4)] * 2
    + [(Z3, 1, 3, "commuting", 27, 3)] * 2
    + [(Z4, 1, 3, "commuting", 64, 3)] * 2
    + [(C22, 1, 3, "turned", 64, 4)] * 2
    + [(Z2, 1, 4, "noncommuting", 32, 4)] * 4
    + [(Z3, 1, 2, "noncommuting", 27, 2)] * 2
    + [(Z2, 1, 7, "commuting", 128, 6)]
    + [(Z4, 1, 4, "turned", 128, 3)]
)


def _random_vector(ring: Ring, rank: int, rng: random.Random):
    return tuple(ring.random(rng) for _ in range(rank))


def _draw_generators(ring, form, k, rank, kind, count, rng):
    gens = []
    for _ in range(count):
        for _ in range(64):
            g = (Fraction(0), _random_vector(ring, rank, rng), _random_vector(ring, rank, rng))
            if kind == "noncommuting" or all(omega(ring, form, k, g, h) == 0 for h in gens):
                break
        else:
            return None
        if kind == "turned" and rng.random() < 0.6:
            g = (rng.choice(TURNS),) + g[1:]
        gens.append(g)
    commuting = all(omega(ring, form, k, g, h) == 0 for g, h in itertools.combinations(gens, 2))
    if commuting != (kind != "noncommuting"):
        return None
    if kind == "turned" and all(g[0] == 0 for g in gens):
        return None
    return gens


def stabiliser_scenario(slot, rng: random.Random) -> dict:
    family, k, n, kind, order, count = slot
    ring = Ring(family)
    rank = k * n
    if ring.size ** rank > MAX_ORACLE_CARRIER or order > MAX_GROUP_ORDER:
        raise ValueError(f"stabiliser slot {slot} is out of bounds")
    form = identity_form(ring, k)
    for _ in range(_MAX_DRAWS):
        gens = _draw_generators(ring, form, k, rank, kind, count, rng)
        if gens is not None and group_order(ring, form, k, gens) == order:
            break
    else:
        raise RuntimeError(f"no generators of order {order} found for slot {slot}")
    doc = {
        "ring": family,
        "space": {"k": k, "n": n},
        "stabiliser": {
            "generators": [
                {"turn": f"{t.numerator}/{t.denominator}", "a": _doc(a), "b": _doc(b)}
                for t, a, b in gens
            ]
        },
    }
    expect = {"order": order, "abelian": kind != "noncommuting", "carrier": ring.size**rank}
    return {"doc": doc, "expect": expect}


# (ring, k, n, caps drawn by the seed); k = 2 spaces draw a seeded
# perfect form that is not the identity.  The counts put task_p50_s in
# the middle of the Z_2 n=2 class and task_tail_s in the middle of the
# Z_2 x Z_3 class, so neither sits on the edge between two cost classes.
CENSUS_SLOTS = (
    [(Z2, 1, 1, (2, 4))] * 2
    + [(Z3, 1, 1, (3, 9))] * 2
    + [(Z4, 1, 1, (4, 8, 16))] * 5
    + [(C22, 1, 1, (4, 8, 16))] * 5
    + [(Z2, 1, 2, (8, 16))] * 10
    + [(Z2, 2, 1, (8, 16))] * 10
    + [(Z6, 1, 1, (18, 36))] * 12
    + [(Z3, 1, 2, (3,)), (Z3, 2, 1, (3,)), (Z2, 1, 3, (2,)), (C22, 2, 1, (2,))]
)

# The ROADMAP census anchor: every pass runs it and checks these counts.
CENSUS_ANCHOR = {
    "doc": {"ring": Z4, "space": {"k": 1, "n": 2}},
    "cap": 8,
    "counts": {"submodules": 606, "isotropic": 366, "css": 54},
}


def census_scenario(slot, rng: random.Random) -> dict:
    family, k, n, caps = slot
    ring = Ring(family)
    if ring.size ** (2 * k * n) > MAX_CENSUS_AMBIENT:
        raise ValueError(f"census slot {slot} is out of bounds")
    space = {"k": k, "n": n}
    if k == 2:
        forms = [f for f in perfect_forms(ring, k) if f != identity_form(ring, k)]
        space["form"] = _doc(rng.choice(forms))
    return {"doc": {"ring": family, "space": space}, "cap": rng.choice(caps)}


# Rings for the `ring` command, one fixed ring per slot, plus slots that
# draw a prime modulus from a narrow window, where the cost is the same
# for every draw.
NIL_RINGS_MID = [chain(2, 8), chain(4, 4), zm(512), chain(8, 3)]
SMALL_RINGS = [zm(8), zm(12), zm(27), zm(36), zm(64), chain(2, 3), chain(3, 2),
               chain(2, 4), chain(4, 2), product(zm(4), zm(9)),
               product(chain(2, 2), zm(3)), product(zm(8), zm(5))]
PRIMES = [p for p in range(1000, 1100) if all(p % q for q in range(2, 32))]
BIG_CHAIN = chain(4, 6)
U = (0, 1)  # the element u of a chain ring, padded by _pad


def _pad(x, e):
    return tuple(x) + (0,) * (e - len(x))


def _each(command, rings, k=None, n=None):
    return [(command, [ring], k, n, None) for ring in rings]


# (command, ring choices, k, n, d).  A `code` slot spans d * v for a
# random v with a unit coordinate and a `protect` slot takes the ideal
# of d times a random unit, so code and ideal sizes are |R d| whatever
# the seed draws.  The Z_m isometry scans appear three times each, which
# puts task_p50_s in the middle of the class of ~14 ms protect and k = 2
# isometry tasks and task_tail_s among the Z_m isometry scans, not on the
# edge between two cost classes.
LARGE_SLOTS = (
    [("code", [BIG_CHAIN], 1, 1, _pad(U, 6))]
    + _each("ring", NIL_RINGS_MID)
    + [("ring", [zm(p) for p in PRIMES], None, None, None)] * 2
    + _each("ring", SMALL_RINGS)
    + [("code", [zm(256)], 1, 2, 16)] * 2
    + [("code", [zm(16)], 1, 4, 2)] * 2
    + [("code", [chain(2, 4)], 1, 4, _pad(U, 4))] * 2
    + [("code", [zm(64)], 1, 2, 4)] * 2
    + [("code", [chain(4, 3)], 1, 2, (2, 0, 0))] * 2
    + [("protect", [zm(8)], 1, 3, 4)] * 2
    + [("protect", [chain(2, 3)], 1, 3, _pad(U, 3))] * 2
    + [("protect", [zm(16)], 1, 2, 4)] * 2
    + [("protect", [chain(4, 2)], 1, 2, (2, 0))] * 2
    + _each("invariants", [zm(64), chain(2, 6)], 1, 2)
    + _each("invariants", [zm(16), chain(2, 4)], 1, 3)
    + _each("isometries", [zm(8), chain(2, 3)], 2, 1)
    + _each("isometries", [zm(1020), zm(1155)], 1, 1)
    + _each("isometries", [zm(4), chain(2, 2), zm(6), product(zm(2), zm(3))], 2, 1)
    + _each("isometries", [zm(1020), zm(1155)] * 2, 1, 1)
)


def large_scenario(slot, rng: random.Random) -> dict:
    command, choices, k, n, d = slot
    family = rng.choice(choices)
    ring = Ring(family)
    doc = {"ring": family}
    expect = {"size": ring.size, "nil_height": ring.nilpotency_index()}
    if k is not None:
        rank = k * n
        if ring.size ** rank > MAX_LARGE_CARRIER:
            raise ValueError(f"large_tables slot {slot} is out of bounds")
        doc["space"] = {"k": k, "n": n}
        expect.update(k=k, carrier=ring.size**rank)
    if command == "code":
        v = list(_random_vector(ring, rank, rng))
        v[rng.randrange(rank)] = ring.random_unit(rng)
        doc["code"] = {"generators": [_doc(tuple(ring.mul(d, x) for x in v))]}
    elif command == "protect":
        if not ring.is_nilpotent(d):
            raise ValueError(f"protect slot {slot} needs a nilpotent d")
        doc["ideal"] = {"generators": [_doc(ring.mul(d, ring.random_unit(rng)))]}
    elif command == "isometries" and ring.size ** (k * k) > MAX_ISOMETRY_SCAN:
        raise ValueError(f"isometry slot {slot} is out of bounds")
    return {"doc": doc, "expect": expect}


# ---------------------------------------------------------------------------
# task lists

# One tiny task per command, run by every workload, so that every
# per-layer metric is measured on every workload; together they take
# well under 1% of a pass.
COVERAGE_STABILISER = (Z2, 1, 2, "turned", 8, 2)
COVERAGE_CENSUS = (Z2, 1, 1, (2, 4))
COVERAGE_LARGE = [
    ("ring", [chain(2, 3)], None, None, None),
    ("code", [zm(4)], 1, 2, 2),
    ("protect", [zm(4)], 1, 1, 2),
    ("invariants", [zm(4)], 1, 1, None),
    ("isometries", [zm(4)], 1, 1, None),
]


def _stabiliser_tasks(name, slot, rng):
    sc = stabiliser_scenario(slot, rng)
    return [{"name": name, "command": command, "args": [], "doc": sc["doc"],
             "expect": sc["expect"]} for command in ("stabiliser", "oracle")]


def _census_task(name, slot, rng):
    sc = census_scenario(slot, rng)
    return {"name": name, "command": "census", "args": ["--max-elems", str(sc["cap"])],
            "doc": sc["doc"], "expect": {}}


def _large_task(name, slot, rng):
    sc = large_scenario(slot, rng)
    return {"name": name, "command": slot[0], "args": [], "doc": sc["doc"],
            "expect": sc["expect"]}


def build_tasks(workload: str, seed: int) -> list[dict]:
    """The task list of one workload: a list of scenario documents with
    the CLI arguments that run them and what the generator knows about
    their answers.  Identical for identical (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    tasks = []
    if workload == "stabiliser":
        for i, slot in enumerate(STABILISER_SLOTS):
            tasks += _stabiliser_tasks(f"s{i:02d}", slot, rng)
    elif workload == "census":
        tasks.append({"name": "anchor", "command": "census",
                      "args": ["--max-elems", str(CENSUS_ANCHOR["cap"])],
                      "doc": CENSUS_ANCHOR["doc"], "expect": CENSUS_ANCHOR["counts"]})
        tasks += [_census_task(f"c{i:02d}", slot, rng) for i, slot in enumerate(CENSUS_SLOTS)]
    elif workload == "large_tables":
        tasks += [_large_task(f"l{i:02d}", slot, rng) for i, slot in enumerate(LARGE_SLOTS)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    tasks += _stabiliser_tasks("v0", COVERAGE_STABILISER, rng)
    tasks.append(_census_task("v1", COVERAGE_CENSUS, rng))
    tasks += [_large_task(f"v{i + 2}", slot, rng) for i, slot in enumerate(COVERAGE_LARGE)]
    return tasks


def workload_params(workload: str) -> dict:
    """The generator parameters of a workload, for its result files."""
    if workload == "stabiliser":
        slots = [[family_name(f), k, n, kind, order, count]
                 for f, k, n, kind, order, count in STABILISER_SLOTS]
        bounds = {"group_order": MAX_GROUP_ORDER, "carrier": MAX_ORACLE_CARRIER}
        fields = "ring, k, n, kind, order, generators"
    elif workload == "census":
        slots = [[family_name(f), k, n, list(caps)] for f, k, n, caps in CENSUS_SLOTS]
        bounds = {"ambient": MAX_CENSUS_AMBIENT}
        fields = "ring, k, n, caps"
    else:
        slots = [[command, [family_name(f) for f in choices], k, n]
                 for command, choices, k, n, _ in LARGE_SLOTS]
        bounds = {"ring": MAX_RING_SIZE, "carrier": MAX_LARGE_CARRIER,
                  "isometry_scan": MAX_ISOMETRY_SCAN}
        fields = "command, rings, k, n"
    return {"slots": slots, "slot_fields": fields, "bounds": bounds,
            "coverage": [c[0] for c in COVERAGE_LARGE] + ["census", "stabiliser", "oracle"]}


def write_tasks(workload: str, seed: int, directory: str) -> list[dict]:
    """Write each scenario document once into ``directory`` and return
    the task list with a ``path`` per task."""
    os.makedirs(directory, exist_ok=True)
    tasks = build_tasks(workload, seed)
    for task in tasks:
        path = os.path.join(directory, f"{task['name']}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(task["doc"], handle, sort_keys=True)
        task["path"] = path
    return tasks
