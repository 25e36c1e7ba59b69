"""Executable verification suites over a complex, producing deterministic reports.

Each suite checks one family of structural claims about the tower of a given
complex (level posets, bonds, preimages, acyclicity, openness, round trips,
homology invariance, naturality).  Reports are plain data with a stable JSON
encoding so identical inputs give byte-identical output.
"""

from __future__ import annotations

import json
import random
from math import gcd
from typing import Callable

from .approx import SimplicialMap, SystemMorphism
from .complexes import (
    RationalPoint,
    SimplicialComplex,
    _Record,
    open_star,
    star,
)
from .errors import DepthTooLarge, InvalidComplex, InvalidInput, UnknownSuite, _require_int
from .homology import betti
from .posets import check_order_isomorphism, core, face_poset, order_complex
from .subdivision import lift_point
from .tower import Tower


class Check(_Record):
    __match_args__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        d = self.__dict__
        d["name"] = name
        d["passed"] = passed
        d["detail"] = detail


class VerificationReport(_Record):
    __match_args__ = ("suite", "depth", "seed", "checks")

    def __init__(self, suite: str, depth: int, seed: int, checks: tuple):
        d = self.__dict__
        d["suite"] = suite
        d["depth"] = depth
        d["seed"] = seed
        d["checks"] = checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_obj(self):
        return {
            "suite": self.suite,
            "depth": self.depth,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "status": "pass" if c.passed else "fail",
                 "detail": c.detail}
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))


def depth_guard(K: SimplicialComplex, depth: int) -> None:
    """Resource guard: subdivision size grows fast with dimension."""
    _require_int(depth, "depth")
    limits = {0: 6, 1: 4, 2: 3}
    limit = limits.get(K.dim, 2)
    if depth > limit:
        raise DepthTooLarge(
            f"depth {depth} exceeds the guard ({limit}) for a {K.dim}-complex")


def sample_points(K: SimplicialComplex, count: int, seed: int):
    """Deterministic rational points: random simplex, small random weights.

    Each draw is ``rng.choice(sims)``, then ``rng.randint(0, 6)`` per vertex,
    then, if every weight is 0, ``rng.randrange(len(weights))`` to pick the
    one set to 1, where ``rng = random.Random(seed)``.  The loop reads that
    stream through ``rng.getrandbits`` with ``Random._randbelow``'s rule (a
    value below n is ``n.bit_length()`` bits, drawn again while it is at
    least n), which gives the same numbers without those methods' Python-level
    wrappers, the larger part of the sample's cost.

    Equal draws are one object.  A draw is keyed by its reduced value, the
    support's vertices with their weights over the weights' gcd, so (2, 2)
    and (1, 1) on an edge are one point, and so are an edge with weights
    (0, 3) and that edge's end vertex.  A repeated raw draw (simplex index
    and weights) finds its point without the reduced key.
    """
    _require_int(count, "sample count")
    _require_int(seed, "seed")
    if count < 0:
        raise InvalidInput(f"sample count must be a non-negative integer, not {count}")
    sims = K.sorted_simplices()
    n = len(sims)
    if count and not n:
        raise InvalidComplex("cannot sample points of the empty complex")
    bits = random.Random(seed).getrandbits
    k = n.bit_length()
    drawn = {}
    made = {}
    points = []
    for _ in range(count):
        i = bits(k)
        while i >= n:
            i = bits(k)
        verts = sims[i].verts
        weights = []
        for _ in verts:
            w = bits(3)  # randint(0, 6)
            while w == 7:
                w = bits(3)
            weights.append(w)
        if not any(weights):
            d = len(verts)
            j = bits(d.bit_length())
            while j >= d:
                j = bits(d.bit_length())
            weights[j] = 1
        raw = (i, *weights)
        p = drawn.get(raw)
        if p is None:
            g = gcd(*weights)
            key = tuple((v, w // g) for v, w in zip(verts, weights) if w)
            p = made.get(key)
            if p is None:
                p = made[key] = RationalPoint._from_numerators(K, sum(weights),
                                                               dict(zip(verts, weights)))
            drawn[raw] = p
        points.append(p)
    return points


def _distinct(points):
    """The distinct points of a sample, in first-draw order.

    ``sample_points`` makes one object per value, so distinct objects are
    distinct values.  Every sampled check is a pure function of the point's
    value and the tower, so checking each distinct point once decides it for
    every draw; a check's ``detail`` still counts the whole sample.
    """
    return {id(p): p for p in points}.values()


# -- suites -------------------------------------------------------------------


def _suite_level_oracle(tower, points):
    checks = []
    for n in range(1, tower.depth + 1):
        level = tower.level(n)
        reference = face_poset(tower.stage(n - 1).complex)
        mapping = {x: level.carrier[x].label() for x in level.elements}
        ok = check_order_isomorphism(level.poset, reference, mapping)
        checks.append(Check(
            f"level-{n}-matches-face-poset", ok,
            f"{len(level.poset)} elements"))
    return checks


def _suite_bond_commutation(tower, points):
    """Bonds against projections: of sampled points, and of every level element's vertex.

    A level-m element x is a stage-m vertex, and its bond to level n must be
    the level-n projection of its stage-0 point.  That point is computed by
    the stage's embedding and projected by the lift, neither of which reads a
    bond.  Each distinct sampled point is checked once (``_distinct``).
    """
    depth = tower.depth
    ok_diagram = True
    for p in _distinct(points):
        proj = dict(enumerate(tower.encode_thread(p, depth).entries, start=1))
        for m in range(1, depth + 1):
            for n in range(1, m + 1):
                if tower.bond(proj[m], m, n) != proj[n]:
                    ok_diagram = False
    ok_vertices = True
    pairs = 0
    for m in range(1, depth + 1):
        stage = tower.stage(m)
        for x in range(len(stage.previous._simplices)):
            for n, y in enumerate(tower._projections(stage._vertex_point(x), m), start=1):
                if tower.levels[n - 1]._stage._name(tower._bond(x, m, n)) != y:
                    ok_vertices = False
                pairs += 1
    return [
        Check("projection-commutes-with-bonds", ok_diagram, f"{len(points)} sampled points"),
        Check("bond-matches-vertex-projection", ok_vertices, f"{pairs} element-level pairs"),
    ]


def _suite_preimage(tower, points):
    checks = []
    for n in range(1, tower.depth + 1):
        level = tower.level(n)
        prev = tower.stage(n - 1).complex
        ok = all(
            tower.basic_preimage(x, n) == open_star(prev, level.carrier[x])
            for x in level.elements)
        checks.append(Check(
            f"level-{n}-preimage-is-open-star", ok,
            f"{len(level.poset)} elements"))
    return checks


def _suite_upset_core(tower, points):
    checks = []
    for n in range(1, tower.depth + 1):
        level = tower.level(n)
        ok = all(
            len(core(level.poset.restrict(level.poset.up_set(x)))) == 1
            for x in level.elements)
        checks.append(Check(f"level-{n}-upset-cores-collapse", ok))
    return checks


def _suite_upset_acyclic(tower, points):
    checks = []
    for n in range(1, tower.depth + 1):
        level = tower.level(n)
        prev = tower.stage(n - 1).complex
        ok_order = all(
            betti(order_complex(level.poset.restrict(level.poset.up_set(x))))
            .is_reduced_trivial()
            for x in level.elements)
        ok_star = all(
            betti(star(prev, level.carrier[x])).is_reduced_trivial()
            for x in level.elements)
        checks.append(Check(f"level-{n}-upset-order-complex-acyclic", ok_order))
        checks.append(Check(f"level-{n}-closed-star-acyclic", ok_star))
    return checks


def _suite_openness(tower, points):
    """The image of every open star of stage m is an up-set of level n.

    An open union of open simplices is a union of open stars, images commute
    with unions and a union of up-sets is an up-set, so one check per stage-m
    simplex decides the claim for every open set.
    """
    checks = []
    for n in range(1, tower.depth + 1):
        is_up_set = tower.level(n).poset.is_up_set
        for m in (n - 1, n):
            cx = tower.stage(m).complex
            ok = all(is_up_set(tower.image_of_open(open_star(cx, s), m, n))
                     for s in cx.sorted_simplices())
            checks.append(Check(
                f"level-{n}-stage-{m}-open-images-are-up-sets", ok,
                f"{len(cx.simplices)} open stars"))
    return checks


def _suite_roundtrip(tower, points):
    """Level elements' threads through decode and encode, sampled points through lift and embed.

    Each distinct sampled point is lifted once per stage (``_distinct``).
    """
    ok_threads = True
    count = 0
    for N in range(1, tower.depth + 1):
        for x in tower.level(N).elements:
            entries = tuple(tower.bond(x, N, n) for n in range(1, N + 1))
            t = tower.thread(entries)
            region = tower.decode_thread(t)
            if tower.encode_thread(region.representative, N).entries != t.entries:
                ok_threads = False
            count += 1
    ok_points = True
    top = tower.stage(tower.depth)
    for p in _distinct(points):
        for stage in top.stage_chain():
            if stage.embed_point(lift_point(stage, p)) != p:
                ok_points = False
    return [
        Check("decode-encode-round-trip", ok_threads, f"{count} threads"),
        Check("coordinate-embed-round-trip", ok_points, f"{len(points)} sampled points"),
    ]


def _suite_homology(tower, points):
    reference = betti(tower.base)
    checks = [Check("stage-0-profile", True,
                    f"betti={list(reference.betti)}")]
    for n in range(1, tower.depth + 1):
        profile = betti(tower.stage(n).complex)
        checks.append(Check(
            f"stage-{n}-betti-invariant", profile == reference,
            f"betti={list(profile.betti)}"))
    return checks


def _suite_naturality(tower, points):
    """The projection and bond squares of the identity and a constant map, and their order.

    Each distinct sampled point is projected once per map (``_distinct``).
    """
    K = tower.base
    distinct = _distinct(points)
    maps = [
        ("identity", SimplicialMap.identity(K)),
        ("constant", SimplicialMap.constant(K, K, K.vertices[0])),
    ]
    checks = []
    for name, g in maps:
        m = SystemMorphism.build(g, tower, tower)
        ok_order = all(level_map.is_order_preserving() for level_map in m.levels)
        checks.append(Check(f"{name}-naturality", m._commutes(distinct),
                            f"{len(points)} sampled points"))
        checks.append(Check(f"{name}-level-maps-order-preserving", ok_order))
    return checks


SUITES: dict[str, Callable] = {
    "level-oracle": _suite_level_oracle,
    "bond-commutation": _suite_bond_commutation,
    "preimage-openstar": _suite_preimage,
    "upset-core": _suite_upset_core,
    "upset-acyclic": _suite_upset_acyclic,
    "openness": _suite_openness,
    "roundtrip": _suite_roundtrip,
    "homology": _suite_homology,
    "naturality": _suite_naturality,
}


# How many seeded points each sampling suite checks; the other suites check none.
_SAMPLE_SIZES = {"bond-commutation": 200, "naturality": 100, "roundtrip": 50}


def _reports(names, K: SimplicialComplex, depth: int, seed: int) -> list:
    """Run the named suites on one tower and one seeded sample.

    ``sample_points(K, c, seed)`` is a prefix of ``sample_points(K, c', seed)``
    for c <= c' (the same draws in the same order), so one sample of the
    largest size asked for gives each suite exactly the points it would draw.
    """
    if not K.simplices:
        raise InvalidComplex("cannot verify the empty complex")
    depth_guard(K, depth)
    _require_int(seed, "seed")
    tower = Tower.build(K, depth)
    sizes = {name: _SAMPLE_SIZES.get(name, 0) for name in names}
    count = max(sizes.values())
    points = sample_points(K, count, seed) if count else []
    return [VerificationReport(name, depth, seed, tuple(SUITES[name](tower, points[:sizes[name]])))
            for name in names]


def verify_suite(name: str, K: SimplicialComplex, depth: int,
                 seed: int = 0) -> VerificationReport:
    """Run one named suite at the given depth; raises on unknown names."""
    if not isinstance(name, str) or name not in SUITES:
        raise UnknownSuite(f"{name!r}; choose from {sorted(SUITES)}")
    return _reports([name], K, depth, seed)[0]


def verify_all(K: SimplicialComplex, depth: int, seed: int = 0):
    """Run every suite, in ``SUITES`` order, on one shared tower."""
    return _reports(SUITES, K, depth, seed)
