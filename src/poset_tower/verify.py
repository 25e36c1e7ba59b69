"""Executable verification suites over a complex, producing deterministic reports.

Each suite checks one family of structural claims about the tower of a given
complex (level posets, bonds, preimages, acyclicity, openness, round trips,
homology invariance, naturality).  Reports are plain data with a stable JSON
encoding so identical inputs give byte-identical output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .approx import SimplicialMap, check_naturality, induce_level_map
from .complexes import (
    RationalPoint,
    SimplicialComplex,
    dist_sq,
    open_star,
    star,
)
from .errors import DepthTooLarge, InvalidComplex, UnknownSuite
from .homology import betti
from .posets import check_order_isomorphism, core, face_poset, order_complex
from .subdivision import lift_chain
from .tower import Tower


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    depth: int
    seed: int
    checks: tuple

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
    limits = {0: 6, 1: 4, 2: 3}
    limit = limits.get(K.dim, 2)
    if depth > limit:
        raise DepthTooLarge(
            f"depth {depth} exceeds the guard ({limit}) for a {K.dim}-complex")


def sample_points(K: SimplicialComplex, count: int, seed: int):
    """Deterministic rational points: random simplex, small random weights."""
    rng = random.Random(seed)
    sims = K.sorted_simplices()
    points = []
    for _ in range(count):
        s = rng.choice(sims)
        weights = [rng.randint(0, 6) for _ in s.verts]
        if not any(weights):
            weights[rng.randrange(len(weights))] = 1
        total = sum(weights)
        points.append(RationalPoint(
            K, {v: Fraction(w, total) for v, w in zip(s.verts, weights) if w}))
    return points


def sample_separated_pairs(K: SimplicialComplex, count: int, seed: int):
    """Point pairs in a common simplex with squared distance at least 1/2.

    Each pair concentrates most weight on two distinct vertices, so the
    first-stage separation bound stays within a depth-3 tower.
    """
    rng = random.Random(seed)
    sims = [s for s in K.sorted_simplices() if len(s.verts) >= 2]
    pairs = []
    while len(pairs) < count:
        s = rng.choice(sims)
        u, v = rng.sample(list(s.verts), 2)
        eps_u = Fraction(1, rng.randint(5, 12))
        eps_v = Fraction(1, rng.randint(5, 12))
        rest = [w for w in s.verts if w != u]
        p = {u: 1 - eps_u}
        for w in rest:
            p[w] = eps_u / len(rest)
        rest = [w for w in s.verts if w != v]
        q = {v: 1 - eps_v}
        for w in rest:
            q[w] = eps_v / len(rest)
        pp = RationalPoint(K, p)
        qq = RationalPoint(K, q)
        if dist_sq(pp, qq) >= Fraction(1, 2):
            pairs.append((pp, qq))
    return pairs


# -- suites -------------------------------------------------------------------


def _suite_level_oracle(tower, seed):
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


def _suite_bond_commutation(tower, seed):
    depth = tower.depth
    points = sample_points(tower.base, 200, seed)
    ok_diagram = True
    for p in points:
        proj = dict(enumerate(tower.encode_thread(p, depth).entries, start=1))
        for m in range(1, depth + 1):
            for n in range(1, m + 1):
                if tower.bond(proj[m], m, n) != proj[n]:
                    ok_diagram = False
    ok_composition = True
    for m in range(1, depth + 1):
        for k in range(1, m + 1):
            for n in range(1, k + 1):
                for x in tower.level(m).elements:
                    if tower.bond(x, m, n) != tower.bond(tower.bond(x, m, k), k, n):
                        ok_composition = False
    return [
        Check("projection-commutes-with-bonds", ok_diagram, "200 sampled points"),
        Check("bond-composition", ok_composition, "all elements, all level pairs"),
    ]


def _suite_preimage(tower, seed):
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


def _suite_upset_core(tower, seed):
    checks = []
    for n in range(1, tower.depth + 1):
        level = tower.level(n)
        ok = all(
            len(core(level.poset.restrict(level.poset.up_set(x)))) == 1
            for x in level.elements)
        checks.append(Check(f"level-{n}-upset-cores-collapse", ok))
    return checks


def _suite_upset_acyclic(tower, seed):
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


def _suite_openness(tower, seed):
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


def _suite_roundtrip(tower, seed):
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
    for p in sample_points(tower.base, 50, seed):
        for stage, coords in zip(top.stage_chain(), lift_chain(top, p)):
            if stage.embed_point(coords) != p:
                ok_points = False
    return [
        Check("decode-encode-round-trip", ok_threads, f"{count} threads"),
        Check("coordinate-embed-round-trip", ok_points, "50 sampled points"),
    ]


def _suite_homology(tower, seed):
    reference = betti(tower.base)
    checks = [Check("stage-0-profile", True,
                    f"betti={list(reference.betti)}")]
    for n in range(1, tower.depth + 1):
        profile = betti(tower.stage(n).complex)
        checks.append(Check(
            f"stage-{n}-betti-invariant", profile == reference,
            f"betti={list(profile.betti)}"))
    return checks


def _suite_naturality(tower, seed):
    K, depth = tower.base, tower.depth
    maps = [
        ("identity", SimplicialMap.identity(K)),
        ("constant", SimplicialMap.constant(K, K, K.vertices[0])),
    ]
    samples = sample_points(K, 100, seed)
    checks = []
    for name, g in maps:
        ok = all(
            check_naturality(g, n, samples, tower, tower)
            for n in range(1, depth + 1))
        ok_order = all(
            induce_level_map(g, n, tower, tower).is_order_preserving()
            for n in range(1, depth + 1))
        checks.append(Check(f"{name}-naturality", ok, "100 sampled points"))
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


def _reports(names, K: SimplicialComplex, depth: int, seed: int) -> list:
    if not K.simplices:
        raise InvalidComplex("cannot verify the empty complex")
    depth_guard(K, depth)
    tower = Tower.build(K, depth)
    return [VerificationReport(name, depth, seed, tuple(SUITES[name](tower, seed)))
            for name in names]


def verify_suite(name: str, K: SimplicialComplex, depth: int,
                 seed: int = 0) -> VerificationReport:
    """Run one named suite at the given depth; raises on unknown names."""
    if name not in SUITES:
        raise UnknownSuite(f"{name!r}; choose from {sorted(SUITES)}")
    return _reports([name], K, depth, seed)[0]


def verify_all(K: SimplicialComplex, depth: int, seed: int = 0):
    """Run every suite, in ``SUITES`` order, on one shared tower."""
    return _reports(SUITES, K, depth, seed)
