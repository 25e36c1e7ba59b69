from __future__ import annotations

import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from importlib.util import module_from_spec, spec_from_file_location
from itertools import combinations

import pytest
from hypothesis import settings, strategies as st

from poset_tower import (
    RationalPoint,
    Simplex,
    SimplicialComplex,
    Tower,
    dist_sq,
    open_star,
)
from poset_tower.fixtures import (
    circle,
    edge,
    point,
    tetra_boundary,
    triangle,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


# The reference computations the benchmark also checks against, written from
# the definitions and importing nothing from the package.
_spec = spec_from_file_location("oracles", ROOT / "perfbench" / "oracles.py")
O = module_from_spec(_spec)
_spec.loader.exec_module(O)


def run_python(*args, timeout=60, **env_vars):
    """Run ``python *args`` on this checkout's package, with these extra environment values.

    ``PYTHONHASHSEED="1"`` among them runs the child under that hash seed.
    """
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


# Property tests draw the same examples on every run and have no timing
# deadline, so the suite stays deterministic on a slow or busy machine.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@st.composite
def small_complexes(draw):
    """At most five vertices, dimension at most two."""
    verts = "abcde"[:draw(st.integers(1, 5))]
    facets = draw(st.lists(
        st.lists(st.sampled_from(verts), min_size=min(2, len(verts)), max_size=3,
                 unique=True),
        min_size=1, max_size=4))
    return SimplicialComplex.from_maximal(facets)


@st.composite
def rational_points(draw, K, s=None):
    """A point in the open simplex s, or in a drawn one (top simplices first)."""
    if s is None:
        s = draw(st.sampled_from(sorted(K.simplices, reverse=True)))
    weights = draw(st.lists(st.integers(1, 6), min_size=len(s), max_size=len(s)))
    total = sum(weights)
    return RationalPoint(K, {v: Fraction(w, total) for v, w in zip(s.verts, weights)})


@lru_cache(maxsize=None)
def cached_tower(name: str, depth: int) -> Tower:
    return Tower.build(COMPLEXES[name](), depth)


COMPLEXES = {
    "point": point,
    "edge": edge,
    "circle": circle,
    "triangle": triangle,
    "tetra-boundary": tetra_boundary,
}

# depth at which each fixture is exercised throughout the suite
FIXTURE_DEPTHS = {
    "point": 3,
    "edge": 3,
    "circle": 3,
    "triangle": 2,
    "tetra-boundary": 2,
}


# -- oracles written from the definitions ---------------------------------------


def is_face_of(s: Simplex, t: Simplex) -> bool:
    return set(s.verts) <= set(t.verts)


def is_complex(vertices, simplices) -> bool:
    """Whether vertex labels and simplices (label tuples) form a simplicial complex.

    Every vertex of a simplex is listed, every nonempty subset of a simplex is
    a simplex, and every listed vertex is a simplex on its own.
    """
    vset = set(vertices)
    present = {frozenset(s) for s in simplices}
    return (all(set(s) <= vset for s in simplices)
            and all(frozenset(f) in present
                    for s in simplices
                    for k in range(1, len(s))
                    for f in combinations(s, k))
            and all(frozenset([v]) in present for v in vset))


def as_sets(table: dict) -> dict:
    """A package table ``{label: Simplex}`` in the reference's form ``{label: frozenset}``."""
    return {x: frozenset(s.verts) for x, s in table.items()}


def all_threads(tower: Tower, N: int):
    """Every coherent thread of depth N: one per level-N element."""
    for x in tower.level(N).elements:
        yield tower.thread(tuple(tower.bond(x, N, n) for n in range(1, N + 1)))


def affine_reference(weights: dict, points: dict) -> dict:
    """The combination of ``points`` (``{vertex: Fraction}`` each) with these weights."""
    out = {}
    for u, a in weights.items():
        for v, b in points[u].items():
            out[v] = out.get(v, 0) + a * b
    return out


def pl_values_reference(h, ref: "LabelTower", n: int) -> dict:
    """h's value at each vertex of source stage n, as ``{target vertex: Fraction}``.

    h is affine on every simplex of its defining stage, so a vertex's value is
    its point over that stage weighting the vertex images.
    """
    images = {u: q.coords for u, q in h.images.items()}
    return {v: affine_reference(point, images)
            for v, point in ref.embedding(n, h.stage).items()}


def sd_map_reference(vertex_map: dict, carriers) -> dict:
    """A simplicial vertex map subdivided once per carrier table, from the definition.

    A vertex is the barycenter of its carrier, and the subdivided map sends it
    to the barycenter of the carrier's image one stage down.
    """
    for carrier in carriers:
        vertex_map = {x: O.vertex_label({vertex_map[v] for v in s}) for x, s in carrier.items()}
    return vertex_map


class LabelTower:
    """The tower on labels, built from ``O``'s definitions alone.

    Stage k is a set of simplices, each a frozenset of labels, and stage k+1
    is ``O.sd_once`` of it.  Level n's carrier table maps each stage-n label
    to its stage-(n-1) simplex, ``{O.vertex_label(s): s}``.  A bond walks to
    the member with the largest carrier and a vertex embeds as the mean of
    its carrier's members, both read off the tables and not the labels' text,
    so a base name that holds braces is read right.  Points are encoded by
    ``O.reference_thread``.
    """

    def __init__(self, K: SimplicialComplex, depth: int):
        self.simplices = [{frozenset(s.verts) for s in K.simplices}]
        for _ in range(depth):
            self.simplices.append(O.sd_once(self.simplices[-1]))
        self.carriers = [{O.vertex_label(s): s for s in stage} for stage in self.simplices[:-1]]

    def vertices(self, k: int) -> tuple:
        return tuple(sorted(set().union(*self.simplices[k])))

    def provenance(self, k: int) -> dict:
        return {} if k == 0 else self.carriers[k - 1]

    def down_sets(self, n: int) -> dict:
        """Level n's order: each element's down-set, the labels of its carrier's faces."""
        return {x: frozenset(O.vertex_label(f) for r in range(1, len(s) + 1)
                             for f in combinations(s, r))
                for x, s in self.carriers[n - 1].items()}

    def bond(self, x: str, m: int, n: int) -> str:
        for k in range(m, n, -1):
            x = max(self.carriers[k - 1][x], key=lambda u: len(self.carriers[k - 2][u]))
        return x

    def encode(self, p: RationalPoint, N: int) -> tuple:
        return tuple(O.reference_thread(p.coords, N))

    def embedding(self, n: int, start: int = 0) -> dict:
        """Each stage-n vertex's point over stage ``start``, as ``{vertex: Fraction}``.

        A vertex of stage ``start`` is its own point, and a later vertex is the
        mean of the points of its carrier's members one stage down.
        """
        points = {v: {v: Fraction(1)} for v in self.vertices(start)}
        for carrier in self.carriers[start:n]:
            means = {}
            for x, s in carrier.items():
                mean = means[x] = {}
                for m in s:
                    for v, a in points[m].items():
                        mean[v] = mean.get(v, 0) + a / len(s)
            points = means
        return points

    def decode(self, entries) -> tuple:
        """The decoded chain and the representative's coordinates."""
        chain = tuple(self.carriers[n][x] for n, x in enumerate(entries))
        return chain, self.embedding(len(entries))[entries[-1]]


def lifted_image(tower: Tower, s: Simplex, m: int, n: int) -> str:
    """The level-n projection of the barycenter of a stage-m simplex, by lifting."""
    stage = tower.stage(m)
    point = stage.embed_point(RationalPoint.barycenter(stage.complex, s))
    return tower.project_point(point, n)


def open_subset_is_open(complex: SimplicialComplex, simplices) -> bool:
    """Whether a union of open simplices is open in the realization.

    That holds exactly when the family is closed under taking cofaces.
    """
    family = set(simplices)
    return all(
        t in family
        for s in family
        for t in open_star(complex, s))


def open_families_exhaustive(cx: SimplicialComplex, limit: int):
    """All coface-closed simplex families (the open unions), or None past limit.

    Simplices are decided from top dimension down, so inclusion constraints
    only look at already-decided cofaces.
    """
    sims = sorted(cx.simplices, key=lambda s: (-len(s.verts), s.verts))
    families = []
    stack = [(0, frozenset())]
    while stack:
        i, chosen = stack.pop()
        if i == len(sims):
            families.append(chosen)
            if len(families) > limit:
                return None
            continue
        s = sims[i]
        stack.append((i + 1, chosen))
        if all(t in chosen for t in cx.cofaces(s)):
            stack.append((i + 1, chosen | {s}))
    return families


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


def open_families_sampled(cx: SimplicialComplex, count: int, seed: int):
    """Random simplex subsets closed under cofaces (each union is open)."""
    rng = random.Random(seed)
    sims = cx.sorted_simplices()
    families = []
    for _ in range(count):
        base = {s for s in sims if rng.random() < 0.3}
        closed = set()
        for s in base:
            closed.update(open_star(cx, s))
        families.append(frozenset(closed))
    return families


@pytest.fixture
def built_simplices(monkeypatch):
    """The vertex tuples of every ``Simplex`` built while the test runs."""
    calls = []
    of_sorted, init = Simplex._of_sorted.__func__, Simplex.__init__
    monkeypatch.setattr(Simplex, "_of_sorted", classmethod(
        lambda cls, verts: calls.append(verts) or of_sorted(cls, verts)))
    monkeypatch.setattr(Simplex, "__init__",
                        lambda s, verts: calls.append(verts) or init(s, verts))
    return calls


@pytest.fixture
def E():
    return edge()


@pytest.fixture
def PT():
    return point()


@pytest.fixture
def S1():
    return circle()


@pytest.fixture
def TRI():
    return triangle()


@pytest.fixture
def TETRA_BD():
    return tetra_boundary()


@pytest.fixture
def tower_E3():
    return cached_tower("edge", 3)


@pytest.fixture
def tower_S13():
    return cached_tower("circle", 3)


@pytest.fixture
def tower_TRI2():
    return cached_tower("triangle", 2)
