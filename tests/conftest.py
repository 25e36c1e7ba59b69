from __future__ import annotations

import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

import pytest
from hypothesis import settings, strategies as st

from poset_tower import (
    RationalPoint,
    Simplex,
    SimplicialComplex,
    Tower,
    dist_sq,
    open_star,
    stage_vertex_label,
)
from poset_tower.subdivision import barycenters
from poset_tower.fixtures import (
    circle,
    edge,
    point,
    tetra_boundary,
    triangle,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


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


def sd_reference(coords: dict) -> dict:
    """One subdivision step on ``{label: Fraction}``, from the definition.

    A point with coordinates a lies in the open simplex of sd(K) spanned by
    the barycenters of its level sets S_t = {v : a_v >= t}, for t running over
    the distinct positive coordinate values.  With t' the next smaller value
    (0 after the last), the barycenter of S_t has weight |S_t| * (t - t').
    """
    values = sorted(set(coords.values()), reverse=True)
    out = {}
    for t, below in zip(values, values[1:] + [Fraction(0)]):
        level_set = Simplex(v for v, a in coords.items() if a >= t)
        out[stage_vertex_label(level_set)] = len(level_set) * (t - below)
    return out


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: partitions of n things into k blocks."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def sd_counts_reference(counts: tuple, n: int) -> tuple:
    """The f-vector of sd^n K from the f-vector of K, without building a stage.

    A k-simplex of sd K whose top face is a j-simplex of K is an ordered
    partition of that simplex's j+1 vertices into k+1 blocks (the vertices
    each face of the chain adds), so f_k(sd K) = sum_j f_j(K) (k+1)! S(j+1, k+1).
    """
    for _ in range(n):
        counts = tuple(sum(f * factorial(k + 1) * stirling2(j + 1, k + 1)
                           for j, f in enumerate(counts))
                       for k in range(len(counts)))
    return counts


def embedding_reference(stage, start: int = 0) -> dict:
    """Each stage-n vertex's point over stage ``start``, as ``{vertex: Fraction}``.

    Written from the definition: a vertex of stage ``start`` is its own point,
    and a later vertex is the barycenter of its carrier, the mean of the
    points of the carrier's members one stage down.
    """
    chain = stage.stage_chain()
    points = {v: {v: Fraction(1)} for v in chain[start].complex.vertices}
    for s in chain[start + 1:]:
        means = {}
        for label, carrier in s.provenance.items():
            mean = {}
            for m in carrier.verts:
                for v, a in points[m].items():
                    mean[v] = mean.get(v, 0) + a / len(carrier.verts)
            means[label] = mean
        points = means
    return points


def affine_reference(weights: dict, points: dict) -> dict:
    """The combination of ``points`` (``{vertex: Fraction}`` each) with these weights."""
    out = {}
    for u, a in weights.items():
        for v, b in points[u].items():
            out[v] = out.get(v, 0) + a * b
    return out


def pl_values_reference(h, stage) -> dict:
    """h's value at each vertex of a later source stage, as ``{target vertex: Fraction}``.

    h is affine on every simplex of its defining stage, so a vertex's value is
    its point over that stage weighting the vertex images.
    """
    images = {u: q.coords for u, q in h.images.items()}
    return {v: affine_reference(point, images)
            for v, point in embedding_reference(stage, h.stage).items()}


def sd_map_reference(vertex_map: dict, stage) -> dict:
    """The vertex map of a simplicial map subdivided up to this stage, from the definition.

    A stage-k vertex is the barycenter of its carrier, and the subdivided map
    sends it to the barycenter of the carrier's image one stage down.
    """
    for s in stage.stage_chain()[1:]:
        vertex_map = {label: stage_vertex_label(Simplex.of(vertex_map[v] for v in carrier.verts))
                      for label, carrier in s.provenance.items()}
    return vertex_map


class LabelTower:
    """The tower built on labels, as it was before stages numbered their vertices.

    Each stage keeps its simplices as ``Simplex``es of labels and its
    barycenter table ``{label: simplex}`` (``barycenters``, with its clash
    check); the next stage is the chains of the table's face order, and a
    bond walks to the member with the largest carrier.  Points are lifted on
    ``{label: numerator}`` and embedded by carrier means of ``Fraction``s.
    """

    def __init__(self, K: SimplicialComplex, depth: int):
        self.base = K
        self.depth = depth
        self.simplices = [list(K.simplices)]
        self.carriers = []
        for k in range(depth):
            self.carriers.append(barycenters(self.simplices[k]))
            self.simplices.append(label_chains(label_face_table(self.carriers[k])))

    def complex(self, k: int) -> SimplicialComplex:
        vertices = self.base.vertices if k == 0 else self.carriers[k - 1]
        return SimplicialComplex(vertices, self.simplices[k])

    def provenance(self, k: int) -> dict:
        return {} if k == 0 else self.carriers[k - 1]

    def down_sets(self, n: int) -> dict:
        """Level n's order: each element's down-set, itself and its carrier's faces."""
        return {x: frozenset((x, *faces))
                for x, faces in label_face_table(self.carriers[n - 1]).items()}

    def bond(self, x: str, m: int, n: int) -> str:
        for k in range(m, n, -1):
            x = largest_carrier(self.carriers[k - 1][x].verts, self.carriers[k - 2])
        return x

    def encode(self, p: RationalPoint, N: int) -> tuple:
        coords = dict(p.coords)
        entries = [stage_vertex_label(Simplex(coords))]
        for _ in range(N - 1):
            coords = sd_reference(coords)
            entries.append(stage_vertex_label(Simplex(coords)))
        return tuple(entries)

    def decode(self, entries) -> tuple:
        """The decoded chain and the representative's coordinates."""
        chain = tuple(frozenset(self.carriers[n][x].verts) for n, x in enumerate(entries))
        points = {v: {v: Fraction(1)} for v in self.base.vertices}
        for carrier in self.carriers[:len(entries)]:
            means = {}
            for x, s in carrier.items():
                mean = means[x] = {}
                for m in s.verts:
                    for v, a in points[m].items():
                        mean[v] = mean.get(v, 0) + a / len(s.verts)
            points = means
        return chain, points[entries[-1]]


def label_face_table(carrier: dict) -> dict:
    """Each label of a carrier table mapped to the labels of its carrier's proper faces."""
    label_of = {s.verts: lab for lab, s in carrier.items()}
    return {lab: [label_of[f] for k in range(1, len(s.verts))
                  for f in combinations(s.verts, k)]
            for lab, s in carrier.items()}


def label_chains(below: dict) -> list:
    """Every nonempty chain of a strict order given by its strict down-sets, as ``Simplex``es."""
    chains = []
    for x in below:
        stack = [(x, (x,))]
        while stack:
            top, path = stack.pop()
            chains.append(Simplex(path))
            for y in below[top]:
                stack.append((y, path + (y,)))
    return chains


def largest_carrier(members, carrier: dict) -> str:
    """The member whose simplex in ``carrier`` (a label table) is largest."""
    return max(members, key=lambda u: len(carrier[u].verts))


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
