"""Simplicial and piecewise-affine maps, approximation, and induced level maps.

A continuous map is represented by its exact values on the vertices of some
subdivision stage of the source, extended affinely.  ``approximate`` searches
for a stage where a vertex assignment satisfies the star condition: the image
of the closed star of every vertex must land inside the open star of the
assigned target vertex.  Such an assignment is automatically simplicial and
straight-line homotopic to the original map.
"""

from __future__ import annotations

from math import lcm
from typing import Mapping, Sequence

from .complexes import RationalPoint, Simplex, SimplicialComplex, _not_in_complex
from .errors import (
    ElementNotFound,
    IncoherentThread,
    InvalidInput,
    InvalidPLMap,
    NotSimplicial,
    SearchExhausted,
    WrongComplex,
    _require_int,
)
from .posets import PosetMap
from .subdivision import (
    SubdividedComplex,
    _barycenter_label,
    _carrier_mean,
    _numerators,
    _weighted_sum,
    extend_subdivision,
    lift_point,
    subdivide,
)
from .tower import ThreadPrefix, Tower, _require_entries


class SimplicialMap:
    """A vertex-to-vertex map between complexes."""

    __slots__ = ("source", "target", "vertex_map")

    def __init__(self, source: SimplicialComplex, target: SimplicialComplex,
                 vertex_map: Mapping[str, str]):
        tverts = set(target.vertices)
        for v in source.vertices:
            if v not in vertex_map:
                raise ElementNotFound(f"no image for vertex {v!r}")
            if vertex_map[v] not in tverts:
                raise ElementNotFound(f"image {vertex_map[v]!r} not in target")
        self.source = source
        self.target = target
        self.vertex_map = dict(vertex_map)

    @classmethod
    def identity(cls, K: SimplicialComplex) -> "SimplicialMap":
        return cls(K, K, {v: v for v in K.vertices})

    @classmethod
    def constant(cls, K: SimplicialComplex, T: SimplicialComplex, w: str) -> "SimplicialMap":
        return cls(K, T, {v: w for v in K.vertices})

    def __call__(self, v: str) -> str:
        try:
            return self.vertex_map[v]
        except (KeyError, TypeError):
            raise ElementNotFound(repr(v)) from None

    def apply_simplex(self, s: Simplex) -> Simplex:
        if not isinstance(s, Simplex) or s not in self.source.simplices:
            raise _not_in_complex(s)
        return Simplex.of(self.vertex_map[v] for v in s.verts)

    def apply_point(self, p: RationalPoint) -> RationalPoint:
        """The induced map on realizations (requires the map to be simplicial)."""
        if (cx := getattr(p, "complex", None)) is not self.source and cx != self.source:
            raise WrongComplex("point must be over the map's source")
        D, numerators = _numerators(p)
        acc = {}
        for v, a in numerators.items():
            w = self.vertex_map[v]
            acc[w] = acc.get(w, 0) + a
        return RationalPoint._from_numerators(self.target, D, acc)

    def compose(self, inner: "SimplicialMap") -> "SimplicialMap":
        """self after inner."""
        if getattr(inner, "target", None) != self.source:
            raise WrongComplex("composition mismatch")
        return SimplicialMap(inner.source, self.target,
                             {v: self.vertex_map[inner.vertex_map[v]]
                              for v in inner.source.vertices})

    def to_json_obj(self):
        return {"vertex_map": dict(sorted(self.vertex_map.items()))}

    def __eq__(self, other):
        return (isinstance(other, SimplicialMap)
                and self.source == other.source
                and self.target == other.target
                and self.vertex_map == other.vertex_map)

    def __repr__(self):
        return f"SimplicialMap({len(self.source.vertices)} -> {len(self.target.vertices)} vertices)"


def validate_simplicial(g: SimplicialMap) -> bool:
    """True iff every simplex maps to a simplex of the target."""
    try:
        require_simplicial(g)
    except NotSimplicial:
        return False
    return True


def require_simplicial(g: SimplicialMap) -> None:
    """Raise ``NotSimplicial`` at the first source simplex, in canonical order, that fails."""
    for s in g.source.sorted_simplices():
        if g.apply_simplex(s) not in g.target.simplices:
            raise NotSimplicial(
                f"simplex {s.label()} maps to {g.apply_simplex(s).label()},"
                " not a simplex of the target")


def sd_map(g: SimplicialMap,
           source_stage: SubdividedComplex | None = None,
           target_stage: SubdividedComplex | None = None) -> SimplicialMap:
    """Subdivide a simplicial map: each barycenter goes to the image barycenter."""
    require_simplicial(g)
    if source_stage is None:
        source_stage = subdivide(g.source, 1)
    if target_stage is None:
        target_stage = subdivide(g.target, 1)
    if (source_stage.previous is None or target_stage.previous is None
            or source_stage.previous.complex != g.source
            or target_stage.previous.complex != g.target):
        raise WrongComplex("stages do not match the map's endpoints")
    assignment = next(_subdivided(g.vertex_map, [source_stage.provenance]))
    return SimplicialMap(source_stage.complex, target_stage.complex, assignment)


def _subdivided(vertex_map: Mapping[str, str], carriers):
    """Yield the vertex map subdivided once per carrier table, in turn.

    A label goes to the barycenter label of its carrier's image, and stage
    k's provenance is the same dict as level k's carrier.
    """
    for carrier in carriers:
        vertex_map = {lab: _barycenter_label(sorted({vertex_map[v] for v in s.verts}))
                      for lab, s in carrier.items()}
        yield vertex_map


def iterated_sd_map(g: SimplicialMap, n: int,
                    source_tower: Tower | None = None,
                    target_tower: Tower | None = None) -> SimplicialMap:
    """The n-fold subdivision of g: the last map of the walk of g's level maps.

    g, the towers' base complexes and n are checked as ``induce_level_map``
    checks them (``_level_assignments``), at level 1 for n < 1, which gives
    g itself.  A tower not given is built to depth n over its endpoint.
    """
    _require_int(n, "subdivision stage")
    depth = max(n, 1)
    source = source_tower or Tower.build(g.source, depth)
    target = target_tower or Tower.build(g.target, depth)
    walk = _level_assignments(g, depth, source, target)
    if n < 1:
        return g
    *_, assignment = walk
    return SimplicialMap(source.stage(n).complex, target.stage(n).complex, assignment)


class PLMap:
    """A map defined by exact vertex images at a subdivision stage of the source.

    The images of the vertices of every simplex must lie in a common closed
    simplex of the target, so the affine extension is well defined.
    """

    __slots__ = ("source_stage", "target", "images", "_image_numerators")

    def __init__(self, source_stage: SubdividedComplex, target: SimplicialComplex,
                 images: Mapping[str, RationalPoint]):
        cx = source_stage.complex
        for v in cx.vertices:
            if v not in images:
                raise ElementNotFound(f"no image for vertex {v!r}")
            if images[v].complex != target:
                raise InvalidPLMap(f"image of {v!r} is not a point of the target")
        for s in cx.sorted_simplices():
            hull = Simplex.of(
                w for v in s.verts for w in _numerators(images[v])[1])
            if hull not in target.simplices:
                raise InvalidPLMap(
                    f"vertex images of {s.label()} span {hull.label()},"
                    " which is not a simplex of the target")
        self.source_stage = source_stage
        self.target = target
        self.images = dict(images)
        # (D, {vertex: {target vertex: numerator}}): every image over one common D
        pairs = {v: _numerators(q) for v, q in self.images.items()}
        D = lcm(*(Dq for Dq, _ in pairs.values()))
        self._image_numerators = (D, {
            v: {w: a * (D // Dq) for w, a in numerators.items()}
            for v, (Dq, numerators) in pairs.items()})

    @property
    def source(self) -> SimplicialComplex:
        return self.source_stage.base

    @property
    def stage(self) -> int:
        return self.source_stage.stage

    def evaluate(self, p: RationalPoint) -> RationalPoint:
        """Value at a point expressed over the defining stage."""
        if getattr(p, "complex", None) != self.source_stage.complex:
            raise WrongComplex("point must be over the map's defining stage")
        D, images = self._image_numerators
        Dp, weights = _numerators(p)
        return RationalPoint._from_numerators(
            self.target, Dp * D, _weighted_sum((w, images[v]) for v, w in weights.items()))

    def evaluate_base(self, p: RationalPoint) -> RationalPoint:
        """Value at a stage-0 point of the source."""
        return self.evaluate(lift_point(self.source_stage, p))

    def to_json_obj(self):
        return {
            "source": self.source.to_json_obj(),
            "target": self.target.to_json_obj(),
            "stage": self.stage,
            "images": {v: self.images[v].to_json_obj()
                       for v in self.source_stage.complex.vertices},
        }

    @classmethod
    def from_json_obj(cls, obj, guard=None) -> "PLMap":
        """Parse a PL map; ``guard(source, stage)``, if given, runs before subdividing."""
        if not isinstance(obj, dict):
            raise InvalidInput(f"a PL map must be a JSON object, not {type(obj).__name__}")
        for key in ("source", "target"):
            if key not in obj:
                raise InvalidInput(f"a PL map needs a {key!r} complex")
        source = SimplicialComplex.from_json_obj(obj["source"])
        target = SimplicialComplex.from_json_obj(obj["target"])
        n = obj.get("stage", 0)
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise InvalidInput(f"a PL map stage must be a non-negative integer, not {n!r}")
        raw_images = obj.get("images", {})
        if not isinstance(raw_images, dict):
            raise InvalidInput(
                f"PL map images must be an object of vertex points, not {raw_images!r}")
        images = {v: RationalPoint.from_json_obj(target, raw)
                  for v, raw in raw_images.items()}
        # base vertices persist through every stage, so a missing one is
        # refused before the source is subdivided
        for v in source.vertices:
            if v not in images:
                raise ElementNotFound(f"no image for vertex {v!r}")
        if guard is not None:
            guard(source, n)
        return cls(subdivide(source, n), target, images)

    def __repr__(self):
        return f"PLMap(stage={self.stage}, {len(self.images)} vertex images)"


def _star_vertices(cx: SimplicialComplex) -> dict:
    """For each vertex, the vertex set of its closed star (itself included)."""
    out = {v: {v} for v in cx.vertices}
    for e in cx.k_simplices(1):
        a, b = e.verts
        out[a].add(b)
        out[b].add(a)
    return out


def approximate(h: PLMap, cap: int = 4):
    """Find the least stage admitting a star-condition vertex assignment.

    Returns (n, f) where f maps stage-n vertices of the source into the
    target: for every vertex v the image of its closed star is contained in
    the open star of f(v), with ties broken by the least admissible target
    vertex.  Raises SearchExhausted past the cap.
    """
    stage, f = _approximate_stage(h, cap)
    return stage.stage, f


def _approximate_stage(h: PLMap, cap: int):
    """``approximate``, returning the stage the search reached in place of its number."""
    _require_int(cap, "cap")
    targets = h.target.vertices
    for stage, _, values in _stage_values(h, cap):
        stars = _star_vertices(stage.complex)
        assignment = {}
        for v in stage.complex.vertices:
            chosen = None
            for w in targets:
                if all(values[u].get(w, 0) > 0 for u in stars[v]):
                    chosen = w
                    break
            if chosen is None:
                assignment = None
                break
            assignment[v] = chosen
        if assignment is not None:
            f = SimplicialMap(stage.complex, h.target, assignment)
            require_simplicial(f)
            return stage, f
    raise SearchExhausted(cap)


def _stage_values(h: PLMap, last: int):
    """Yield ``(stage, D, values)`` for stages ``h.stage`` to ``last`` of the source.

    ``values`` maps each stage vertex to its image under h as
    ``{target vertex: numerator}`` over D.  h is affine on the carrier of a new
    vertex, so the vertex's value is the carrier mean of the values one stage
    down, and D gains a factor L per stage.  The means are taken by vertex id.
    """
    stage = h.source_stage
    D, images = h._image_numerators
    values = [images[v] for v in stage._vertex_names()]
    for n in range(h.stage, last + 1):
        if n > stage.stage:
            stage = extend_subdivision(stage, n)
            values = [_carrier_mean(s, values.__getitem__, stage._scale)
                      for s in stage.previous._simplices]
            D *= stage._scale
        yield stage, D, dict(zip(stage._vertex_names(), values))


def carrier_homotopy_check(h: PLMap, f: SimplicialMap,
                           samples: Sequence[RationalPoint],
                           source_stage: SubdividedComplex) -> bool:
    """Straight-line homotopy witness: h(x) and |f|(x) share a closed simplex.

    Samples are points over f's source (stage n); the check is exact.
    """
    if getattr(f, "source", None) != source_stage.complex:
        raise WrongComplex("stage does not match the simplicial map's source")
    for x in samples:
        hx = h.evaluate_base(source_stage.embed_point(x))
        fx = f.apply_point(x)
        hull = hx.support().union(fx.support())
        if hull not in h.target.simplices:
            return False
    return True


def homotopy_sample_points(cx: SimplicialComplex):
    """All vertices plus all edge midpoints, as exact points."""
    samples = [RationalPoint.vertex(cx, v) for v in cx.vertices]
    samples.extend(RationalPoint.barycenter(cx, e) for e in cx.k_simplices(1))
    return samples


def _level_assignments(g: SimplicialMap, n: int,
                       source_tower: Tower, target_tower: Tower):
    """g's level vertex maps on levels 1..n, after checking g, the endpoints and n, in that order.

    A subdivided simplicial map is simplicial, so only g itself is checked.
    """
    require_simplicial(g)
    if g.source != source_tower.base or g.target != target_tower.base:
        raise WrongComplex("towers do not match the map's endpoints")
    source_tower.level(n)
    target_tower.level(n)
    return _subdivided(g.vertex_map, (level.carrier for level in source_tower.levels[:n]))


def induce_level_map(g: SimplicialMap, n: int,
                     source_tower: Tower, target_tower: Tower) -> PosetMap:
    """The level-n poset map: the n-fold subdivision of g on level n's elements."""
    *_, assignment = _level_assignments(g, n, source_tower, target_tower)
    return PosetMap(source_tower.level(n).poset, target_tower.level(n).poset, assignment)


def check_naturality(g: SimplicialMap, n: int,
                     samples: Sequence[RationalPoint],
                     source_tower: Tower, target_tower: Tower) -> bool:
    """Projection-square tests of the samples and bond-square tests on every level 1..n."""
    return SystemMorphism._up_to(g, n, source_tower, target_tower)._commutes(samples)


class SystemMorphism:
    """A simplicial map together with all its induced level maps."""

    __slots__ = ("g", "source_tower", "target_tower", "levels")

    def __init__(self, g: SimplicialMap, source_tower: Tower, target_tower: Tower,
                 levels: Sequence[PosetMap]):
        self.g = g
        self.source_tower = source_tower
        self.target_tower = target_tower
        self.levels = tuple(levels)

    @classmethod
    def build(cls, g: SimplicialMap, source_tower: Tower,
              target_tower: Tower) -> "SystemMorphism":
        return cls._up_to(g, min(source_tower.depth, target_tower.depth),
                          source_tower, target_tower)

    @classmethod
    def _up_to(cls, g: SimplicialMap, n: int,
               source_tower: Tower, target_tower: Tower) -> "SystemMorphism":
        """The morphism on levels 1..n, from one walk that reads each carrier table once."""
        walk = _level_assignments(g, n, source_tower, target_tower)
        return cls(g, source_tower, target_tower,
                   [PosetMap(src.poset, dst.poset, assignment) for src, dst, assignment
                    in zip(source_tower.levels, target_tower.levels, walk)])

    @property
    def depth(self) -> int:
        return len(self.levels)

    # Tower.level's checks and lookup, over this morphism's levels and depth
    level = Tower.level

    def validate(self) -> bool:
        """Order preservation of every level plus the bond intertwining squares."""
        return all(m.is_order_preserving() for m in self.levels) and self._commutes()

    def _commutes(self, samples: Sequence[RationalPoint] = ()) -> bool:
        """The projection squares of the samples, each projected once, and the bond squares."""
        source, target, levels, depth = self.source_tower, self.target_tower, self.levels, self.depth
        squares = all(gn(x) == y
                      for p in samples
                      for gn, x, y in zip(levels, source._projections(p, depth),
                                          target._projections(self.g.apply_point(p), depth)))
        return squares and all(target.bond(gn(x), n, n - 1) == below(source.bond(x, n, n - 1))
                               for n, gn, below in zip(range(2, depth + 1), levels[1:], levels)
                               for x in source.level(n).elements)


def limit_map(m: SystemMorphism, t: ThreadPrefix) -> ThreadPrefix:
    """Apply a system morphism entrywise to a coherent thread."""
    if getattr(t, "tower", None) is not m.source_tower:
        raise WrongComplex("thread does not belong to the morphism's source tower")
    _require_entries(t.entries)
    if len(t.entries) > m.depth:
        raise IncoherentThread("thread deeper than the morphism's levels")
    m.source_tower._require_coherent(t)
    entries = tuple(m.level(n)(x) for n, x in enumerate(t.entries, start=1))
    return ThreadPrefix(m.target_tower, entries)
