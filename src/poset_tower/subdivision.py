"""Iterated barycentric subdivision with provenance and exact point transport.

Stage-n vertices are barycenters of stage-(n-1) simplices and carry canonical
nested labels: the barycenter of a single vertex keeps that vertex's label
(vertices persist through subdivision), and the barycenter of ``{a,b}`` is
labelled ``b{a,b}``, so a stage-2 vertex may read ``b{a,b{a,b}}``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import lcm
from operator import itemgetter

from .complexes import RationalPoint, Simplex, SimplicialComplex
from .errors import ElementNotFound, InvalidComplex
from .posets import _chains


def stage_vertex_label(simplex: Simplex) -> str:
    """Canonical label of the barycenter vertex of a simplex."""
    return _barycenter_label(simplex.verts)


def _barycenter_label(verts) -> str:
    """``stage_vertex_label`` of the simplex with these sorted, distinct vertices."""
    if len(verts) == 1:
        return verts[0]
    return "b{" + ",".join(verts) + "}"


class SubdividedComplex:
    """One stage of the barycentric subdivision chain of a base complex.

    ``previous`` links back to the prior stage (None at stage 0), and
    ``provenance`` maps every stage-n vertex label to the stage-(n-1) simplex
    it is the barycenter of (the previous stage's ``_barycenters``).  It
    iterates in an unspecified order; ``complex.vertices`` is the canonical one.
    A stage keeps its simplices as a list: past stage 0, the chains of the
    previous stage's face order.  ``complex`` (the base itself at stage 0)
    and the label table ``_barycenters`` are each built from that list on
    first read, and neither builds the other: the thread codec builds no
    complex, and the last stage of a chain read only as a complex is never
    labelled.
    """

    def __init__(self, base, stage, simplices, provenance, previous):
        self.base = base
        self.stage = stage
        self.provenance = provenance
        self.previous = previous
        self._simplices = simplices
        # L = lcm(1, ..., dim K + 1): every carrier has at most dim K + 1
        # members, so each carrier mean scales numerators by an integer L/|members|
        # and a stage-n embedding has integer numerators over L**n.
        self._scale = lcm(*range(1, base.dim + 2))
        self._denominator = self._scale ** stage
        self._embed: dict[str, dict] = {}

    @cached_property
    def complex(self) -> SimplicialComplex:
        """This stage as a complex, built once on first read; chains are face closed."""
        if self.previous is None:
            return self.base
        return SimplicialComplex._face_closed(self.provenance.keys(), self._simplices)

    @cached_property
    def _barycenters(self) -> dict:
        """``barycenters`` of this stage, computed once; the next stage's provenance."""
        return barycenters(self._simplices)

    def carrier(self, label: str) -> Simplex:
        """The stage-(n-1) simplex whose barycenter this vertex is."""
        if self.stage == 0:
            raise ElementNotFound("stage 0 vertices have no carrier")
        try:
            return self.provenance[label]
        except KeyError:
            raise ElementNotFound(repr(label)) from None

    def stage_chain(self):
        """Stages 0..n in order."""
        chain = []
        cur = self
        while cur is not None:
            chain.append(cur)
            cur = cur.previous
        return list(reversed(chain))

    def embed_vertex(self, label: str) -> RationalPoint:
        """The stage-0 point of a stage-n vertex, computed exactly."""
        return RationalPoint._from_numerators(
            self.base, self._denominator, self._embed_numerators(label))

    def _embed_numerators(self, label: str) -> dict:
        """``embed_vertex`` as ``{base vertex: numerator}`` over L**n, cached."""
        cached = self._embed.get(label)
        if cached is not None:
            return cached
        if self.stage == 0:
            if not self.complex.has_vertex(label):
                raise ElementNotFound(repr(label))
            numerators = {label: 1}
        else:
            numerators = self.previous._barycenter_numerators(self.carrier(label).verts)
        self._embed[label] = numerators
        return numerators

    def _barycenter_numerators(self, verts) -> dict:
        """The stage-0 point of the barycenter of these stage-n vertices, over L**(n+1)."""
        return _carrier_mean(verts, self._embed_numerators, self._scale)

    def _barycenter_point(self, verts) -> RationalPoint:
        """The stage-0 point of the barycenter of these stage-n vertices."""
        return RationalPoint._from_numerators(
            self.base, self._denominator * self._scale, self._barycenter_numerators(verts))

    def embed_point(self, p: RationalPoint) -> RationalPoint:
        """Expand a point over this stage into exact stage-0 coordinates."""
        if p.complex != self.complex:
            raise ValueError("point is not expressed over this stage")
        D, numerators = _numerators(p)
        return RationalPoint._from_numerators(self.base, D * self._denominator, _weighted_sum(
            (a, self._embed_numerators(v)) for v, a in numerators.items()))

    def to_json_obj(self):
        return {
            "base": self.base.to_json_obj(),
            "stage": self.stage,
            "complex": self.complex.to_json_obj(),
            "provenance": [
                {
                    "stage": s.stage,
                    "carriers": {lab: list(sim.verts)
                                 for lab, sim in sorted(s.provenance.items())},
                }
                for s in self.stage_chain()
                if s.stage >= 1
            ],
        }

    def __repr__(self):
        vertices = len(self.provenance) if self.stage else len(self.base.vertices)
        return (f"SubdividedComplex(stage={self.stage}, SimplicialComplex("
                f"{vertices} vertices, {len(self._simplices)} simplices))")


def barycenters(simplices) -> dict:
    """Each of these distinct simplices by barycenter label; rejects clashing labels.

    ``simplices`` is a complex's simplex set or a stage's chain list.  The
    table iterates in their order, which may be unspecified; sort it where
    order shows.  Once a collision is known, the simplices are walked again
    in canonical order, so the error names the least pair under any hash seed.
    """
    try:
        return _label_table(simplices)
    except InvalidComplex:
        _label_table(sorted(simplices))
        raise


def _label_table(simplices) -> dict:
    """``{barycenter label: simplex}``; raises at the first label seen twice."""
    out = {}
    for s in simplices:
        lab = _barycenter_label(s.verts)
        if out.setdefault(lab, s) is not s:
            raise InvalidComplex(
                f"stage vertex label {lab!r} names both {out[lab].label()}"
                f" and {s.label()}")
    return out


def _carrier_mean(members, value_below, scale: int) -> dict:
    """The value at the barycenter of a carrier: the mean of ``value_below`` over its members.

    Values are ``{label: numerator}`` over a common denominator D; the mean is
    returned over D * scale, which is exact when ``len(members)`` divides
    ``scale``.  A map that is affine on the carrier takes its barycenter to the
    average of the members' values.
    """
    w = scale // len(members)
    return _weighted_sum((w, value_below(m)) for m in members)


def _weighted_sum(terms) -> dict:
    """The sum of ``w * vector`` over ``(w, {label: numerator})`` pairs."""
    total = {}
    for w, vector in terms:
        for v, a in vector.items():
            total[v] = total.get(v, 0) + w * a
    return total


def _face_table(carrier: dict) -> dict:
    """Each label of a carrier table mapped to the labels of its carrier's proper faces.

    Face closure makes every proper subset of a carrier a carrier too, so the
    faces come from ``combinations`` through one ``{verts: label}`` lookup.
    """
    label_of = {s.verts: lab for lab, s in carrier.items()}
    return {lab: [label_of[f] for k in range(1, len(s.verts))
                  for f in combinations(s.verts, k)]
            for lab, s in carrier.items()}


def _sd_once(prev: SubdividedComplex) -> SubdividedComplex:
    """One barycentric subdivision step: the chains of the previous stage's face order."""
    provenance = prev._barycenters
    chains = _chains(_face_table(provenance), "subdivision")
    return SubdividedComplex(prev.base, prev.stage + 1, chains, provenance, prev)


def subdivide(K: SimplicialComplex, n: int) -> SubdividedComplex:
    """The n-th barycentric subdivision with the full provenance chain."""
    if n < 0:
        raise ValueError("subdivision stage must be >= 0")
    return extend_subdivision(SubdividedComplex(K, 0, K.simplices, {}, None), n)


def extend_subdivision(stage: SubdividedComplex, n: int) -> SubdividedComplex:
    """Continue an existing chain up to stage n, reusing earlier stages."""
    while stage.stage < n:
        stage = _sd_once(stage)
    return stage


def _numerators(p: RationalPoint):
    """``(D, numerators)``: p's stored ``{label: numerator}`` over D; callers must not mutate it."""
    return p._denominator, p._numerators


def _sd_step(numerators: dict) -> dict:
    """One subdivision step on ``{label: numerator}`` with positive numerators.

    Sort the numerators in descending order (ties by label: a sort by label,
    then a stable one by numerator, so no key runs in Python); the weight on the
    barycenter of the j-th prefix of the support is j*(a_j - a_{j+1}).  Ties
    produce zero weights, which are dropped, so the result's support is the
    strict-descent chain regardless of tie order.  The weights telescope to the
    same total, so the common denominator never changes and stays implicit.
    """
    items = sorted(numerators.items())
    items.sort(key=itemgetter(1), reverse=True)
    out = {}
    prefix = []
    for j, (label, a) in enumerate(items, start=1):
        prefix.append(label)
        below = items[j][1] if j < len(items) else 0
        w = j * (a - below)
        if w:
            out[_barycenter_label(sorted(prefix))] = w
    return out


def sd_coordinates(stage: SubdividedComplex, p: RationalPoint) -> RationalPoint:
    """Re-express a stage-(n-1) point over the stage-n vertices (one ``_sd_step``)."""
    if stage.previous is None or p.complex != stage.previous.complex:
        raise ValueError("point must be expressed over the previous stage")
    D, numerators = _numerators(p)
    return RationalPoint._from_numerators(stage.complex, D, _sd_step(numerators))


def lift_point(stage: SubdividedComplex, p: RationalPoint) -> RationalPoint:
    """Push a stage-0 point up the chain into this stage's coordinates."""
    if p.complex != stage.base:
        raise ValueError("point is not over the chain's base complex")
    if stage.stage == 0:
        return p
    D, numerators = _numerators(p)
    for _ in range(stage.stage):
        numerators = _sd_step(numerators)
    return RationalPoint._from_numerators(stage.complex, D, numerators)


def embed_point(stage: SubdividedComplex, p: RationalPoint) -> RationalPoint:
    return stage.embed_point(p)


def mesh_sq_bound(K: SimplicialComplex, n: int) -> Fraction:
    """Upper bound for the squared diameter of any closed simplex at stage n.

    Any two points of a closed simplex are at squared distance at most 2 in
    barycentric coordinates, and each subdivision of a d-complex contracts
    diameters by d/(d+1).
    """
    if n < 0:
        raise ValueError("stage must be >= 0")
    return _mesh_sq(K.dim, n)


@lru_cache(maxsize=256)
def _mesh_sq(d: int, n: int) -> Fraction:
    """``mesh_sq_bound`` of a d-complex at stage n."""
    if d <= 0:
        return Fraction(0)
    return 2 * Fraction(d, d + 1) ** (2 * n)
