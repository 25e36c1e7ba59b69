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
from .errors import ElementNotFound, InvalidComplex, NegativeStage, WrongComplex, _require_int
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

    Vertices are numbered: stage-0 ids follow the canonical vertex order, and
    the stage-(n+1) vertex i is the barycenter of stage-n simplex i.  A stage
    keeps its simplices as a list of sorted id tuples, each after all of its
    faces: at stage 0 by size, past it the chains of the previous stage's
    face order as ``posets._chains`` lists them, which extends a chain only
    by an element above all of its members.  So ids increase along every
    chain, every proper face has a smaller id, and a chain's top, the member
    with the largest carrier and the tower's one-step bond, is its last id.
    ``previous`` links back to the prior stage (None at stage 0).

    Ids 0..V-1 of every stage are the V base vertices in canonical order
    (stage 0 lists its vertices first, and ``posets._chains`` lists each
    chain ``(x,)`` before any longer one).  A vertex is its own barycenter,
    so these ids keep their base names and embeddings, and only ids past
    them read the stage below.  A 0-dimensional base has no other id; a base
    with an edge has over 2**(n+1) simplices at stage n, so reads that
    recurse one stage down per step stay a few dozen stages deep.

    Labels only name vertices.  A barycenter's label is rendered on first
    use and kept (``_name``); ``_barycenter_id`` turns a label back into an
    id, labelling the whole stage on its first miss.  ``provenance`` maps
    every stage-n vertex label to the stage-(n-1) simplex it is the
    barycenter of (the previous stage's ``_barycenters``); it iterates in
    an unspecified order, while ``complex.vertices`` is the canonical one.
    ``complex`` (the base itself at stage 0) and the label table
    ``_barycenters`` are each built on first read, and neither builds the
    other: the thread codec builds neither.

    Over a base with no vertex name that is empty or holds ``{``, ``}`` or
    ``,``, labels are unambiguous and a label that is new at stage n has
    nesting depth exactly n, so no two vertices of a stage share a label.
    Over any other base (``_eager``), a stage is labelled in full, and a
    repeated label refused, when it is subdivided or read as a level.
    """

    def __init__(self, base, stage, simplices, previous):
        self.base = base
        self.stage = stage
        self.previous = previous
        self._simplices = simplices
        if previous is None:
            self._base_ids = _base_ids(base)
            self._eager = "" in base.vertices or not _ATOM.isdisjoint("".join(base.vertices))
        else:
            self._base_ids = previous._base_ids
            self._eager = previous._eager
        self._base_count = len(base.vertices)
        self._embed: dict[int, dict] = {}
        # L = lcm(1, ..., dim K + 1): every carrier has at most dim K + 1
        # members, so each carrier mean scales numerators by an integer L/|members|
        # and a stage-n embedding has integer numerators over L**n.
        self._scale = lcm(*range(1, base.dim + 2))
        self._denominator = self._scale ** stage
        self._names = None
        self._ids: dict[str, int] = {}
        self._verts: dict[int, tuple] = {}

    @property
    def provenance(self) -> dict:
        """``{stage-n vertex label: stage-(n-1) simplex}``; empty at stage 0."""
        return {} if self.previous is None else self.previous._barycenters

    @cached_property
    def complex(self) -> SimplicialComplex:
        """This stage as a complex, built once on first read; chains are face closed."""
        if self.previous is None:
            return self.base
        return SimplicialComplex._face_closed(self._vertex_names(), self._carriers)

    @cached_property
    def _barycenters(self) -> dict:
        """``{barycenter label: simplex}`` of this stage, built once; the next stage's provenance."""
        return dict(zip(self._labels, self._carriers))

    @cached_property
    def _carriers(self) -> list:
        """Each simplex of this stage as a ``Simplex`` of vertex labels, by id."""
        return list(map(Simplex._of_sorted, _sorted_labels(self._simplices, self._vertex_names())))

    @cached_property
    def _labels(self) -> list:
        """Every barycenter label of this stage, by simplex id, built once.

        The first V are the base vertices' names; only the ids past them are
        rendered, from the previous stage's labels, so a stage with no
        simplex past the base vertices reads no stage below.
        """
        V = self._base_count
        names = list(self.base.vertices)
        if len(self._simplices) > V:
            names += map(_barycenter_label, _sorted_labels(self._simplices[V:], self._vertex_names()))
        if self._eager and len(set(names)) < len(names):
            _refuse_label_clash(self._carriers)
        self._names = names
        return names

    def _label_if_eager(self) -> None:
        """Label this stage in full, refusing a clash, if its base's names are not atoms."""
        if self._eager:
            self._labels

    def _name(self, i: int) -> str:
        """The label of the barycenter of simplex i, rendered on first use and kept.

        Below V it is a base vertex's name; past it, it is rendered from its
        members' labels, each read the same way one stage down.
        """
        names = self._names
        if names is not None and names[i] is not None:
            return names[i]
        if names is None:
            names = self._names = [None] * len(self._simplices)
        label = names[i] = (self.base.vertices[i] if i < self._base_count
                            else _barycenter_label(self._carrier_verts(i)))
        self._ids[label] = i
        return label

    def _carrier_verts(self, i: int) -> tuple:
        """The sorted vertex labels of simplex i, kept once computed: decoding reads them."""
        verts = self._verts.get(i)
        if verts is None:
            verts = self._verts[i] = tuple(sorted(self._member_names(self._simplices[i])))
        return verts

    def _member_names(self, simplex) -> list:
        """The labels of these vertices of this stage."""
        name = self.base.vertices.__getitem__ if self.previous is None else self.previous._name
        return list(map(name, simplex))

    def _vertex_names(self):
        """Every vertex label of this stage, by id."""
        return self.base.vertices if self.previous is None else self.previous._labels

    def _barycenter_id(self, label):
        """The id of the simplex of this stage whose barycenter has this label, or None.

        A label already rendered is found in the memo; on a miss the whole
        stage is labelled once (``_label_ids``) and the lookup is final.
        """
        if not isinstance(label, str):
            return None
        i = self._ids.get(label)
        if i is not None:
            return i
        return self._label_ids().get(label)

    def _label_ids(self) -> dict:
        """``{barycenter label: simplex id}`` over the whole stage, which it labels if need be."""
        if len(self._ids) < len(self._simplices):
            self._ids = dict(zip(self._labels, range(len(self._simplices))))
        return self._ids

    @cached_property
    def _vertex_ids(self) -> dict:
        """``{vertex label: id}`` over the whole stage, built once."""
        return self._base_ids if self.previous is None else self.previous._label_ids()

    def _vertex_id(self, label) -> int:
        """The id of the vertex of this stage with this label; ``ElementNotFound`` if none."""
        if not isinstance(label, str):
            raise ElementNotFound(repr(label))
        v = self._base_ids.get(label) if self.previous is None else self.previous._barycenter_id(label)
        if v is None:
            raise ElementNotFound(repr(label))
        return v

    @cached_property
    def _index(self) -> dict:
        """``{simplex: id}`` over this stage's sorted id tuples."""
        return {s: i for i, s in enumerate(self._simplices)}

    def carrier(self, label: str) -> Simplex:
        """The stage-(n-1) simplex whose barycenter this vertex is."""
        if self.stage == 0:
            raise ElementNotFound("stage 0 vertices have no carrier")
        return Simplex._of_sorted(self.previous._carrier_verts(self._vertex_id(label)))

    def stage_chain(self):
        """Stages 0..n in order."""
        chain = []
        stage = self
        while stage is not None:
            chain.append(stage)
            stage = stage.previous
        chain.reverse()
        return chain

    def embed_vertex(self, label: str) -> RationalPoint:
        """The stage-0 point of a stage-n vertex, computed exactly."""
        return self._vertex_point(self._vertex_id(label))

    def _vertex_point(self, v: int) -> RationalPoint:
        """``embed_vertex`` of vertex v."""
        return RationalPoint._from_numerators(self.base, self._denominator, self._embed_numerators(v))

    def _embed_numerators(self, v: int) -> dict:
        """``embed_vertex`` of vertex v as ``{base vertex: numerator}`` over L**n, cached past V."""
        if v < self._base_count:
            return {self.base.vertices[v]: self._denominator}
        cached = self._embed.get(v)
        if cached is None:
            prev = self.previous
            cached = self._embed[v] = prev._barycenter_numerators(prev._simplices[v])
        return cached

    def _barycenter_numerators(self, members) -> dict:
        """The stage-0 point of the barycenter of these stage-n vertices, over L**(n+1)."""
        return _carrier_mean(members, self._embed_numerators, self._scale)

    def _barycenter_point(self, members) -> RationalPoint:
        """The stage-0 point of the barycenter of these stage-n vertices."""
        return RationalPoint._from_numerators(
            self.base, self._denominator * self._scale, self._barycenter_numerators(members))

    def embed_point(self, p: RationalPoint) -> RationalPoint:
        """Expand a point over this stage into exact stage-0 coordinates."""
        if getattr(p, "complex", None) != self.complex:
            raise WrongComplex("point is not expressed over this stage")
        D, numerators = _numerators(p)
        ids = self._vertex_ids
        return RationalPoint._from_numerators(self.base, D * self._denominator, _weighted_sum(
            (a, self._embed_numerators(ids[v])) for v, a in numerators.items()))

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
        vertices = len(self.previous._simplices) if self.previous else len(self.base.vertices)
        return (f"SubdividedComplex(stage={self.stage}, SimplicialComplex("
                f"{vertices} vertices, {len(self._simplices)} simplices))")


def _sorted_labels(simplices, names):
    """Each simplex's vertex labels, sorted, as a tuple; ``names`` maps a vertex id to its label.

    Most simplices have one or two vertices, which need no sort.
    """
    for s in simplices:
        if len(s) == 1:
            yield (names[s[0]],)
        elif len(s) == 2:
            a, b = names[s[0]], names[s[1]]
            yield (a, b) if a < b else (b, a)
        else:
            yield tuple(sorted([names[v] for v in s]))


# characters that keep a vertex name from reading as one atom inside a label
_ATOM = frozenset("{},")


def _base_ids(K: SimplicialComplex) -> dict:
    """``{vertex: stage-0 id}``: ids follow the canonical vertex order."""
    return {v: i for i, v in enumerate(K.vertices)}


def _set_members(raw: str):
    """The sorted top-level members of a carrier-set entry ``{...}`` or ``b{...}``, or None.

    Commas split members only outside nested braces.  An entry that is not
    wrapped in braces, or has an empty or repeated member, is not a set: None.
    """
    if raw.startswith("{") and raw.endswith("}"):
        inner = raw[1:-1]
    elif raw.startswith("b{") and raw.endswith("}"):
        inner = raw[2:-1]
    else:
        return None
    members = []
    depth = start = 0
    for i, ch in enumerate(inner):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif ch == "," and depth == 0:
            members.append(inner[start:i])
            start = i + 1
    members.append(inner[start:])
    if "" in members or len(set(members)) < len(members):
        return None
    return sorted(members)


def _refuse_label_clash(simplices) -> None:
    """Raise ``InvalidComplex`` at the first barycenter label seen twice among these simplices.

    They are walked in canonical order, so the error names the least
    clashing pair under any hash seed.
    """
    seen = {}
    for s in sorted(simplices):
        lab = _barycenter_label(s.verts)
        if seen.setdefault(lab, s) is not s:
            raise InvalidComplex(
                f"stage vertex label {lab!r} names both {seen[lab].label()}"
                f" and {s.label()}")


def _carrier_mean(members, value_below, scale: int) -> dict:
    """The value at the barycenter of a carrier: the mean of ``value_below`` over its members.

    Values are ``{vertex: numerator}`` over a common denominator D; the mean is
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


def _face_table(index: dict):
    """Yield each simplex id of a stage with the ids of its proper faces, in increasing order.

    ``index`` is the stage's ``{simplex: id}``, and ids come in its order, so
    every face comes before the simplices it is a face of.  ``_sd_once`` and
    ``TowerLevel.poset`` read the pairs as a stream, so no whole-stage table
    is held.  Face closure makes every proper subset of a simplex a simplex
    too, so the faces come from ``combinations`` through it.  Simplices of
    one or two vertices, most of a stage, skip ``combinations`` and the sort
    of a list.  Together with the same shortcut in ``_sorted_labels``, this
    makes subdividing a surface and reading its complex about a fifth faster
    than with the general expressions alone.
    """
    get = index.__getitem__
    for s, i in index.items():
        if len(s) == 1:
            yield i, ()
        elif len(s) == 2:
            yield i, sorted((get(s[:1]), get(s[1:])))
        else:
            yield i, sorted([get(f) for k in range(1, len(s)) for f in combinations(s, k)])


def _sd_once(prev: SubdividedComplex) -> SubdividedComplex:
    """One barycentric subdivision step: the chains of the previous stage's face order."""
    prev._label_if_eager()
    chains = _chains(_face_table(prev._index), "subdivision")
    return SubdividedComplex(prev.base, prev.stage + 1, chains, prev)


def subdivide(K: SimplicialComplex, n: int) -> SubdividedComplex:
    """The n-th barycentric subdivision with the full provenance chain."""
    _require_int(n, "subdivision stage")
    if n < 0:
        raise NegativeStage("subdivision stage must be >= 0")
    get = _base_ids(K).__getitem__
    simplices = sorted([tuple(map(get, s.verts)) for s in K.simplices])
    simplices.sort(key=len)
    return extend_subdivision(SubdividedComplex(K, 0, simplices, None), n)


def extend_subdivision(stage: SubdividedComplex, n: int) -> SubdividedComplex:
    """Continue an existing chain up to stage n, reusing earlier stages."""
    while stage.stage < n:
        stage = _sd_once(stage)
    return stage


def _numerators(p: RationalPoint):
    """``(D, numerators)``: p's stored ``{label: numerator}`` over D; callers must not mutate it."""
    return p._denominator, p._numerators


def _sd_step(numerators: dict, index: dict) -> dict:
    """One subdivision step on ``{vertex id: numerator}`` with positive numerators.

    Sort the numerators in descending order; the weight on the barycenter of
    the j-th prefix of the support is j*(a_j - a_{j+1}), keyed by the
    prefix's id in ``index``, the stage's ``{simplex: id}``.  Ties produce
    zero weights, which are dropped, so the result's support is the
    strict-descent chain regardless of tie order.  The weights telescope to
    the same total, so the common denominator never changes and stays
    implicit.
    """
    items = sorted(numerators.items(), key=itemgetter(1), reverse=True)
    out = {}
    prefix = []
    for j, (v, a) in enumerate(items, start=1):
        prefix.append(v)
        below = items[j][1] if j < len(items) else 0
        w = j * (a - below)
        if w:
            out[index[tuple(sorted(prefix))]] = w
    return out


def _over_stage(stage: SubdividedComplex, D: int, numerators: dict) -> RationalPoint:
    """The point of ``stage.complex`` (past stage 0) with these numerators over D, keyed by vertex id."""
    cx = stage.complex
    names = stage.previous._labels
    return RationalPoint._from_numerators(cx, D, {names[v]: a for v, a in numerators.items()})


def sd_coordinates(stage: SubdividedComplex, p: RationalPoint) -> RationalPoint:
    """Re-express a stage-(n-1) point over the stage-n vertices (one ``_sd_step``)."""
    prev = stage.previous
    if prev is None or getattr(p, "complex", None) != prev.complex:
        raise WrongComplex("point must be expressed over the previous stage")
    D, numerators = _numerators(p)
    ids = prev._vertex_ids
    return _over_stage(stage, D, _sd_step({ids[v]: a for v, a in numerators.items()}, prev._index))


def lift_point(stage: SubdividedComplex, p: RationalPoint) -> RationalPoint:
    """Push a stage-0 point up the chain into this stage's coordinates."""
    if getattr(p, "complex", None) != stage.base:
        raise WrongComplex("point is not over the chain's base complex")
    if stage.stage == 0:
        return p
    D, numerators = _numerators(p)
    *below, _ = stage.stage_chain()
    ids = stage._base_ids
    numerators = {ids[v]: a for v, a in numerators.items()}
    for prev in below:
        numerators = _sd_step(numerators, prev._index)
    return _over_stage(stage, D, numerators)


def embed_point(stage: SubdividedComplex, p: RationalPoint) -> RationalPoint:
    return stage.embed_point(p)


def mesh_sq_bound(K: SimplicialComplex, n: int) -> Fraction:
    """Upper bound for the squared diameter of any closed simplex at stage n.

    Any two points of a closed simplex are at squared distance at most 2 in
    barycentric coordinates, and each subdivision of a d-complex contracts
    diameters by d/(d+1).
    """
    _require_int(n, "stage")
    if n < 0:
        raise NegativeStage("stage must be >= 0")
    return _mesh_sq(K.dim, n)


@lru_cache(maxsize=256)
def _mesh_sq(d: int, n: int) -> Fraction:
    """``mesh_sq_bound`` of a d-complex at stage n."""
    if d <= 0:
        return Fraction(0)
    return 2 * Fraction(d, d + 1) ** (2 * n)
