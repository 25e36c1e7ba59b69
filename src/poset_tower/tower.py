"""The tower of finite posets attached to a complex, and its thread calculus.

Level n is a poset on the stage-n vertices: x <= y exactly when the closed
carrier simplex of x (at stage n-1) is contained in that of y.  Points of the
realization are encoded as coherent thread prefixes through the levels and
decoded back to exact representatives with a certified squared error bound.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .complexes import RationalPoint, Simplex, SimplicialComplex, _Record, _not_in_complex
from .errors import (
    ElementNotFound,
    EqualPoints,
    IncoherentThread,
    InvalidInput,
    InvalidPoint,
    LevelOutOfRange,
    NotSeparated,
    StageTooCoarse,
    WrongComplex,
)
from .posets import FinitePoset
from .subdivision import (
    SubdividedComplex,
    _barycenter_label,
    _face_table,
    _numerators,
    _require_int,
    _sd_step,
    _set_members,
    extend_subdivision,
    mesh_sq_bound,
    stage_vertex_label,
    subdivide,
)


class TowerLevel:
    """One level of the tower: the poset of stage-n vertices, read from stage n-1.

    Level n's element i is the stage-n vertex i, the barycenter of stage-(n-1)
    simplex i.  Membership, bonds and the thread codec read stage n-1's id
    tables and render a label only where they return one.  ``carrier`` maps
    each element to its stage-(n-1) simplex; it is stage n-1's label table,
    the same dict as stage n's ``provenance``, and iterates in an unspecified
    order, while ``elements`` is the canonical one.  ``carrier``,
    ``elements`` and the order ``poset`` are each built on first read, and
    none of them builds another.  The order holds one down-set per element,
    each built from stage n-1's stream of face ids (``_face_table``) with no
    whole-stage table beside it; its up-sets are derived on first read.  No
    bond is kept: element i's one-step bond is the last id of stage n-1's
    chain i (``SubdividedComplex``).
    """

    def __init__(self, n: int, stage: SubdividedComplex):
        self.n = n
        self._stage = stage
        stage._label_if_eager()

    @cached_property
    def carrier(self) -> dict:
        return self._stage._barycenters

    @cached_property
    def poset(self) -> FinitePoset:
        """Elements ordered by inclusion of their closed carriers (the face table's order)."""
        names = self._stage._labels
        # copied from a set, a frozenset is sized to fit: 472 bytes for 7 members, 728 from a list
        return FinitePoset.from_down_sets(names, {
            names[i]: frozenset({names[i], *map(names.__getitem__, faces)})
            for i, faces in _face_table(self._stage._index)})

    @cached_property
    def elements(self) -> tuple:
        return tuple(sorted(self._stage._labels))

    def __contains__(self, x):
        return self._stage._barycenter_id(x) is not None

    def __repr__(self):
        return f"TowerLevel(n={self.n}, {len(self._stage._simplices)} elements)"


def build_level(K: SimplicialComplex, n: int) -> TowerLevel:
    """Standalone level construction; subdivides the base up to stage n-1."""
    _require_int(n, "level")
    if n < 1:
        raise LevelOutOfRange("levels start at 1")
    return TowerLevel(n, subdivide(K, n - 1))


class ThreadPrefix(_Record):
    """A finite coherent sequence of level elements, one per level 1..N."""

    __match_args__ = ("tower", "entries")

    def __init__(self, tower: "Tower", entries: tuple):
        d = self.__dict__
        d["tower"] = tower
        d["entries"] = entries

    def __len__(self):
        return len(self.entries)

    def to_json_obj(self):
        return {"entries": list(self.entries)}

    def __repr__(self):
        return f"ThreadPrefix({', '.join(self.entries)})"

    @cached_property
    def _mismatch(self):
        """The first level whose entry ``tower`` does not bond to the entry before, checked once.

        None for a coherent thread.  It reads the ids ``_entry_ids`` holds, so
        ``ElementNotFound`` or ``LevelOutOfRange`` escapes the property as it
        escapes that one, on every read, and nothing is recorded.
        """
        return self.tower._check_thread(self._entry_ids)

    @cached_property
    def _entry_ids(self) -> list:
        """The entries' element ids in ``tower``; ``Tower.thread`` records them."""
        return self.tower._entry_ids(self.entries)


class DecodedRegion(_Record):
    """The nested closed carriers of a thread plus an exact representative.

    Every point whose thread extends the decoded prefix lies within
    ``err_sq_bound`` (squared distance) of ``representative``.
    """

    __match_args__ = ("chain", "representative", "err_sq_bound")

    def __init__(self, chain: tuple, representative: RationalPoint, err_sq_bound: Fraction):
        d = self.__dict__
        d["chain"] = chain
        d["representative"] = representative
        d["err_sq_bound"] = err_sq_bound


class Tower:
    """The inverse system of level posets over a fixed base complex.

    Construction is a pure function of (base, depth).  ``build`` makes
    stages 0..depth-1 eagerly, each as its list of chains over vertex ids.
    Labels are rendered where the public API returns them, and stage
    ``depth``, a stage's ``complex`` and each level's ``carrier`` and order
    (``TowerLevel.poset``) are built on first access; ``build`` and the
    thread codec read none of them.
    """

    def __init__(self, base: SimplicialComplex, depth: int,
                 stages: list, levels: list):
        self.base = base
        self.depth = depth
        self._stages = stages
        self.levels = levels

    @classmethod
    def build(cls, K: SimplicialComplex, depth: int) -> "Tower":
        _require_int(depth, "tower depth")
        if depth < 1:
            raise LevelOutOfRange("tower depth must be >= 1")
        return cls(K, 0, [subdivide(K, 0)], []).deepened(depth)

    def deepened(self, depth: int) -> "Tower":
        """A deeper tower sharing this one's stage chain."""
        _require_int(depth, "tower depth")
        if depth <= self.depth:
            return self
        stages = extend_subdivision(self._stages[-1], depth - 1).stage_chain()
        levels = self.levels + [TowerLevel(n, stages[n - 1])
                                for n in range(self.depth + 1, depth + 1)]
        return Tower(self.base, depth, stages, levels)

    def stage(self, k: int) -> SubdividedComplex:
        _require_int(k, "stage")
        if not 0 <= k <= self.depth:
            raise LevelOutOfRange(f"stage {k} outside 0..{self.depth}")
        if k >= len(self._stages):
            self._stages = extend_subdivision(self._stages[-1], k).stage_chain()
        return self._stages[k]

    def level(self, n: int) -> TowerLevel:
        _require_int(n, "level")
        if not 1 <= n <= self.depth:
            raise LevelOutOfRange(f"level {n} outside 1..{self.depth}")
        return self.levels[n - 1]

    def _entry_ids(self, entries) -> list:
        """The ids of elements of levels 1, 2, ...; ``ElementNotFound`` names the first outsider.

        Every entry within the tower's depth is looked up, level by level,
        before a sequence longer than the tower is refused.
        """
        ids = []
        for level, x in zip(self.levels, entries):
            i = level._stage._barycenter_id(x)
            if i is None:
                raise ElementNotFound(f"{x!r} at level {level.n}")
            ids.append(i)
        if len(entries) > len(ids):
            raise LevelOutOfRange(f"level {len(ids) + 1} outside 1..{self.depth}")
        return ids

    # -- projections and bonds ------------------------------------------------

    def project_point(self, p: RationalPoint, n: int) -> str:
        """The level-n element whose open carrier contains p."""
        self.level(n)
        *_, label = self._projections(p, n)
        return label

    def bond(self, x: str, m: int, n: int) -> str:
        """Transport a level-m element down to level n (identity when m == n).

        One step takes the carrier chain of the element and returns the member
        with the largest carrier: the vertex of the previous stage sitting in
        the open simplex that contains this one's barycenter.  That member is
        the chain's top, its last id (``_bond``).
        """
        _require_int(m, "level")
        _require_int(n, "level")
        if not 1 <= n <= m <= self.depth:
            raise LevelOutOfRange(f"need 1 <= {n} <= {m} <= depth {self.depth}")
        i = self.levels[m - 1]._stage._barycenter_id(x)
        if i is None:
            raise ElementNotFound(repr(x))
        if m == n:
            return x
        return self.levels[n - 1]._stage._name(self._bond(i, m, n))

    def _bond(self, x: int, m: int, n: int) -> int:
        """``bond`` on ids, without its checks: x must be an element id of level m, n <= m.

        Element x of level k + 1 is stage k's chain x, and its one-step bond is
        the chain's last id; so this is m - n reads, from level m down.
        """
        stages = self._stages
        for k in range(m - 1, n - 1, -1):
            x = stages[k]._simplices[x][-1]
        return x

    def basic_preimage(self, x: str, n: int) -> set:
        """Open simplices of stage n-1 covering the preimage of the basic open at x."""
        level = self.level(n)
        if x not in level:
            raise ElementNotFound(repr(x))
        return {level.carrier[y] for y in level.poset.up_set(x)}

    # -- threads ---------------------------------------------------------------

    def encode_thread(self, p: RationalPoint, N: int) -> ThreadPrefix:
        _require_int(N, "depth")
        if not 1 <= N <= self.depth:
            raise LevelOutOfRange(f"depth {N} outside 1..{self.depth}")
        return ThreadPrefix(self, tuple(self._projections(p, N)))

    def _projections(self, p: RationalPoint, N: int):
        """Lazily, the labels of the level-1..N elements whose open carriers contain p.

        Level 1's element is the barycenter of p's support, a simplex of the
        base, named from p's base labels.  Past it, level n's element is p's
        support at stage n-1 over the keys of p's integer numerators over one
        common denominator D, vertex ids, looked up in that stage's
        ``{simplex: id}`` index; only its label is rendered.  Past stage 0,
        where p itself is a checked point of the base, each support must be a
        simplex of its stage, and the numerators must still sum to D.  The
        base check runs on the first ``next``, so every caller iterates at
        once.
        """
        if p.complex != self.base:
            raise WrongComplex("point is not over the tower's base complex")
        D, numerators = _numerators(p)
        yield _barycenter_label(sorted(numerators))
        if N > 1:
            ids = self._stages[0]._base_ids
            numerators = {ids[v]: a for v, a in numerators.items()}
        for level in self.levels[1:N]:
            stage = level._stage
            numerators = _sd_step(numerators, stage.previous._index)
            support = tuple(sorted(numerators))
            x = stage._index.get(support)
            if x is None:
                label = _barycenter_label(sorted(stage._member_names(support)))
                raise ElementNotFound(f"{label!r} at level {level.n}")
            if sum(numerators.values()) != D:
                raise InvalidPoint(f"stage {level.n - 1} coordinates do not sum to 1")
            yield stage._name(x)

    def thread(self, entries: Sequence[str]) -> ThreadPrefix:
        """Build a thread from raw labels, accepting carrier-set notation too."""
        if not isinstance(entries, (list, tuple)):
            raise InvalidInput(
                f"thread entries must be a list or tuple, not {type(entries).__name__}")
        if not entries:
            raise IncoherentThread("a thread needs at least one entry")
        if len(entries) > self.depth:
            raise LevelOutOfRange(f"thread longer than tower depth {self.depth}")
        labels, ids = [], []
        for n, raw in enumerate(entries, start=1):
            label, i = self._resolve_label(raw, n)
            labels.append(label)
            ids.append(i)
        t = ThreadPrefix(self, tuple(labels))
        t.__dict__["_entry_ids"] = ids
        return t

    def _resolve_label(self, raw: str, n: int) -> tuple:
        """``(label, id)`` of a level-n entry, given by its label or its set of members."""
        if not isinstance(raw, str):
            raise InvalidInput(f"thread entry {raw!r} at level {n} is not a label")
        stage = self.levels[n - 1]._stage
        i = stage._barycenter_id(raw)
        if i is not None:
            return raw, i
        members = _set_members(raw)
        if members is not None:
            label = _barycenter_label(members)
            i = stage._barycenter_id(label)
            if i is not None:
                return label, i
        raise ElementNotFound(f"{raw!r} at level {n}")

    def validate_thread(self, t: ThreadPrefix) -> bool:
        """True iff consecutive entries are matched by the bonding maps.

        A thread of this tower records the answer on itself; a thread of
        another tower is checked against this one afresh.
        """
        return self._own(t)._mismatch is None

    def _own(self, t: ThreadPrefix) -> ThreadPrefix:
        """t, or a thread of another tower read as this tower's, its entries looked up once."""
        return t if t.tower is self else ThreadPrefix(self, t.entries)

    def _check_thread(self, ids: list):
        """The first level whose entry id does not bond to the id before, or None.

        An entry bonds to the last id of its chain one stage down.
        """
        for level, x, below in zip(self.levels[1:], ids[1:], ids):
            if level._stage._simplices[x][-1] != below:
                return level.n
        return None

    def _require_coherent(self, t: ThreadPrefix) -> None:
        """Raise ``IncoherentThread`` naming the first level whose bond misses; t is this tower's."""
        n = t._mismatch
        if n is not None:
            x = t.entries[n - 1]
            below = self._bond(t._entry_ids[n - 1], n, n - 1)
            raise IncoherentThread(
                f"level {n} entry {x!r} bonds to "
                f"{self.levels[n - 2]._stage._name(below)!r}, not {t.entries[n - 2]!r}")

    def decode_thread(self, t: ThreadPrefix) -> DecodedRegion:
        t = self._own(t)
        self._require_coherent(t)
        ids = t._entry_ids
        chain = tuple(frozenset(level._stage._carrier_verts(i))
                      for level, i in zip(self.levels, ids))
        stage = self.levels[len(ids) - 1]._stage
        rep = stage._barycenter_point(stage._simplices[ids[-1]])
        return DecodedRegion(chain, rep, mesh_sq_bound(self.base, len(ids) - 1))

    def separation_stage(self, p: RationalPoint, q: RationalPoint) -> int:
        """Least level at which two distinct points project differently."""
        if p == q:
            raise EqualPoints("the points coincide")
        pairs = zip(self._projections(p, self.depth), self._projections(q, self.depth))
        for n, (x, y) in enumerate(pairs, start=1):
            if x != y:
                return n
        raise NotSeparated(self.depth)

    # -- open images -------------------------------------------------------

    def image_of_open(self, opens: Iterable[Simplex], m: int, n: int) -> frozenset:
        """Project a union of stage-m open simplices to level n.

        The projection is constant on each open simplex once m >= n-1, so the
        image is read from labels.  For m == n-1 the open simplex s lies in the
        open carrier of its own barycenter, so its image is the label of that
        barycenter.  For m >= n, s is a chain of level-m elements with nested
        carriers and lies in the open carrier of the largest one, the member
        with the largest id; that member is its level-m image, and the bonds
        take it down to level n.
        """
        _require_int(m, "stage")
        level = self.level(n)
        if m < n - 1:
            raise StageTooCoarse(f"stage {m} is coarser than level {n} needs")
        stage = self.stage(m)
        simplices = stage.complex.simplices
        if m >= n:
            ids = stage._vertex_ids
            name = level._stage._name
        out = set()
        for s in opens:
            if not isinstance(s, Simplex) or s not in simplices:
                raise _not_in_complex(s)
            if m == n - 1:
                out.add(stage_vertex_label(s))
            else:
                x = max(s.verts, key=ids.__getitem__)
                out.add(x if m == n else name(self._bond(ids[x], m, n)))
        return frozenset(out)

    def __repr__(self):
        return f"Tower(base={self.base!r}, depth={self.depth})"


def project_point(T: Tower, p: RationalPoint, n: int) -> str:
    return T.project_point(p, n)


def bond(T: Tower, x: str, m: int, n: int) -> str:
    return T.bond(x, m, n)


def basic_preimage(T: Tower, x: str, n: int) -> set:
    return T.basic_preimage(x, n)


def encode_thread(T: Tower, p: RationalPoint, N: int) -> ThreadPrefix:
    return T.encode_thread(p, N)


def validate_thread(t: ThreadPrefix) -> bool:
    return t.tower.validate_thread(t)


def decode_thread(t: ThreadPrefix) -> DecodedRegion:
    return t.tower.decode_thread(t)


def separation_stage(T: Tower, p: RationalPoint, q: RationalPoint) -> int:
    return T.separation_stage(p, q)


def image_of_open(T: Tower, opens: Iterable[Simplex], m: int, n: int) -> frozenset:
    return T.image_of_open(opens, m, n)
