"""The tower of finite posets attached to a complex, and its thread calculus.

Level n is a poset on the stage-n vertices: x <= y exactly when the closed
carrier simplex of x (at stage n-1) is contained in that of y.  Points of the
realization are encoded as coherent thread prefixes through the levels and
decoded back to exact representatives with a certified squared error bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .complexes import RationalPoint, Simplex, SimplicialComplex
from .errors import (
    ElementNotFound,
    EqualPoints,
    IncoherentThread,
    InvalidInput,
    InvalidPoint,
    LevelOutOfRange,
    NotSeparated,
    SimplexNotInComplex,
    StageTooCoarse,
)
from .posets import FinitePoset
from .subdivision import (
    SubdividedComplex,
    _barycenter_label,
    _face_table,
    _numerators,
    _sd_step,
    extend_subdivision,
    mesh_sq_bound,
    stage_vertex_label,
    subdivide,
)


class TowerLevel:
    """One level of the tower: the poset of stage-n vertices, read from stage n-1.

    ``carrier`` maps each element to its stage-(n-1) simplex; it is stage
    n-1's label table, the same dict as stage n's ``provenance``, and iterates
    in an unspecified order, while ``elements`` is the canonical one.  Bonds
    look down into stage n-1's provenance, level n-1's carrier table (empty at
    level 1).  Membership, bonds and the thread codec read only these tables;
    the order ``poset`` is built on first read.  ``_parent`` maps each element
    to its one-step bond at level n-1, filled one element at a time on first
    read.  An entry depends only on the two tables, so towers that share a
    level share its table.
    """

    def __init__(self, n: int, stage: SubdividedComplex):
        self.n = n
        self.carrier = stage._barycenters
        self._parent = _ParentTable(self.carrier, stage.provenance)

    @cached_property
    def poset(self) -> FinitePoset:
        """Elements ordered by inclusion of their closed carriers (the face table's order)."""
        down = {lab: frozenset((lab, *faces)) for lab, faces in _face_table(self.carrier).items()}
        return FinitePoset.from_down_sets(self.carrier.keys(), down)

    @cached_property
    def elements(self) -> tuple:
        return tuple(sorted(self.carrier))

    def __contains__(self, x):
        return x in self.carrier

    def __repr__(self):
        return f"TowerLevel(n={self.n}, {len(self.carrier)} elements)"


class _ParentTable(dict):
    """``{element: one-step bond}`` of one level, each entry computed on first read.

    A missing element of the level gets the member of its carrier with the
    largest carrier one level down; a label outside the level raises KeyError.
    """

    __slots__ = ("carrier", "below")

    def __init__(self, carrier: dict, below: dict):
        super().__init__()
        self.carrier = carrier
        self.below = below

    def __missing__(self, x: str) -> str:
        parent = self[x] = _largest_carrier(self.carrier[x].verts, self.below)
        return parent


def build_level(K: SimplicialComplex, n: int) -> TowerLevel:
    """Standalone level construction; subdivides the base up to stage n-1."""
    if n < 1:
        raise LevelOutOfRange("levels start at 1")
    return TowerLevel(n, subdivide(K, n - 1))


@dataclass(frozen=True)
class ThreadPrefix:
    """A finite coherent sequence of level elements, one per level 1..N."""

    tower: "Tower"
    entries: tuple

    def __len__(self):
        return len(self.entries)

    def to_json_obj(self):
        return {"entries": list(self.entries)}

    def __repr__(self):
        return f"ThreadPrefix({', '.join(self.entries)})"

    @cached_property
    def _mismatch(self):
        """The first level whose entry ``tower`` does not bond to the entry before, checked once.

        None for a coherent thread.  ``ElementNotFound`` escapes the property,
        so an entry outside its level is refused on every read and nothing is
        recorded.
        """
        return self.tower._check_thread(self.entries)


@dataclass(frozen=True)
class DecodedRegion:
    """The nested closed carriers of a thread plus an exact representative.

    Every point whose thread extends the decoded prefix lies within
    ``err_sq_bound`` (squared distance) of ``representative``.
    """

    chain: tuple
    representative: RationalPoint
    err_sq_bound: Fraction


class Tower:
    """The inverse system of level posets over a fixed base complex.

    Construction is a pure function of (base, depth).  ``build`` makes
    stages 0..depth-1 eagerly, each as its list of chains, and each level's
    carrier table, with its label-collision check.  A stage's ``complex``,
    stage ``depth`` and each level's order (``TowerLevel.poset``) are built
    on first access; ``build`` and the thread codec read none of them.
    """

    def __init__(self, base: SimplicialComplex, depth: int,
                 stages: list, levels: list):
        self.base = base
        self.depth = depth
        self._stages = stages
        self.levels = levels

    @classmethod
    def build(cls, K: SimplicialComplex, depth: int) -> "Tower":
        if depth < 1:
            raise LevelOutOfRange("tower depth must be >= 1")
        return cls(K, 0, [subdivide(K, 0)], []).deepened(depth)

    def deepened(self, depth: int) -> "Tower":
        """A deeper tower sharing this one's stage chain."""
        if depth <= self.depth:
            return self
        stages = extend_subdivision(self._stages[-1], depth - 1).stage_chain()
        levels = self.levels + [TowerLevel(n, stages[n - 1])
                                for n in range(self.depth + 1, depth + 1)]
        return Tower(self.base, depth, stages, levels)

    def stage(self, k: int) -> SubdividedComplex:
        if not 0 <= k <= self.depth:
            raise LevelOutOfRange(f"stage {k} outside 0..{self.depth}")
        if k >= len(self._stages):
            self._stages = extend_subdivision(self._stages[-1], k).stage_chain()
        return self._stages[k]

    def level(self, n: int) -> TowerLevel:
        if not 1 <= n <= self.depth:
            raise LevelOutOfRange(f"level {n} outside 1..{self.depth}")
        return self.levels[n - 1]

    # -- projections and bonds ------------------------------------------------

    def project_point(self, p: RationalPoint, n: int) -> str:
        """The level-n element whose open carrier contains p."""
        if not 1 <= n <= self.depth:
            raise LevelOutOfRange(f"level {n} outside 1..{self.depth}")
        *_, label = self._projections(p, n)
        return label

    def bond(self, x: str, m: int, n: int) -> str:
        """Transport a level-m element down to level n (identity when m == n).

        One step takes the carrier chain of the element and returns the member
        with the largest carrier: the vertex of the previous stage sitting in
        the open simplex that contains this one's barycenter.  Each level keeps
        its one-step bonds in a table filled on first use (``TowerLevel``).
        """
        if not 1 <= n <= m <= self.depth:
            raise LevelOutOfRange(f"need 1 <= {n} <= {m} <= depth {self.depth}")
        if x not in self.level(m):
            raise ElementNotFound(repr(x))
        return self._bond(x, m, n)

    def _bond(self, x: str, m: int, n: int) -> str:
        """``bond`` without its checks: x must be an element of level m, n <= m.

        m - n reads of the levels' one-step bond tables, from level m down.
        """
        levels = self.levels
        for k in range(m - 1, n - 1, -1):
            x = levels[k]._parent[x]
        return x

    def basic_preimage(self, x: str, n: int) -> set:
        """Open simplices of stage n-1 covering the preimage of the basic open at x."""
        level = self.level(n)
        if x not in level:
            raise ElementNotFound(repr(x))
        return {level.carrier[y] for y in level.poset.up_set(x)}

    # -- threads ---------------------------------------------------------------

    def encode_thread(self, p: RationalPoint, N: int) -> ThreadPrefix:
        if not 1 <= N <= self.depth:
            raise LevelOutOfRange(f"depth {N} outside 1..{self.depth}")
        return ThreadPrefix(self, tuple(self._projections(p, N)))

    def _projections(self, p: RationalPoint, N: int):
        """Lazily, the level-1..N elements whose open carriers contain p.

        Level n's element is the barycenter label of p's support at stage n-1,
        read from the keys of p's integer numerators over one common
        denominator D.  Past stage 0, where p itself is a checked point of the
        base, each label must be an element of its level, and the numerators
        must still sum to D.  The base check runs on the first ``next``, so
        every caller iterates at once.
        """
        if p.complex != self.base:
            raise ValueError("point is not over the tower's base complex")
        D, numerators = _numerators(p)
        yield _barycenter_label(sorted(numerators))
        for level in self.levels[1:N]:
            numerators = _sd_step(numerators)
            label = _barycenter_label(sorted(numerators))
            if label not in level.carrier:
                raise ElementNotFound(f"{label!r} at level {level.n}")
            if sum(numerators.values()) != D:
                raise InvalidPoint(f"stage {level.n - 1} coordinates do not sum to 1")
            yield label

    def thread(self, entries: Sequence[str]) -> ThreadPrefix:
        """Build a thread from raw labels, accepting carrier-set notation too."""
        if not entries:
            raise IncoherentThread("a thread needs at least one entry")
        if len(entries) > self.depth:
            raise LevelOutOfRange(f"thread longer than tower depth {self.depth}")
        resolved = tuple(self._resolve_label(raw, n + 1)
                         for n, raw in enumerate(entries))
        return ThreadPrefix(self, resolved)

    def _resolve_label(self, raw: str, n: int) -> str:
        if not isinstance(raw, str):
            raise InvalidInput(f"thread entry {raw!r} at level {n} is not a label")
        carrier = self.levels[n - 1].carrier
        if raw in carrier:
            return raw
        members = _set_members(raw)
        if members is not None:
            label = _barycenter_label(members)
            if label in carrier:
                return label
        raise ElementNotFound(f"{raw!r} at level {n}")

    def validate_thread(self, t: ThreadPrefix) -> bool:
        """True iff consecutive entries are matched by the bonding maps.

        A thread of this tower records the answer on itself; a thread of
        another tower is checked against this one afresh.
        """
        return self._first_mismatch(t) is None

    def _first_mismatch(self, t: ThreadPrefix):
        """The first level whose entry does not bond to the entry before, or None."""
        if t.tower is self:
            return t._mismatch
        return self._check_thread(t.entries)

    def _check_thread(self, entries: tuple):
        """``_first_mismatch`` of these entries, read from the bond tables.

        Every entry must be an element of its level, checked level by level,
        before a thread longer than the tower is refused.
        """
        levels = self.levels
        for level, x in zip(levels, entries):
            if x not in level.carrier:
                raise ElementNotFound(f"{x!r} at level {level.n}")
        if len(entries) > len(levels):
            raise LevelOutOfRange(f"level {len(levels) + 1} outside 1..{self.depth}")
        for level, x, below in zip(levels[1:], entries[1:], entries):
            if level._parent[x] != below:
                return level.n
        return None

    def _require_coherent(self, t: ThreadPrefix) -> None:
        """Raise ``IncoherentThread`` naming the first level whose bond misses."""
        n = self._first_mismatch(t)
        if n is not None:
            x = t.entries[n - 1]
            raise IncoherentThread(f"level {n} entry {x!r} bonds to "
                                   f"{self._bond(x, n, n - 1)!r}, not {t.entries[n - 2]!r}")

    def decode_thread(self, t: ThreadPrefix) -> DecodedRegion:
        self._require_coherent(t)
        N = len(t.entries)
        chain = tuple(frozenset(level.carrier[x].verts)
                      for level, x in zip(self.levels, t.entries))
        carrier = self.level(N).carrier[t.entries[-1]]
        rep = self.stage(N - 1)._barycenter_point(carrier.verts)
        return DecodedRegion(chain, rep, mesh_sq_bound(self.base, N - 1))

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
        carriers and lies in the open carrier of the largest one; that member
        is its level-m image, and the bonds take it down to level n.
        """
        if not 1 <= n <= self.depth:
            raise LevelOutOfRange(f"level {n} outside 1..{self.depth}")
        if m < n - 1:
            raise StageTooCoarse(f"stage {m} is coarser than level {n} needs")
        stage = self.stage(m)
        out = set()
        for s in opens:
            if s not in stage.complex.simplices:
                raise SimplexNotInComplex(s.label())
            if m == n - 1:
                out.add(stage_vertex_label(s))
            else:
                out.add(self._bond(_largest_carrier(s.verts, self.levels[m - 1].carrier), m, n))
        return frozenset(out)

    def __repr__(self):
        return f"Tower(base={self.base!r}, depth={self.depth})"


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


def _largest_carrier(members, carrier: dict) -> str:
    """The member whose simplex in ``carrier`` (a level's carrier table) is largest."""
    return max(members, key=lambda u: len(carrier[u].verts))


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
