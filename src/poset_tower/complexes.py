"""Abstract simplicial complexes with exact rational barycentric points.

Vertices are plain string labels; the canonical order is the lexicographic
order on labels, and every output, serialized artifact and error message
follows it, so they are reproducible.  Coordinates are exact: integer numerators
over a common denominator, read as ``fractions.Fraction``; the package never
touches floating point.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import (
    InvalidComplex,
    InvalidPoint,
    MissingFace,
    NoCommonSimplex,
    SimplexNotInComplex,
    UnknownVertex,
    _require_int,
)


class Simplex:
    """A nonempty finite set of vertex labels, stored in sorted order."""

    __slots__ = ("verts",)

    def __init__(self, verts: Iterable[str]):
        vs = tuple(sorted(verts))
        if not vs:
            raise InvalidComplex("a simplex needs at least one vertex")
        # the set test runs in C; the pair walk only names the first repeat
        if len(set(vs)) < len(vs):
            a = next(a for a, b in zip(vs, vs[1:]) if a == b)
            raise InvalidComplex(f"duplicate vertex {a!r} in simplex")
        self.verts = vs

    @classmethod
    def of(cls, verts: Iterable[str]) -> "Simplex":
        """Build a simplex from labels that may repeat (repeats collapse)."""
        return cls(set(verts))

    @classmethod
    def _of_sorted(cls, verts: tuple) -> "Simplex":
        """The simplex on ``verts``, a sorted tuple of distinct labels, built unchecked."""
        s = object.__new__(cls)
        s.verts = verts
        return s

    @property
    def dim(self) -> int:
        return len(self.verts) - 1

    def label(self) -> str:
        return "{" + ",".join(self.verts) + "}"

    def faces(self):
        """All proper nonempty faces, unchecked: subsets of sorted, distinct labels."""
        for k in range(1, len(self.verts)):
            yield from map(Simplex._of_sorted, combinations(self.verts, k))

    def faces_with_self(self):
        yield from self.faces()
        yield self

    def union(self, other: "Simplex") -> "Simplex":
        return Simplex.of(self.verts + other.verts)

    def __len__(self):
        return len(self.verts)

    def __iter__(self):
        return iter(self.verts)

    def __contains__(self, v):
        return v in self.verts

    def __eq__(self, other):
        return isinstance(other, Simplex) and self.verts == other.verts

    def __hash__(self):
        return hash(self.verts)

    def __lt__(self, other):
        return (len(self.verts), self.verts) < (len(other.verts), other.verts)

    def __repr__(self):
        return f"Simplex({self.label()})"


def _not_in_complex(simplex) -> SimplexNotInComplex:
    """The error for an argument that is not a simplex of the complex: its label, or its repr."""
    return SimplexNotInComplex(simplex.label() if isinstance(simplex, Simplex) else repr(simplex))


class SimplicialComplex:
    """A finite simplicial complex: vertex labels plus a face-closed simplex set.

    The constructor validates face closure and vertex consistency, so any
    instance in hand is a well-formed complex.  A set of simplices is face
    closed exactly when every simplex with two or more vertices has all of its
    codimension-1 faces in the set (induct down any chain of faces), so only
    those faces are looked up, as vertex tuples.  Once a fault is known, the
    simplices are walked again in canonical order, so the fault reported does
    not depend on hash order.  The private ``_face_closed`` skips the check
    for sets closed by construction: the chains of a strict order (a subchain
    of a chain is a chain), and a star or link of a valid complex.  The set
    of vertex tuples that the face check looks up is kept for the support
    check of ``RationalPoint``; a ``_face_closed`` complex builds it on first
    use.
    """

    __slots__ = ("vertices", "simplices", "_dim", "_cofaces", "_sorted", "_verts")

    def __init__(self, vertices: Iterable[str], simplices: Iterable[Simplex]):
        self._store(set(vertices), simplices)
        vset = set(self.vertices)
        self._verts = present = {s.verts for s in self.simplices}
        try:
            _check_faces(self.simplices, vset, present)
        except InvalidComplex:
            _check_faces(self.sorted_simplices(), vset, present)
            raise
        for v in self.vertices:
            if (v,) not in present:
                raise MissingFace(Simplex((v,)))

    @classmethod
    def _face_closed(cls, vertices: Iterable[str], simplices: Iterable[Simplex]) -> "SimplicialComplex":
        """The complex on distinct ``vertices`` and a face-closed simplex set, built unchecked."""
        cx = cls.__new__(cls)
        cx._store(vertices, simplices)
        return cx

    def _store(self, vertices, simplices) -> None:
        """Keep the sorted vertices, the simplex set and its dimension, with empty caches."""
        self.vertices = tuple(sorted(vertices))
        self.simplices = frozenset(simplices)
        self._dim = max([len(s.verts) for s in self.simplices], default=0) - 1
        self._cofaces = None
        self._sorted = None
        self._verts = None

    @classmethod
    def from_maximal(cls, simplices: Iterable[Iterable[str]]) -> "SimplicialComplex":
        """Build a complex by closing the given simplices downward."""
        closed = set()
        for raw in simplices:
            s = Simplex(raw)
            closed.add(s)
            closed.update(s.faces())
        verts = sorted({v for s in closed for v in s.verts})
        return cls(verts, closed)

    @property
    def dim(self) -> int:
        return self._dim

    def __contains__(self, simplex: Simplex) -> bool:
        return simplex in self.simplices

    def has_vertex(self, v: str) -> bool:
        return isinstance(v, str) and Simplex((v,)) in self.simplices

    def _vertex_tuples(self) -> set:
        """The vertex tuples of every simplex, built on first use and kept."""
        if self._verts is None:
            self._verts = {s.verts for s in self.simplices}
        return self._verts

    def cofaces(self, simplex: Simplex) -> tuple:
        """The simplices strictly containing ``simplex``, in canonical order.

        The incidence index is built on first use from one pass over every
        simplex's faces, and kept for the life of the complex.
        """
        if self._cofaces is None:
            ordered = self.sorted_simplices()
            index = {s.verts: [] for s in ordered}
            for t in ordered:
                for k in range(1, len(t.verts)):
                    for f in combinations(t.verts, k):
                        index[f].append(t)
            self._cofaces = {s: tuple(index[s.verts]) for s in ordered}
        try:
            return self._cofaces[simplex]
        except (KeyError, TypeError):
            raise _not_in_complex(simplex) from None

    def k_simplices(self, k: int):
        _require_int(k, "dimension")
        return tuple(s for s in self.sorted_simplices() if s.dim == k)

    def sorted_simplices(self) -> tuple:
        """Every simplex in canonical order, sorted on first use and kept.

        The key is the one ``Simplex.__lt__`` compares; keys are unique, so
        the order is the same, with the comparisons made on tuples.
        """
        if self._sorted is None:
            self._sorted = tuple(sorted(self.simplices, key=lambda s: (len(s.verts), s.verts)))
        return self._sorted

    def counts(self):
        """Number of simplices in each dimension 0..dim."""
        out = [0] * (self._dim + 1)
        for s in self.simplices:
            out[s.dim] += 1
        return tuple(out)

    def to_json_obj(self):
        return {
            "vertices": list(self.vertices),
            "simplices": [list(s.verts) for s in self.sorted_simplices()],
        }

    @classmethod
    def from_json_obj(cls, obj) -> "SimplicialComplex":
        if not isinstance(obj, dict):
            raise InvalidComplex(f"a complex must be a JSON object, not {type(obj).__name__}")
        return validate_complex(obj.get("vertices", []), obj.get("simplices", []))

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, SimplicialComplex)
                and self.vertices == other.vertices
                and self.simplices == other.simplices)

    def __hash__(self):
        return hash((self.vertices, self.simplices))

    def __repr__(self):
        return f"SimplicialComplex({len(self.vertices)} vertices, {len(self.simplices)} simplices)"


def _check_faces(simplices, vset: set, present: set) -> None:
    """Raise for the first simplex with an unknown vertex or a missing codimension-1 face."""
    for s in simplices:
        vs = s.verts
        if not vset.issuperset(vs):
            raise UnknownVertex(next(v for v in vs if v not in vset), s)
        if len(vs) > 1 and not present.issuperset(combinations(vs, len(vs) - 1)):
            face = next(f for f in combinations(vs, len(vs) - 1) if f not in present)
            raise MissingFace(Simplex(face), s)


def _labels(raw, what: str) -> Sequence[str]:
    """``raw`` if it is an array of string labels, else ``InvalidComplex``."""
    if not isinstance(raw, (list, tuple)) or not all(isinstance(v, str) for v in raw):
        raise InvalidComplex(f"{what} must be an array of string labels, not {raw!r}")
    return raw


def validate_complex(vertices: Sequence[str], simplices: Sequence[Sequence[str]]) -> SimplicialComplex:
    """Validate raw data and return the complex; raises on any violation."""
    if not isinstance(simplices, (list, tuple)):
        raise InvalidComplex(f"simplices must be an array, not {simplices!r}")
    return SimplicialComplex(_labels(vertices, "vertices"),
                             [Simplex(_labels(s, "a simplex")) for s in simplices])


class RationalPoint:
    """A point of the geometric realization, as exact barycentric coordinates.

    The point is stored as ``(D, {vertex: numerator})``: positive integer
    numerators over one common denominator D, divided by their gcd with D so
    that equal points have equal pairs.  The numerator keys must span a
    simplex of the complex and the numerators must sum to D.  ``coords``, the
    ``Fraction`` view, is read-only and built on first read.
    """

    # D and the numerators sit in two slots, not in one tuple: a long-lived
    # 2-tuple per point raised the peak RSS of building level orders by 1.2 MiB
    # for 256 live points (pymalloc pools it pins among the orders' tuples)
    __slots__ = ("complex", "_denominator", "_numerators", "_coords")

    def __init__(self, complex: SimplicialComplex, coords: Mapping[str, Fraction]):
        exact = {}
        for v, a in coords.items():
            if not isinstance(v, str):
                raise InvalidPoint(f"coordinate key {v!r} is not a vertex name")
            exact[v] = a if type(a) is Fraction else _rational(v, a)
        D = lcm(*[a.denominator for a in exact.values()])
        self._store(complex, D, {v: a.numerator * (D // a.denominator) for v, a in exact.items()})

    @classmethod
    def _from_numerators(cls, complex: SimplicialComplex, D: int,
                         numerators: Mapping[str, int]) -> "RationalPoint":
        """The point with coordinates ``numerators[v] / D``, with every check of the constructor."""
        p = cls.__new__(cls)
        p._store(complex, D, numerators)
        return p

    def _store(self, complex: SimplicialComplex, D: int, numerators: Mapping[str, int]) -> None:
        """Check that ``numerators`` over D are a point of ``complex``, then keep them reduced."""
        clean = {}
        for v, a in numerators.items():
            if a < 0:
                raise InvalidPoint(f"negative coordinate {Fraction(a, D)} at {v!r}")
            if a:
                clean[v] = a
        g = gcd(D, *clean.values())
        if g > 1:
            D //= g
            clean = {v: a // g for v, a in clean.items()}
        if D < 1 or sum(clean.values()) != D:
            raise InvalidPoint("coordinates must sum to exactly 1")
        if tuple(sorted(clean)) not in complex._vertex_tuples():
            raise InvalidPoint(f"support {Simplex(clean).label()} is not a simplex of the complex")
        self.complex = complex
        self._denominator = D
        self._numerators = clean
        self._coords = None

    @property
    def coords(self) -> Mapping[str, Fraction]:
        """The positive coordinates as ``Fraction``s, a read-only mapping."""
        if self._coords is None:
            D = self._denominator
            self._coords = MappingProxyType({v: Fraction(a, D) for v, a in self._numerators.items()})
        return self._coords

    @classmethod
    def vertex(cls, complex: SimplicialComplex, v: str) -> "RationalPoint":
        if not isinstance(v, str):
            raise InvalidPoint(f"{v!r} is not a vertex name")
        return cls._from_numerators(complex, 1, {v: 1})

    @classmethod
    def barycenter(cls, complex: SimplicialComplex, simplex: Simplex) -> "RationalPoint":
        if not isinstance(simplex, Simplex) or simplex not in complex.simplices:
            raise _not_in_complex(simplex)
        return cls._from_numerators(complex, len(simplex.verts), dict.fromkeys(simplex.verts, 1))

    @classmethod
    def affine(cls, complex, weighted_points) -> "RationalPoint":
        """Exact affine combination of points of the same complex."""
        acc: dict[str, Fraction] = {}
        for w, p in weighted_points:
            for v, a in p.coords.items():
                acc[v] = acc.get(v, Fraction(0)) + Fraction(w) * a
        return cls(complex, acc)

    def coord(self, v: str) -> Fraction:
        if not isinstance(v, str):
            raise InvalidPoint(f"{v!r} is not a vertex name")
        return self.coords.get(v, Fraction(0))

    def support(self) -> Simplex:
        return Simplex(self._numerators.keys())

    def to_json_obj(self):
        return {"coords": {v: str(a) for v, a in sorted(self.coords.items())}}

    @classmethod
    def from_json_obj(cls, complex: SimplicialComplex, obj) -> "RationalPoint":
        coords = obj.get("coords", {}) if isinstance(obj, dict) else None
        if not isinstance(coords, dict):
            raise InvalidPoint('a point must be a JSON object {"coords": {vertex: value}}')
        return cls(complex, coords)

    def __eq__(self, other):
        return (isinstance(other, RationalPoint)
                and self.complex == other.complex
                and self._denominator == other._denominator
                and self._numerators == other._numerators)

    def __repr__(self):
        inner = ", ".join(f"{v}:{a}" for v, a in sorted(self.coords.items()))
        return f"RationalPoint({inner})"


# CPython refuses to convert an int string of more than 4300 digits; a decimal
# exponent beyond that would build such an int by arithmetic, at a cost that
# grows faster than linearly with the exponent.  Strings and finite
# ``Decimal``s are both read through such a power of ten.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def _rational(v: str, a) -> Fraction:
    """Coordinate ``a`` at ``v`` as a ``Fraction``, or ``InvalidPoint``; a bool is no number."""
    too_large = False
    if isinstance(a, bool):
        raise InvalidPoint(f"coordinate {a!r} at {v!r} is not a rational number")
    if isinstance(a, str):
        m = _EXPONENT.search(a)
        if m is not None:
            digits = m.group(1).replace("_", "").lstrip("0")
            too_large = len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT
    elif isinstance(a, Decimal) and a.is_finite():
        too_large = abs(a.as_tuple().exponent) > _MAX_EXPONENT
    if too_large:
        raise InvalidPoint(f"coordinate at {v!r} has a decimal exponent beyond {_MAX_EXPONENT}")
    try:
        return Fraction(a)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise InvalidPoint(f"coordinate {a!r} at {v!r} is not a rational number") from exc


def support(p: RationalPoint) -> Simplex:
    """The unique simplex whose open simplex contains p."""
    return p.support()


def star(K: SimplicialComplex, simplex: Simplex) -> SimplicialComplex:
    """The subcomplex of simplices tau with simplex ∪ tau in K.

    These are exactly the faces of the simplices in the open star.
    """
    sims = {f for t in open_star(K, simplex) for f in t.faces_with_self()}
    verts = {v for t in sims for v in t.verts}
    return SimplicialComplex._face_closed(verts, sims)


def link(K: SimplicialComplex, simplex: Simplex) -> SimplicialComplex:
    """The subcomplex of the star whose simplices are disjoint from the given one."""
    st = star(K, simplex)
    forbidden = set(simplex.verts)
    sims = {t for t in st.simplices if not (set(t.verts) & forbidden)}
    verts = {v for t in sims for v in t.verts}
    return SimplicialComplex._face_closed(verts, sims)


def open_star(K: SimplicialComplex, simplex: Simplex) -> set:
    """All simplices containing the given one; as a point set, star minus link."""
    cofaces = K.cofaces(simplex)
    return {simplex, *cofaces}


def dist_sq(p: RationalPoint, q: RationalPoint) -> Fraction:
    """Squared barycentric-coordinate distance; requires a common closed simplex."""
    if (cx := getattr(p, "complex", None)) is None or cx != getattr(q, "complex", None):
        raise NoCommonSimplex("points live on different complexes")
    common = p.support().union(q.support())
    if common not in p.complex.simplices:
        raise NoCommonSimplex(
            f"supports {p.support().label()} and {q.support().label()} span no simplex")
    total = Fraction(0)
    for v in set(p.coords) | set(q.coords):
        d = p.coord(v) - q.coord(v)
        total += d * d
    return total


class _Record:
    """Base of the package's frozen records, over the fields ``__match_args__`` names.

    Equality is by class and fields, the hash is that of the field tuple and
    the repr is ``Name(field=value, ...)``, as for a frozen dataclass; assigning
    or deleting an attribute raises ``AttributeError``.  Each record writes out
    its own ``__init__``, storing through ``self.__dict__``, so construction
    costs no loop and ``functools.cached_property`` still works on it.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = attrgetter(*cls.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
