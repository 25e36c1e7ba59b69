"""Exception types shared across the package, and the integer check that raises one."""

from __future__ import annotations


class PosetTowerError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(PosetTowerError):
    """An input is missing, unreadable, not valid JSON, or of the wrong shape.

    Wrong shapes include a list where an object is expected, a thread entry
    or stage that is not a label or an integer, and a bad environment value.
    """


class NegativeStage(InvalidInput, ValueError):
    """A subdivision stage below 0."""


class InvalidComplex(PosetTowerError):
    pass


class MissingFace(InvalidComplex):
    """A listed simplex has a face that is not itself listed."""

    def __init__(self, face, parent=None):
        self.face = face
        self.parent = parent
        if parent is None:
            msg = f"vertex simplex {face} is missing"
        else:
            msg = f"face {face} of simplex {parent} is missing"
        super().__init__(msg)


class UnknownVertex(InvalidComplex):
    def __init__(self, vertex, simplex=None):
        self.vertex = vertex
        self.simplex = simplex
        where = f" (used by simplex {simplex})" if simplex is not None else ""
        super().__init__(f"unknown vertex {vertex!r}{where}")


class SimplexNotInComplex(PosetTowerError):
    pass


class NoCommonSimplex(PosetTowerError):
    """Two points do not lie in a common closed simplex."""


class InvalidPoint(PosetTowerError):
    pass


class NotAPartialOrder(PosetTowerError):
    """The given relation is not antisymmetric after closure."""


class ElementNotFound(PosetTowerError):
    pass


class WrongComplex(PosetTowerError, ValueError):
    """A point, map, stage, tower or thread over another complex or tower than the one required."""


class LevelOutOfRange(PosetTowerError):
    pass


class NotSeparated(PosetTowerError):
    """The tower is too shallow to separate two distinct points."""

    def __init__(self, depth):
        self.depth = depth
        super().__init__(f"points project equally at every level up to depth {depth};"
                         " deepen the tower")


class EqualPoints(PosetTowerError):
    pass


class StageTooCoarse(PosetTowerError):
    """Open simplices are listed at a stage too coarse for the requested level."""


class IncoherentThread(PosetTowerError):
    pass


class NotSimplicial(PosetTowerError):
    """A vertex map does not carry every simplex to a simplex."""


class InvalidPLMap(PosetTowerError):
    """Vertex images of some simplex have no common closed carrier."""


class SearchExhausted(PosetTowerError):
    def __init__(self, cap):
        self.cap = cap
        super().__init__(f"no admissible vertex assignment found up to stage {cap}")


class UnknownSuite(PosetTowerError):
    pass


class DepthTooLarge(PosetTowerError):
    pass


class ResourceLimit(PosetTowerError):
    """A configured hard cap (POSET_TOWER_MAX_SIMPLICES) was exceeded."""


def _require_int(value, what: str) -> None:
    """Raise ``InvalidInput`` naming value unless it is an ``int`` and not a ``bool``."""
    # the exact type first: Tower.bond and encode_thread check on every call
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
        raise InvalidInput(f"{what} must be an integer, not {value!r}")
