"""Small reference complexes and posets for tests and examples."""

from __future__ import annotations

from .complexes import SimplicialComplex
from .posets import FinitePoset


def point() -> SimplicialComplex:
    return SimplicialComplex.from_maximal([["v"]])


def edge() -> SimplicialComplex:
    return SimplicialComplex.from_maximal([["a", "b"]])


def circle() -> SimplicialComplex:
    """Triangle boundary: the minimal triangulated circle."""
    return SimplicialComplex.from_maximal([["0", "1"], ["1", "2"], ["0", "2"]])


def triangle() -> SimplicialComplex:
    return SimplicialComplex.from_maximal([["0", "1", "2"]])


def tetra_boundary() -> SimplicialComplex:
    """Boundary of the 3-simplex: a triangulated 2-sphere."""
    return SimplicialComplex.from_maximal(
        [["0", "1", "2"], ["0", "1", "3"], ["0", "2", "3"], ["1", "2", "3"]])


def projective_plane() -> SimplicialComplex:
    """Minimal 6-vertex triangulation; exercises torsion in degree 1."""
    return SimplicialComplex.from_maximal([
        ["0", "1", "4"], ["0", "1", "5"], ["0", "2", "3"], ["0", "2", "4"],
        ["0", "3", "5"], ["1", "2", "3"], ["1", "2", "5"], ["1", "3", "4"],
        ["2", "4", "5"], ["3", "4", "5"],
    ])


def fence3() -> FinitePoset:
    """Two minimal elements under a common maximum: a < m > b."""
    return FinitePoset.from_pairs(["a", "b", "m"], [("a", "m"), ("b", "m")])


def chain(n: int) -> FinitePoset:
    labels = [f"c{i}" for i in range(n)]
    return FinitePoset.from_pairs(labels, list(zip(labels, labels[1:])))


def antichain(n: int) -> FinitePoset:
    return FinitePoset.from_pairs([f"x{i}" for i in range(n)], [])
