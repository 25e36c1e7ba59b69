from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from poset_tower import SimplicialComplex, betti, chain_complex, subdivide
from poset_tower.homology import (
    BettiProfile,
    ChainComplexZ,
    euler_characteristic,
    smith_invariant_factors,
)
from poset_tower.fixtures import (
    circle,
    edge,
    point,
    projective_plane,
    tetra_boundary,
    triangle,
)

from conftest import COMPLEXES, FIXTURE_DEPTHS, small_complexes


def rank_over_rationals(matrix):
    """Independent rank oracle: fraction-exact Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def betti_by_rank(K):
    """Rational Betti numbers from ranks alone (no torsion)."""
    cc = chain_complex(K)
    dim = len(cc.dims) - 1
    ranks = [rank_over_rationals(b) for b in cc.boundaries]
    out = []
    for k in range(dim + 1):
        rk = ranks[k - 1] if k >= 1 else 0
        rk1 = ranks[k] if k < dim else 0
        out.append(cc.dims[k] - rk - rk1)
    return tuple(out)


def determinant(rows):
    """Exact determinant of a square integer matrix, by Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for t in range(len(a)):
        pivot = next((i for i in range(t, len(a)) if a[i][t]), None)
        if pivot is None:
            return 0
        if pivot != t:
            a[t], a[pivot] = a[pivot], a[t]
            det = -det
        det *= a[t][t]
        for i in range(t + 1, len(a)):
            f = a[i][t] / a[t][t]
            a[i] = [x - f * y for x, y in zip(a[i], a[t])]
    return int(det)


def factors_by_minors(matrix):
    """Invariant factors from determinantal divisors: d_k is the gcd of the
    k x k minors, and the k-th factor is d_k / d_(k-1)."""
    m, n = len(matrix), len(matrix[0])
    factors = []
    previous = 1
    for k in range(1, min(m, n) + 1):
        d = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                d = gcd(d, determinant([[matrix[i][j] for j in cs] for i in rs]))
        if not d:
            break
        factors.append(d // previous)
        previous = d
    return tuple(factors)


def betti_by_smith(K):
    """The profile read from the public dense path: the invariant factors of
    each of ``chain_complex(K)``'s boundary matrices."""
    cc = chain_complex(K)
    factors = [smith_invariant_factors(b) for b in cc.boundaries]
    if cc.dims:
        factors.append(())
    ranks = [0] + [len(fs) for fs in factors]
    return BettiProfile(
        tuple(d - ranks[k] - ranks[k + 1] for k, d in enumerate(cc.dims)),
        tuple(tuple(f for f in fs if f > 1) for fs in factors))


@st.composite
def complexes_to_dim3(draw):
    """At most six vertices, dimension at most three."""
    verts = "abcdef"[:draw(st.integers(1, 6))]
    facets = draw(st.lists(
        st.lists(st.sampled_from(verts), min_size=1, max_size=4, unique=True),
        min_size=1, max_size=6))
    return SimplicialComplex.from_maximal(facets)


def three_sphere():
    """The boundary of the 4-simplex."""
    return SimplicialComplex.from_maximal(combinations("01234", 4))


def circle_edge_point():
    """A circle, an edge and a point, pairwise disjoint."""
    return SimplicialComplex.from_maximal(
        [["0", "1"], ["1", "2"], ["0", "2"], ["a", "b"], ["p"]])


class TestChainComplex:
    def test_point_has_no_boundaries(self):
        cc = chain_complex(point())
        assert cc.dims == (1,)
        assert cc.boundaries == ()

    def test_edge_boundary_column(self):
        cc = chain_complex(edge())
        assert cc.boundaries[0] == ((-1,), (1,))

    @pytest.mark.parametrize("name", sorted(COMPLEXES))
    def test_boundary_squares_to_zero(self, name):
        K = COMPLEXES[name]()
        for n in range(min(FIXTURE_DEPTHS[name], 2) + 1):
            assert chain_complex(subdivide(K, n).complex).is_valid()

    def test_flipped_sign_is_invalid(self):
        cc = chain_complex(triangle())
        top = [list(row) for row in cc.boundaries[1]]
        top[0][0] = -top[0][0]
        broken = ChainComplexZ(cc.dims, (cc.boundaries[0], tuple(map(tuple, top))))
        assert not broken.is_valid()


def small_matrices():
    """Integer matrices up to 6x6 with entries in -4..4, zeros weighted up."""
    entries = st.one_of(st.just(0), st.integers(-4, 4))
    return st.integers(1, 6).flatmap(lambda m: st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=m, max_size=m)))


class TestSmith:
    def test_identity_matrix(self):
        assert smith_invariant_factors(((1, 0), (0, 1))) == (1, 1)

    def test_zero_matrix(self):
        assert smith_invariant_factors(((0, 0), (0, 0))) == ()

    def test_divisibility_chain(self):
        assert smith_invariant_factors(((2, 4), (6, 8))) == (2, 4)

    def test_rectangular(self):
        assert smith_invariant_factors(((2, 0, 0),)) == (2,)

    def test_known_torsion_matrix(self):
        # diag(1, 2, 6) up to unimodular moves
        m = ((1, 0, 0), (0, 2, 0), (0, 0, 6))
        assert smith_invariant_factors(m) == (1, 2, 6)

    def test_rank_agrees_with_rational_oracle(self):
        for K in (circle(), tetra_boundary(), projective_plane()):
            for b in chain_complex(K).boundaries:
                snf_rank = sum(1 for f in smith_invariant_factors(b) if f)
                assert snf_rank == rank_over_rationals(b)

    @given(small_matrices())
    def test_matches_sympy(self, matrix):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        expected = invariant_factors(sympy.Matrix(matrix), domain=sympy.ZZ)
        assert smith_invariant_factors(matrix) == tuple(
            abs(int(f)) for f in expected if f)

    @given(small_matrices())
    def test_matches_determinantal_divisors(self, matrix):
        assert smith_invariant_factors(matrix) == factors_by_minors(matrix)

    def test_empty_matrix(self):
        assert smith_invariant_factors(()) == ()


class TestBetti:
    def test_point(self):
        assert betti(point()).betti == (1,)

    def test_circle(self):
        assert betti(circle()).betti == (1, 1)

    def test_solid_triangle(self):
        assert betti(triangle()).betti == (1, 0, 0)

    def test_tetra_boundary(self):
        profile = betti(tetra_boundary())
        assert profile.betti == (1, 0, 1)
        assert all(not t for t in profile.torsion)

    def test_projective_plane_torsion(self):
        profile = betti(projective_plane())
        assert profile.betti == (1, 0, 0)
        assert profile.torsion == ((), (2,), ())

    @pytest.mark.parametrize("name", sorted(COMPLEXES))
    def test_betti_matches_rank_oracle(self, name):
        K = COMPLEXES[name]()
        assert betti(K).betti == betti_by_rank(K)
        K1 = subdivide(K, 1).complex
        assert betti(K1).betti == betti_by_rank(K1)

    @pytest.mark.parametrize("name", sorted(COMPLEXES))
    def test_subdivision_invariance(self, name):
        K = COMPLEXES[name]()
        reference = betti(K)
        for n in (1, 2):
            assert betti(subdivide(K, n).complex) == reference

    @given(small_complexes())
    @settings(max_examples=60)
    def test_subdivision_invariance_on_random_complexes(self, K):
        reference = betti(K)
        for stage in subdivide(K, 2).stage_chain()[1:]:
            assert betti(stage.complex) == reference

    @pytest.mark.parametrize("name", sorted(COMPLEXES))
    def test_euler_characteristic_consistency(self, name):
        K = COMPLEXES[name]()
        profile = betti(K)
        alternating = sum((-1) ** k * d for k, d in enumerate(chain_complex(K).dims))
        assert euler_characteristic(profile) == alternating

    def test_reduced_triviality(self):
        assert betti(triangle()).is_reduced_trivial()
        assert not betti(circle()).is_reduced_trivial()
        assert not betti(projective_plane()).is_reduced_trivial()

    def test_empty_complex_is_not_acyclic(self):
        # reduced homology of the empty complex is Z in degree -1
        assert not betti(SimplicialComplex([], [])).is_reduced_trivial()

    def test_projective_plane_deep_subdivision(self):
        profile = betti(subdivide(projective_plane(), 2).complex)
        assert profile.betti == (1, 0, 0)
        assert profile.torsion == ((), (2,), ())

    def test_tetra_boundary_deep_subdivision(self):
        K = subdivide(tetra_boundary(), 3).complex
        assert len(K.simplices) == 2594
        assert betti(K) == betti(tetra_boundary())


class TestBettiOracle:
    """``betti`` clears columns top-down and ranks degree 1 by union-find; the
    oracle reduces every full boundary matrix of the public dense path."""

    @given(complexes_to_dim3())
    @settings(max_examples=200)
    def test_matches_smith_oracle(self, K):
        assert betti(K) == betti_by_smith(K)

    @pytest.mark.parametrize("make, betti_numbers, torsion", [
        (projective_plane, (1, 0, 0), ((), (2,), ())),
        (lambda: subdivide(projective_plane(), 1).complex, (1, 0, 0), ((), (2,), ())),
        (lambda: subdivide(projective_plane(), 2).complex, (1, 0, 0), ((), (2,), ())),
        (three_sphere, (1, 0, 0, 1), ((), (), (), ())),
        (circle_edge_point, (3, 1), ((), ())),
        (point, (1,), ((),)),
        (lambda: SimplicialComplex([], []), (), ()),
    ], ids=["rp2-stage0", "rp2-stage1", "rp2-stage2", "s3", "circle-edge-point",
            "point", "empty"])
    def test_fixed_cases(self, make, betti_numbers, torsion):
        K = make()
        assert betti(K) == betti_by_smith(K) == BettiProfile(betti_numbers, torsion)
