import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from poset_tower import SimplicialComplex, betti, chain_complex, subdivide
from poset_tower import homology
from poset_tower.errors import InvalidInput
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


def grid_surface(twist):
    """The 3x3 grid of squares, each cut along a diagonal, with opposite
    sides glued: a torus, or with one gluing reversed a Klein bottle."""
    def name(i, j):
        if j == 3:
            i, j = (3 - i if twist else i), 0
        return f"{i % 3}{j}"
    triangles = []
    for i in range(3):
        for j in range(3):
            a, b, c, d = name(i, j), name(i + 1, j), name(i, j + 1), name(i + 1, j + 1)
            triangles += [[a, b, d], [a, c, d]]
    return SimplicialComplex.from_maximal(triangles)


def mobius_band():
    """Five triangles {i, i+1, i+2} mod 5."""
    return SimplicialComplex.from_maximal(
        [[str(i), str((i + 1) % 5), str((i + 2) % 5)] for i in range(5)])


def disjoint_union(*complexes):
    """The complexes side by side, the vertices of the i-th prefixed by i."""
    return SimplicialComplex.from_maximal(
        [[f"{i}:{v}" for v in s.verts] for i, K in enumerate(complexes) for s in K.simplices])


def triangles_on_an_edge():
    """Three triangles sharing the edge {a, b}: the edge has three cofaces."""
    return SimplicialComplex.from_maximal([["a", "b", c] for c in "cde"])


def rp2_with_a_fin():
    """RP^2 with a triangle glued on the edge {0, 1}, which then has three
    cofaces."""
    return SimplicialComplex.from_maximal(
        [list(s.verts) for s in projective_plane().simplices] + [["0", "1", "1a"]])


def two_skeleton_of_4_simplex():
    """Every edge lies in three triangles, and H_2 has rank 4."""
    return SimplicialComplex.from_maximal(combinations("01234", 3))


@lru_cache(maxsize=None)
def sd_projective_plane_triangles():
    """The triangles of sd(RP^2), and its vertices, in canonical order."""
    K = subdivide(projective_plane(), 1).complex
    return ([s.verts for s in K.simplices if len(s.verts) == 3],
            [s.verts[0] for s in K.simplices if len(s.verts) == 1])


@st.composite
def pure_subcomplexes_of_sd_rp2(draw):
    """sd(RP^2) less a few triangles, sometimes with one more triangle on any
    three of its vertices glued on."""
    triangles, verts = sd_projective_plane_triangles()
    removed = draw(st.sets(st.sampled_from(triangles), max_size=len(triangles) - 1))
    facets = [list(t) for t in triangles if t not in removed]
    if draw(st.booleans()):
        facets.append(draw(st.lists(st.sampled_from(verts), min_size=3, max_size=3, unique=True)))
    return SimplicialComplex.from_maximal(facets)


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

    @pytest.mark.parametrize("dims, boundaries, message", [
        ((1, 1, 1), (((1,),), ((1,), (1,))),
         "degree 2 boundary matrix has 2 rows, degree 1 has 1 columns"),
        # degrees 1 and 2 chain but do not compose to zero; the shapes are
        # checked before any product is formed
        ((2, 1, 1, 1), (((1,), (1,)), ((1,),), ((1,), (1,))),
         "degree 3 boundary matrix has 2 rows, degree 2 has 1 columns"),
    ])
    def test_matrices_that_do_not_chain_name_the_degree(self, dims, boundaries, message):
        with pytest.raises(InvalidInput, match=re.escape(message)):
            ChainComplexZ(dims, boundaries).is_valid()


def integer_matrices(size, bound):
    """Integer matrices up to size x size with entries in -bound..bound, zeros
    weighted up."""
    entries = st.one_of(st.just(0), st.integers(-bound, bound))
    return st.integers(1, size).flatmap(lambda m: st.integers(1, size).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=m, max_size=m)))


def small_matrices():
    """Integer matrices up to 6x6 with entries in -4..4, zeros weighted up."""
    return integer_matrices(6, 4)


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

    @given(integer_matrices(12, 9))
    @settings(deadline=None)
    def test_matches_sympy_up_to_12x12(self, matrix):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        expected = invariant_factors(sympy.Matrix(matrix), domain=sympy.ZZ)
        assert smith_invariant_factors(matrix) == tuple(
            abs(int(f)) for f in expected if f)

    def test_12x12_whose_entries_grew_without_bound(self):
        # an elimination whose entries can grow without bound does not
        # finish on this matrix
        matrix = [
            [0, 2, 0, -9, 0, -3, 8, 0, 0, 7, 0, 0],
            [0, -1, 3, 3, 0, 0, -5, 0, 0, 4, 0, 8],
            [0, 0, 0, 0, 0, 0, -7, 0, 0, 0, 0, 4],
            [0, -8, 0, 0, 0, 0, 0, 0, -3, 0, 0, 0],
            [0, 3, 5, 0, 0, 0, 0, 0, 0, -9, 0, -9],
            [0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -3],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4],
            [-8, 0, -9, 7, 0, -8, 0, 0, 0, 0, 0, 0],
            [0, 0, -9, 0, 0, 0, 7, 0, 0, -1, 0, 0],
            [0, 0, 0, -9, 9, 0, 0, 7, -8, 0, 0, 0],
            [0, 0, -7, 0, 0, 2, 0, 0, 0, 0, 0, 0],
        ]
        assert smith_invariant_factors(matrix) == (1,) * 9 + (3, 1304856)

    @given(small_matrices())
    def test_matches_determinantal_divisors(self, matrix):
        assert smith_invariant_factors(matrix) == factors_by_minors(matrix)

    def test_empty_matrix(self):
        assert smith_invariant_factors(()) == ()
        assert smith_invariant_factors([]) == ()

    @pytest.mark.parametrize("matrix", [[[1, 2], [3]], [[1], [2, 3]]])
    def test_ragged_matrix_names_its_first_odd_row(self, matrix):
        with pytest.raises(InvalidInput, match="row 1 has"):
            smith_invariant_factors(matrix)

    @pytest.mark.parametrize("matrix, where", [
        ([[1.5]], "row 0 column 0 is 1.5,"),
        ([[0.5, 1], [1, 0]], "row 0 column 0 is 0.5,"),
        ([[2, 3.0]], "row 0 column 1 is 3.0,"),
        ([[True, 0]], "row 0 column 0 is True,"),
        ([["a"]], "row 0 column 0 is 'a',"),
        ([1, 2], "row 0 is 1, not a list or tuple"),
        (5, "a matrix must be a list or tuple of rows, not int"),
        (iter([[1]]), "a matrix must be a list or tuple of rows, not list_iterator"),
    ])
    def test_entry_that_is_not_an_int_is_named(self, matrix, where):
        with pytest.raises(InvalidInput, match=re.escape(where)):
            smith_invariant_factors(matrix)


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
    """``betti`` ranks degree 1, and the top degree when no face has three
    cofaces, as signed graphs, and clears the rest top-down with the sparse
    elimination; the oracle reduces every full boundary matrix of the public
    dense path."""

    @given(complexes_to_dim3())
    @settings(max_examples=200)
    def test_matches_smith_oracle(self, K):
        assert betti(K) == betti_by_smith(K)

    @given(pure_subcomplexes_of_sd_rp2())
    @settings(max_examples=80, deadline=None)
    def test_matches_smith_oracle_on_pieces_of_sd_rp2(self, K):
        assert betti(K) == betti_by_smith(K)

    @pytest.mark.parametrize("make, betti_numbers, torsion", [
        (projective_plane, (1, 0, 0), ((), (2,), ())),
        (lambda: subdivide(projective_plane(), 1).complex, (1, 0, 0), ((), (2,), ())),
        (lambda: subdivide(projective_plane(), 2).complex, (1, 0, 0), ((), (2,), ())),
        (three_sphere, (1, 0, 0, 1), ((), (), (), ())),
        (lambda: subdivide(three_sphere(), 1).complex, (1, 0, 0, 1), ((), (), (), ())),
        (lambda: grid_surface(twist=True), (1, 1, 0), ((), (2,), ())),
        (mobius_band, (1, 1, 0), ((), (), ())),
        (lambda: disjoint_union(projective_plane(), projective_plane()),
         (2, 0, 0), ((), (2, 2), ())),
        (lambda: disjoint_union(projective_plane(), grid_surface(twist=False)),
         (2, 2, 1), ((), (2,), ())),
        (triangles_on_an_edge, (1, 0, 0), ((), (), ())),
        (rp2_with_a_fin, (1, 0, 0), ((), (2,), ())),
        (two_skeleton_of_4_simplex, (1, 0, 4), ((), (), ())),
        (circle_edge_point, (3, 1), ((), ())),
        (point, (1,), ((),)),
        (lambda: SimplicialComplex([], []), (), ()),
    ], ids=["rp2-stage0", "rp2-stage1", "rp2-stage2", "s3", "sd-s3", "klein-bottle",
            "mobius-band", "rp2-rp2", "rp2-torus", "triangles-on-an-edge", "rp2-with-a-fin",
            "2-skeleton-of-4-simplex", "circle-edge-point", "point", "empty"])
    def test_fixed_cases(self, make, betti_numbers, torsion):
        K = make()
        assert betti(K) == betti_by_smith(K) == BettiProfile(betti_numbers, torsion)

    @pytest.mark.parametrize("make", [
        lambda: subdivide(rp2_with_a_fin(), 1).complex,
        two_skeleton_of_4_simplex,
        lambda: grid_surface(twist=True),
        three_sphere,
    ], ids=["sd-rp2-with-a-fin", "2-skeleton-of-4-simplex", "klein-bottle", "s3"])
    def test_independent_of_simplex_order(self, monkeypatch, make):
        """``betti`` ranks simplices in set order; shuffling each degree
        changes its elimination path but not its profile."""
        K = make()
        expected = betti(K)
        assert expected == betti_by_smith(K)
        by_dim = homology._simplices_by_dim
        rng = random.Random()

        def shuffled(K):
            levels = by_dim(K)
            for level in levels:
                rng.shuffle(level)
            return levels

        monkeypatch.setattr(homology, "_simplices_by_dim", shuffled)
        for seed in range(30):
            rng.seed(seed)
            assert betti(K) == expected, seed

    @pytest.mark.parametrize("make, eliminated", [
        (lambda: subdivide(projective_plane(), 1).complex, False),
        (two_skeleton_of_4_simplex, True),
    ], ids=["rp2-stage1", "2-skeleton-of-4-simplex"])
    def test_sparse_elimination_only_where_a_face_has_three_cofaces(
            self, monkeypatch, make, eliminated):
        calls = []
        original = homology._sparse_invariant_factors

        def counted(cols, nrows):
            calls.append(nrows)
            return original(cols, nrows)

        monkeypatch.setattr(homology, "_sparse_invariant_factors", counted)
        betti(make())
        assert bool(calls) == eliminated
