import re
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from poset_tower import (
    RationalPoint,
    Simplex,
    SimplicialComplex,
    dist_sq,
    link,
    open_star,
    star,
    support,
    validate_complex,
)
from poset_tower.complexes import _MAX_EXPONENT
from poset_tower.errors import (
    InvalidComplex,
    InvalidPoint,
    MissingFace,
    NoCommonSimplex,
    SimplexNotInComplex,
    UnknownVertex,
)
from poset_tower.subdivision import _numerators, lift_point, subdivide
from poset_tower.verify import sample_points

from conftest import COMPLEXES, is_complex, is_face_of, run_python, small_complexes


def labels(simplices):
    return sorted(s.label() for s in simplices)


class TestValidation:
    def test_point_complex(self):
        K = validate_complex(["v"], [["v"]])
        assert K.vertices == ("v",)
        assert K.dim == 0

    def test_full_edge(self):
        K = validate_complex(["a", "b"], [["a"], ["b"], ["a", "b"]])
        assert K.counts() == (2, 1)

    def test_missing_singleton_faces(self):
        with pytest.raises(MissingFace) as exc:
            validate_complex(["a", "b"], [["a", "b"]])
        assert exc.value.face == Simplex(["a"])
        assert exc.value.parent == Simplex(["a", "b"])

    def test_triangle_missing_one_edge(self):
        with pytest.raises(MissingFace) as exc:
            validate_complex(["a", "b", "c"], [["a"], ["b"], ["c"], ["a", "b"], ["b", "c"],
                                               ["a", "b", "c"]])
        assert exc.value.face == Simplex(["a", "c"])
        assert exc.value.parent == Simplex(["a", "b", "c"])

    @given(st.data())
    @settings(max_examples=200)
    def test_rejects_exactly_what_the_oracle_rejects(self, data):
        K = data.draw(small_complexes())
        sims = K.sorted_simplices()
        dropped = data.draw(st.sets(st.sampled_from(sims), max_size=3))
        unlisted = data.draw(st.sets(st.sampled_from(K.vertices), max_size=1))
        vertices = [v for v in K.vertices if v not in unlisted]
        kept = [s for s in sims if s not in dropped]
        if is_complex(vertices, [s.verts for s in kept]):
            assert SimplicialComplex(vertices, kept).simplices == frozenset(kept)
        else:
            with pytest.raises(InvalidComplex):
                SimplicialComplex(vertices, kept)

    def test_first_fault_in_canonical_order_is_reported(self):
        # {a,b} (missing {a}) comes before {a,x} (unknown x) and {a,b,c}
        with pytest.raises(MissingFace) as exc:
            validate_complex(["a", "b", "c"], [["a", "b", "c"], ["a", "x"], ["a", "b"],
                                               ["a", "c"], ["b", "c"], ["b"], ["c"]])
        assert exc.value.parent == Simplex(["a", "b"])
        with pytest.raises(UnknownVertex):
            validate_complex(["a"], [["a", "x"], ["a", "b", "x"], ["a"], ["x"]])

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            validate_complex(["a"], [["a"], ["b"]])

    def test_vertex_without_singleton(self):
        with pytest.raises(MissingFace):
            validate_complex(["a", "b"], [["a"]])

    @pytest.mark.parametrize("obj", [
        {"vertices": ["a"], "simplices": "a"},
        {"vertices": ["a"], "simplices": {"a": ["a"]}},
        {"vertices": "a", "simplices": [["a"]]},
        {"vertices": ["a", 1], "simplices": [["a"]]},
        {"vertices": ["a"], "simplices": ["a"]},
        {"vertices": ["a"], "simplices": [["a", None]]},
        ["a"],
    ], ids=["simplices-string", "simplices-object", "vertices-string",
            "vertex-number", "simplex-string", "simplex-null", "not-an-object"])
    def test_bad_shapes_rejected(self, obj):
        with pytest.raises(InvalidComplex):
            SimplicialComplex.from_json_obj(obj)

    def test_empty_simplex_rejected(self):
        with pytest.raises(InvalidComplex):
            Simplex([])

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(InvalidComplex):
            Simplex(["a", "a"])

    def test_json_round_trip_is_bit_exact(self, S1):
        obj = S1.to_json_obj()
        again = SimplicialComplex.from_json_obj(obj)
        assert again == S1
        assert again.to_json_obj() == obj


class TestDeterministicFaults:
    """The fault a validation error names does not depend on the string hash seed."""

    SCRIPT = """
from poset_tower import validate_complex
from poset_tower.errors import PosetTowerError
try:
    validate_complex(["a", "b", "c"],
                     [["a", "b", "c"], ["a", "b"], ["a", "c"], ["b", "c"], ["b"], ["c"]])
except PosetTowerError as exc:
    print(exc)
"""

    def test_same_message_under_every_hash_seed(self):
        outputs = set()
        for seed in ("1", "2", "3", "4", "5"):
            result = run_python("-c", self.SCRIPT, PYTHONHASHSEED=seed)
            assert result.returncode == 0, result.stderr
            outputs.add(result.stdout)
        assert outputs == {"face Simplex({a}) of simplex Simplex({a,b}) is missing\n"}


class TestUnchangedCheckMessages:
    """The simplex and support checks raise the same types and messages under any hash seed."""

    SCRIPT = """
from poset_tower import RationalPoint, Simplex, SimplicialComplex
from poset_tower.errors import PosetTowerError
K = SimplicialComplex.from_maximal([["a", "b"], ["b", "c"]])
for make in (lambda: Simplex([]), lambda: Simplex(["b", "a", "b"]),
             lambda: Simplex(["c", "b", "a", "c", "b"]),
             lambda: RationalPoint(K, {"a": "1/2", "c": "1/2"})):
    try:
        make()
    except PosetTowerError as exc:
        print(type(exc).__name__, exc)
"""

    def test_same_types_and_messages(self):
        for seed in ("1", "4242"):
            result = run_python("-c", self.SCRIPT, PYTHONHASHSEED=seed)
            assert result.returncode == 0, result.stderr
            assert result.stdout.splitlines() == [
                "InvalidComplex a simplex needs at least one vertex",
                "InvalidComplex duplicate vertex 'b' in simplex",
                "InvalidComplex duplicate vertex 'b' in simplex",
                "InvalidPoint support {a,c} is not a simplex of the complex",
            ]


class TestSupport:
    def test_vertex_point(self, E):
        p = RationalPoint.vertex(E, "a")
        assert support(p) == Simplex(["a"])

    def test_interior_point(self, E):
        p = RationalPoint(E, {"a": Fraction(2, 3), "b": Fraction(1, 3)})
        assert support(p) == Simplex(["a", "b"])

    def test_barycenter_of_triangle(self, TRI):
        p = RationalPoint(TRI, {v: Fraction(1, 3) for v in "012"})
        assert support(p) == Simplex(["0", "1", "2"])

    def test_zero_coordinates_dropped(self, E):
        p = RationalPoint(E, {"a": Fraction(1), "b": Fraction(0)})
        assert p.coords == {"a": Fraction(1)}

    def test_sum_must_be_one(self, E):
        with pytest.raises(InvalidPoint):
            RationalPoint(E, {"a": Fraction(1, 2)})

    def test_negative_coordinate(self, E):
        with pytest.raises(InvalidPoint):
            RationalPoint(E, {"a": Fraction(3, 2), "b": Fraction(-1, 2)})

    def test_support_must_be_simplex(self, S1):
        with pytest.raises(InvalidPoint):
            RationalPoint(S1, {v: Fraction(1, 3) for v in "012"})

    @pytest.mark.parametrize("coords, key", [
        ({1: 1}, "1"),
        ({"0": "1/2", 2: "1/2"}, "2"),
    ])
    def test_key_that_is_not_a_string_is_named(self, TRI, coords, key):
        with pytest.raises(InvalidPoint) as exc:
            RationalPoint(TRI, coords)
        assert str(exc.value) == f"coordinate key {key} is not a vertex name"


class TestSupportCheck:
    """A point's support is looked up as a sorted vertex tuple in its
    complex's set of vertex tuples; a ``Simplex`` is built only to name a
    support that is not in the complex."""

    @pytest.mark.parametrize("name", sorted(COMPLEXES))
    def test_vertex_tuples_are_the_simplices(self, name):
        for n in range(3):
            K = subdivide(COMPLEXES[name](), n).complex
            assert K._vertex_tuples() == {s.verts for s in K.simplices}

    @pytest.mark.parametrize("stage, numerators, label", [
        (0, {"0": 1, "1": 1, "2": 1}, "{0,1,2}"),
        (0, {"2": 1, "z": 1}, "{2,z}"),
        (1, {"1": 1, "0": 1}, "{0,1}"),
        (1, {"b{1,2}": 2, "b{0,1}": 1}, "{b{0,1},b{1,2}}"),
    ])
    def test_off_complex_support_is_named(self, S1, stage, numerators, label):
        K = subdivide(S1, stage).complex
        D = sum(numerators.values())
        for make in (lambda: RationalPoint._from_numerators(K, D, numerators),
                     lambda: RationalPoint(K, {v: Fraction(a, D) for v, a in numerators.items()})):
            with pytest.raises(InvalidPoint) as exc:
                make()
            assert str(exc.value) == f"support {label} is not a simplex of the complex"

    def test_passing_points_build_no_simplex(self, TRI, built_simplices):
        stage = subdivide(TRI, 3)
        stage.complex.sorted_simplices()
        del built_simplices[:]
        points = sample_points(TRI, 200, 0)
        lifted = [lift_point(stage, p) for p in points]
        assert built_simplices == []
        assert all(p.complex is TRI for p in points)
        assert all(q.complex is stage.complex for q in lifted)


class TestStarLink:
    def test_star_of_vertex_in_edge(self, E):
        assert star(E, Simplex(["a"])) == E

    def test_star_in_circle(self, S1):
        st = star(S1, Simplex(["0"]))
        assert st.simplices == {
            Simplex(["0"]), Simplex(["1"]), Simplex(["2"]),
            Simplex(["0", "1"]), Simplex(["0", "2"]),
        }

    def test_star_of_point(self, PT):
        assert star(PT, Simplex(["v"])) == PT

    def test_link_in_edge(self, E):
        lk = link(E, Simplex(["a"]))
        assert lk.simplices == {Simplex(["b"])}

    def test_link_in_circle(self, S1):
        lk = link(S1, Simplex(["0"]))
        assert lk.simplices == {Simplex(["1"]), Simplex(["2"])}

    def test_link_of_top_simplex_is_empty(self, TRI):
        lk = link(TRI, Simplex(["0", "1", "2"]))
        assert lk.simplices == frozenset()
        assert lk.vertices == ()

    def test_open_star_in_edge(self, E):
        assert open_star(E, Simplex(["a"])) == {Simplex(["a"]), Simplex(["a", "b"])}
        assert open_star(E, Simplex(["a", "b"])) == {Simplex(["a", "b"])}

    def test_open_star_in_circle(self, S1):
        assert open_star(S1, Simplex(["0"])) == {
            Simplex(["0"]), Simplex(["0", "1"]), Simplex(["0", "2"])}

    def test_missing_simplex_raises(self, S1):
        with pytest.raises(SimplexNotInComplex):
            star(S1, Simplex(["0", "1", "2"]))

    @pytest.mark.parametrize("call,error,message", [
        (lambda E: open_star(E, "a"), SimplexNotInComplex, "'a'"),
        (lambda E: star(E, "a"), SimplexNotInComplex, "'a'"),
        (lambda E: E.cofaces("a"), SimplexNotInComplex, "'a'"),
        (lambda E: RationalPoint.barycenter(E, "a"), SimplexNotInComplex, "'a'"),
        (lambda E: link(E, ["a"]), SimplexNotInComplex, "['a']"),
        (lambda E: E.cofaces(["a"]), SimplexNotInComplex, "['a']"),
        (lambda E: RationalPoint.barycenter(E, ["a"]), SimplexNotInComplex, "['a']"),
        (lambda E: RationalPoint.vertex(E, 5), InvalidPoint, "5 is not a vertex name"),
        (lambda E: RationalPoint.vertex(E, ["a"]), InvalidPoint, "['a'] is not a vertex name"),
        (lambda E: RationalPoint.vertex(E, "a").coord(5), InvalidPoint, "5 is not a vertex name"),
        (lambda E: RationalPoint.vertex(E, "a").coord(["a"]), InvalidPoint,
         "['a'] is not a vertex name"),
    ], ids=["open-star", "star", "cofaces", "barycenter", "link-list", "cofaces-list",
            "barycenter-list", "vertex-int", "vertex-list", "coord-int", "coord-list"])
    def test_argument_that_is_not_a_simplex(self, E, call, error, message):
        """These ended in an AttributeError from the error path, or a TypeError."""
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(E)

    @pytest.mark.parametrize("name", sorted(COMPLEXES))
    def test_star_link_open_star_identities(self, name):
        K = COMPLEXES[name]()
        for s in K.sorted_simplices():
            st = star(K, s)
            lk = link(K, s)
            assert lk.simplices == {
                t for t in st.simplices if not set(t.verts) & set(s.verts)}
            ost = open_star(K, s)
            for t in st.simplices:
                assert (t in ost) == is_face_of(s, t)


STAGE_COMPLEXES = [
    pytest.param(st.complex, id=f"{name}-sd{st.stage}")
    for name in sorted(COMPLEXES)
    for st in subdivide(COMPLEXES[name](), 2).stage_chain()
]


class TestCanonicalOrder:
    @given(small_complexes(), st.integers(0, 2))
    @settings(max_examples=40)
    def test_sorted_simplices_is_simplex_order(self, K, n):
        cx = subdivide(K, n).complex
        assert cx.sorted_simplices() == tuple(sorted(cx.simplices))


class TestIncidenceOracle:
    """Cofaces, open stars and stars against scans written from the definitions."""

    @pytest.mark.parametrize("K", STAGE_COMPLEXES)
    def test_against_brute_force(self, K):
        sims = K.sorted_simplices()
        for s in sims:
            cofaces = [t for t in sims if t != s and is_face_of(s, t)]
            assert K.cofaces(s) == tuple(cofaces)
            assert open_star(K, s) == {s, *cofaces}
            closed = {t for t in sims if t.union(s) in K}
            assert star(K, s).simplices == closed
            assert star(K, s).vertices == tuple(sorted({v for t in closed for v in t}))

    def test_cofaces_of_missing_simplex(self, S1):
        with pytest.raises(SimplexNotInComplex):
            S1.cofaces(Simplex(["0", "1", "2"]))

    def test_has_vertex(self, E):
        assert E.has_vertex("a")
        assert not E.has_vertex("c")
        assert not E.has_vertex("b{a,b}")
        assert not E.has_vertex(["a"])


class TestPointForm:
    """Points are stored as integer numerators over one common denominator."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_integer_constructor_matches_fraction_constructor(self, data):
        K = data.draw(small_complexes())
        verts = data.draw(st.lists(st.sampled_from(K.vertices), min_size=1, unique=True))
        numerators = {v: data.draw(st.integers(0, 6)) for v in verts}
        fault = data.draw(st.sampled_from(["none", "negative", "sum", "support"]))
        if fault == "negative":
            numerators[data.draw(st.sampled_from(verts))] = -data.draw(st.integers(1, 6))
        if fault == "support":
            numerators["z"] = data.draw(st.integers(1, 6))
        D = max(sum(numerators.values()), 1)
        if fault == "sum":
            D += data.draw(st.integers(1, 5))
        # a common factor keeps D from being reduced
        scale = data.draw(st.integers(1, 4))
        numerators = {v: a * scale for v, a in numerators.items()}
        D *= scale

        def build(make):
            try:
                return make(), None
            except InvalidPoint as exc:
                return None, str(exc)

        got, got_error = build(lambda: RationalPoint._from_numerators(K, D, numerators))
        want, want_error = build(
            lambda: RationalPoint(K, {v: Fraction(a, D) for v, a in numerators.items()}))
        assert got_error == want_error
        if want is not None:
            assert got == want
            assert got.coords == want.coords
            assert _numerators(got) == _numerators(want)
            g, nums = _numerators(got)
            assert sum(nums.values()) == g and 0 not in nums.values()

    def test_equal_points_have_equal_pairs(self, E):
        p = RationalPoint._from_numerators(E, 6, {"a": 4, "b": 2})
        q = RationalPoint(E, {"a": "2/3", "b": Fraction(1, 3)})
        assert _numerators(p) == _numerators(q) == (3, {"a": 2, "b": 1})
        assert p == q

    def test_coords_are_read_only(self, E):
        for p in (RationalPoint(E, {"a": Fraction(2, 3), "b": Fraction(1, 3)}),
                  RationalPoint._from_numerators(E, 3, {"a": 2, "b": 1})):
            with pytest.raises(TypeError):
                p.coords["a"] = Fraction(1)
            assert p.coords == {"a": Fraction(2, 3), "b": Fraction(1, 3)}
            assert p.coords is p.coords

    @pytest.mark.parametrize("value", ["1e4301", "1e-4301", "1E+0_4301", "2.5e-100000000",
                                       "1e" + "9" * 5000])
    def test_huge_decimal_exponent_is_refused(self, E, value):
        with pytest.raises(InvalidPoint, match="decimal exponent"):
            RationalPoint(E, {"a": value, "b": "1"})

    @pytest.mark.parametrize("value", ["1e-4300", "1e-0004300", " 1e-4_300 "])
    def test_exponent_at_the_bound_is_read(self, E, value):
        with pytest.raises(InvalidPoint, match="sum to exactly 1"):
            RationalPoint(E, {"a": value, "b": "1"})

    @pytest.mark.parametrize("value", ["1e-1000000", "1e+1000000", "4301e-4301", "1e4301"])
    def test_huge_decimal_object_exponent_is_refused_at_once(self, E, value):
        start = time.perf_counter()
        with pytest.raises(InvalidPoint, match=f"coordinate at 'a' has a decimal exponent beyond {_MAX_EXPONENT}"):
            RationalPoint(E, {"a": Decimal(value), "b": 1})
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("value", ["1e-4300", "1e4300", "0.5e0"])
    def test_decimal_object_exponent_at_the_bound_is_read(self, E, value):
        with pytest.raises(InvalidPoint, match="sum to exactly 1"):
            RationalPoint(E, {"a": Decimal(value), "b": 1})
        assert RationalPoint(E, {"a": Decimal("0.25"), "b": Decimal("75e-2")}).coords == {
            "a": Fraction(1, 4), "b": Fraction(3, 4)}

    @pytest.mark.parametrize("value", ["NaN", "-Infinity", "Infinity", "sNaN"])
    def test_decimal_nan_and_infinity_are_not_rational(self, E, value):
        with pytest.raises(InvalidPoint, match="is not a rational number"):
            RationalPoint(E, {"a": Decimal(value), "b": 1})

    @pytest.mark.parametrize("coords", [{"a": True}, {"a": True, "b": False},
                                        {"a": 1, "b": False}])
    def test_booleans_are_not_coordinates(self, E, coords):
        with pytest.raises(InvalidPoint, match=r"coordinate (True|False) at '[ab]' is not a rational"):
            RationalPoint(E, coords)


class TestDistance:
    def test_zero_for_identical(self, E):
        p = RationalPoint(E, {"a": Fraction(2, 3), "b": Fraction(1, 3)})
        assert dist_sq(p, p) == 0

    def test_between_vertices(self, E):
        assert dist_sq(RationalPoint.vertex(E, "a"), RationalPoint.vertex(E, "b")) == 2

    def test_interior_pair(self, E):
        p = RationalPoint(E, {"a": Fraction(2, 3), "b": Fraction(1, 3)})
        q = RationalPoint(E, {"a": Fraction(1, 3), "b": Fraction(2, 3)})
        assert dist_sq(p, q) == Fraction(2, 9)

    def test_no_common_simplex(self, S1):
        p = RationalPoint(S1, {"0": Fraction(1, 2), "1": Fraction(1, 2)})
        q = RationalPoint(S1, {"1": Fraction(1, 2), "2": Fraction(1, 2)})
        with pytest.raises(NoCommonSimplex):
            dist_sq(p, q)

    @pytest.mark.parametrize("name", ["edge", "circle", "triangle"])
    def test_metric_properties_on_sampled_triples(self, name):
        K = COMPLEXES[name]()
        top = max(K.sorted_simplices(), key=len)
        pts = [p for p in sample_points(K, 40, seed=7)
               if is_face_of(p.support(), top)]
        for i, p in enumerate(pts):
            for q in pts[i:]:
                d = dist_sq(p, q)
                assert d == dist_sq(q, p)
                assert (d == 0) == (p == q)
        for p in pts[:6]:
            for q in pts[:6]:
                for r in pts[:6]:
                    assert dist_sq(p, r) <= 2 * (dist_sq(p, q) + dist_sq(q, r))

    def test_point_json_round_trip(self, E):
        p = RationalPoint(E, {"a": Fraction(2, 3), "b": Fraction(1, 3)})
        obj = p.to_json_obj()
        assert obj == {"coords": {"a": "2/3", "b": "1/3"}}
        assert RationalPoint.from_json_obj(E, obj) == p

    @pytest.mark.parametrize("value", ["1/0", "x", None])
    def test_point_json_bad_coordinate(self, E, value):
        with pytest.raises(InvalidPoint):
            RationalPoint.from_json_obj(E, {"coords": {"a": value}})
