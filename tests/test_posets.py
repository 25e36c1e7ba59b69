import pytest

from poset_tower import (
    FinitePoset,
    PosetMap,
    Simplex,
    are_isomorphic,
    betti,
    check_order_isomorphism,
    core,
    face_poset,
    order_complex,
    subdivide,
    to_dot,
)
from poset_tower.errors import ElementNotFound, NotAPartialOrder, ResourceLimit
from poset_tower.fixtures import antichain, chain, circle, edge, fence3, point, projective_plane

from conftest import COMPLEXES

IDENTITY_COMPLEXES = {**COMPLEXES, "projective-plane": projective_plane}


class TestRelation:
    def test_up_set_fence(self):
        X = fence3()
        assert X.up_set("a") == {"a", "m"}
        assert X.up_set("m") == {"m"}

    def test_up_set_chain(self):
        X = chain(3)
        assert X.up_set("c0") == {"c0", "c1", "c2"}

    def test_min_open_fence(self):
        X = fence3()
        assert X.min_open("m") == {"a", "b", "m"}
        assert X.min_open("a") == {"a"}

    def test_min_open_antichain(self):
        X = antichain(2)
        assert X.min_open("x0") == {"x0"}

    def test_missing_element(self):
        with pytest.raises(ElementNotFound):
            fence3().up_set("z")

    def test_cycle_rejected(self):
        with pytest.raises(NotAPartialOrder):
            FinitePoset.from_pairs(["a", "b"], [("a", "b"), ("b", "a")])

    def test_up_sets_are_upward_closed(self):
        for X in (fence3(), chain(4), face_poset(circle())):
            for x in X.elements:
                up = X.up_set(x)
                assert x in up
                assert X.is_up_set(up)
                down = X.min_open(x)
                assert all(X.leq(y, x) for y in down)

    def test_json_round_trip(self):
        X = fence3()
        obj = X.to_json_obj()
        assert obj == {"elements": ["a", "b", "m"], "leq": [["a", "m"], ["b", "m"]]}
        assert FinitePoset.from_json_obj(obj) == X


class TestOrderPreserving:
    def test_identity(self):
        X = fence3()
        assert PosetMap(X, X, {x: x for x in X.elements}).is_order_preserving()

    def test_fence_to_chain(self):
        X = fence3()
        Y = FinitePoset.from_pairs(["a", "m"], [("a", "m")])
        f = PosetMap(X, Y, {"a": "a", "b": "a", "m": "m"})
        assert f.is_order_preserving()

    def test_swap_is_not(self):
        X = fence3()
        f = PosetMap(X, X, {"a": "m", "m": "a", "b": "b"})
        assert not f.is_order_preserving()


class TestCore:
    def test_chain_collapses(self):
        assert len(core(chain(3))) == 1

    def test_fence_collapses_to_maximum(self):
        c = core(fence3())
        assert c.elements == ("m",)

    def test_circle_face_poset_is_its_own_core(self):
        X = face_poset(circle())
        assert core(X) == X

    def test_core_idempotent(self):
        for X in (fence3(), chain(4), face_poset(edge()), face_poset(circle())):
            once = core(X)
            assert are_isomorphic(core(once), once)

    def test_core_preserves_betti(self):
        def padded(profile, n):
            return tuple(profile.betti) + (0,) * (n - len(profile.betti))

        for X in (fence3(), chain(4), face_poset(edge()), face_poset(circle())):
            small = betti(order_complex(core(X)))
            big = betti(order_complex(X))
            n = max(len(small.betti), len(big.betti))
            assert padded(small, n) == padded(big, n)
            assert all(not t for t in small.torsion + big.torsion)


class TestFunctors:
    def test_order_complex_of_chain_is_full_simplex(self):
        K = order_complex(chain(3))
        assert K.counts() == (3, 3, 1)

    def test_order_complex_of_fence_is_path(self):
        K = order_complex(fence3())
        assert K.k_simplices(1) == (Simplex(["a", "m"]), Simplex(["b", "m"]))

    def test_order_complex_of_antichain(self):
        K = order_complex(antichain(2))
        assert K.counts() == (2,)

    def test_face_poset_of_point(self):
        X = face_poset(point())
        assert len(X) == 1

    def test_face_poset_of_edge(self):
        X = face_poset(edge())
        assert set(X.elements) == {"{a}", "{b}", "{a,b}"}
        assert X.hasse_pairs() == [("{a}", "{a,b}"), ("{b}", "{a,b}")]

    def test_face_poset_of_circle(self):
        X = face_poset(circle())
        assert len(X) == 6
        assert len(X.hasse_pairs()) == 6

    @pytest.mark.parametrize("name, n", [
        pytest.param(name, n, id=name if n == 1 else f"{name}-sd{n}")
        for n in (1, 2, 3) for name in sorted(IDENTITY_COMPLEXES)])
    def test_order_complex_of_face_poset_is_first_subdivision(self, name, n):
        """Stage n, on ``{...}`` labels, is the order complex of stage n-1's face poset."""
        stage = subdivide(IDENTITY_COMPLEXES[name](), n)
        relabel = {lab: s.label() for lab, s in stage.provenance.items()}
        rebuilt = {Simplex(relabel[v] for v in s.verts)
                   for s in stage.complex.simplices}
        assert rebuilt == order_complex(face_poset(stage.previous.complex)).simplices

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_order_complex_honours_simplex_cap(self, monkeypatch, n):
        monkeypatch.setenv("POSET_TOWER_MAX_SIMPLICES", str(2 ** n - 1))
        assert len(order_complex(chain(n)).simplices) == 2 ** n - 1
        monkeypatch.setenv("POSET_TOWER_MAX_SIMPLICES", str(2 ** n - 2))
        with pytest.raises(ResourceLimit, match="POSET_TOWER_MAX_SIMPLICES"):
            order_complex(chain(n))


class TestIsomorphism:
    def test_relabelled_posets_are_isomorphic(self):
        X = fence3()
        Y = FinitePoset.from_pairs(["u", "v", "t"], [("u", "t"), ("v", "t")])
        assert are_isomorphic(X, Y)

    def test_different_shapes_are_not(self):
        assert not are_isomorphic(fence3(), chain(3))

    def test_explicit_candidate_check(self):
        X = fence3()
        Y = FinitePoset.from_pairs(["u", "v", "t"], [("u", "t"), ("v", "t")])
        assert check_order_isomorphism(X, Y, {"a": "u", "b": "v", "m": "t"})
        assert not check_order_isomorphism(X, Y, {"a": "t", "b": "v", "m": "u"})

    def test_down_set_sizes_alone_do_not_pass(self):
        # two chains a < c and b < d; swapping the tops keeps every down-set's
        # size but sends a < c to a, d, which are incomparable
        X = FinitePoset.from_pairs("abcd", [("a", "c"), ("b", "d")])
        swap = {"a": "a", "b": "b", "c": "d", "d": "c"}
        assert all(len(X.min_open(x)) == len(X.min_open(swap[x])) for x in "abcd")
        assert not check_order_isomorphism(X, X, swap)
        assert check_order_isomorphism(X, X, {"a": "b", "b": "a", "c": "d", "d": "c"})


def test_dot_export():
    assert to_dot(fence3()) == (
        'digraph hasse {\n'
        '  "a";\n'
        '  "b";\n'
        '  "m";\n'
        '  "a" -> "m";\n'
        '  "b" -> "m";\n'
        '}\n'
    )


def test_dot_export_single_element():
    assert to_dot(chain(1)) == 'digraph hasse {\n  "c0";\n}\n'
