import random
import re

import pytest
from hypothesis import given, strategies as st

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

from conftest import COMPLEXES, O, run_python

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


class TestClosureOracle:
    """``from_pairs`` against the closure ``O.up_closure``, written from the definition."""

    @given(elements=st.lists(st.sampled_from("abcdef"), unique=True),
           pairs=st.lists(st.tuples(st.sampled_from("abcdef"), st.sampled_from("abcdef"))))
    def test_from_pairs_matches_warshall(self, elements, pairs):
        labels = sorted({*elements, *(x for pair in pairs for x in pair)})
        up = O.up_closure(labels, pairs)
        cycles = sorted((x, y) for x in labels for y in labels
                        if x != y and y in up[x] and x in up[y])
        if cycles:
            x, y = cycles[0]
            with pytest.raises(NotAPartialOrder) as exc:
                FinitePoset.from_pairs(elements, pairs)
            assert str(exc.value) == f"{x!r} and {y!r} are mutually comparable"
            return
        X = FinitePoset.from_pairs(elements, pairs)
        assert X.elements == tuple(labels)
        assert all(X.leq(x, y) == (y in up[x]) for x in labels for y in labels)


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

    @pytest.mark.parametrize("assignment,message", [
        ({"a": "a", "b": "a"}, "no image for 'm'"),
        ({"a": "a", "b": "a", "m": "z"}, "image 'z' not in target poset"),
    ], ids=["missing-image", "image-outside-target"])
    def test_map_needs_every_image_in_the_target(self, assignment, message):
        X = fence3()
        with pytest.raises(ElementNotFound, match=f"^{re.escape(message)}$"):
            PosetMap(X, X, assignment)

    @pytest.mark.parametrize("x", ["z", ["a"]], ids=["outsider", "unhashable"])
    def test_call_outside_the_source(self, x):
        X = fence3()
        with pytest.raises(ElementNotFound, match=f"^{re.escape(repr(x))}$"):
            PosetMap(X, X, {y: y for y in X.elements})(x)

    def test_down_set_must_hold_its_element(self):
        with pytest.raises(NotAPartialOrder, match="^'b' missing from its own down-set$"):
            FinitePoset.from_down_sets(["a", "b"], {"a": {"a"}, "b": {"a"}})


class TestOutsiders:
    """A label that is not an element raises ``ElementNotFound`` naming it, under any hash seed."""

    SCRIPT = """
from poset_tower import FinitePoset
from poset_tower.errors import PosetTowerError
P = FinitePoset.from_pairs("abc", [("a", "c")])
for call in (
    lambda: FinitePoset.from_down_sets(["a"], {"a": frozenset({"a", "b"})}),
    lambda: FinitePoset.from_down_sets(["a", "c"], {"a": {"a"}, "c": {"c", "z", "y", "x", "a"}}),
    lambda: FinitePoset.from_down_sets(["a", "c"], {"a": {"a", "c", "z"}, "c": {"c", "a"}}),
    lambda: FinitePoset.from_down_sets(["a", "b"], {"a": frozenset({"a"})}),
    lambda: FinitePoset.from_down_sets(["c", "b", "a"], {"a": {"a"}}),
    lambda: P.is_up_set(["zz"]),
    lambda: P.is_up_set(["zz", "c", "yy"]),
):
    try:
        call()
    except PosetTowerError as exc:
        print(type(exc).__name__, exc)
"""

    def test_outsiders_are_named_under_two_hash_seeds(self):
        for seed in ("1", "4242"):
            result = run_python("-c", self.SCRIPT, PYTHONHASHSEED=seed)
            assert result.returncode == 0, result.stderr
            assert result.stdout.splitlines() == [
                "ElementNotFound 'b' in the down-set of 'a' is not an element",
                "ElementNotFound 'x' in the down-set of 'c' is not an element",
                # the outsider is named before the cycle through the same element
                "ElementNotFound 'z' in the down-set of 'a' is not an element",
                "ElementNotFound no down-set for 'b'",
                "ElementNotFound no down-set for 'b'",
                "ElementNotFound 'zz'",
                "ElementNotFound 'yy'",
            ]

    @pytest.mark.parametrize("call", [
        lambda P: P.leq(["a"], "c"),
        lambda P: P.leq("c", ["a"]),
        lambda P: P.up_set(["a"]),
        lambda P: P.min_open(["a"]),
        lambda P: P.strict_up(["a"]),
        lambda P: P.strict_down(["a"]),
        lambda P: P.is_up_set([["a"]]),
        lambda P: P.is_up_set(["c", ["a"]]),
        lambda P: P.restrict([["a"]]),
        lambda P: P.restrict(["a", ["a"]]),
    ], ids=["leq-lower", "leq-upper", "up_set", "min_open", "strict_up", "strict_down",
            "is_up_set", "is_up_set-second", "restrict", "restrict-second"])
    def test_unhashable_argument_is_named(self, call):
        P = FinitePoset.from_pairs("abc", [("a", "c")])
        with pytest.raises(ElementNotFound, match=r"^\['a'\]$"):
            call(P)

    def test_repeated_element_is_kept_once(self):
        P = FinitePoset.from_down_sets(["b", "a", "a"], {"a": {"a"}, "b": {"a", "b"}})
        assert P.elements == ("a", "b") and len(P) == 2
        assert P.to_json_obj() == {"elements": ["a", "b"], "leq": [["a", "b"]]}
        assert P == FinitePoset.from_pairs("ab", [("a", "b")])


def random_order(seed: int):
    """Labels and the pairs of a random strict order on them, from a seeded generator.

    The pairs go forward along a shuffled list, so they never close a cycle,
    and that list is not the canonical order of the labels.
    """
    rng = random.Random(seed)
    labels = [f"e{i}" for i in range(rng.randint(1, 9))]
    rng.shuffle(labels)
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:] if rng.random() < 0.3]
    return labels, pairs


def reference_core(up) -> list:
    """``core`` from the definition: drop the first beat point in canonical order until none is left."""
    while (beat := next((x for x in sorted(up) if O.is_beat_point(up, x)), None)) is not None:
        up = {y: s - {beat} for y, s in up.items() if y != beat}
    return sorted(up)


class TestDerivedUpSets:
    """Up-sets are derived from the down-sets on first read, and nothing depends on when.

    Every query runs on a fresh poset whose up-sets were (``warm``) or were
    not yet read, and is compared with the relation from the definition.
    """

    SEEDS = range(30)

    @staticmethod
    def fresh(labels, pairs, warm: bool) -> FinitePoset:
        X = FinitePoset.from_pairs(labels, pairs)
        assert X._up is None
        if warm:
            X.up_set(X.elements[0])
            assert X._up is not None
        return X

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_queries_match_the_definition(self, warm):
        for seed in self.SEEDS:
            rng = random.Random(seed)
            labels, pairs = random_order(seed)
            labels = sorted(labels)
            up = {x: frozenset(s) for x, s in O.up_closure(labels, pairs).items()}
            for x in labels:
                assert self.fresh(labels, pairs, warm).up_set(x) == up[x]
                assert self.fresh(labels, pairs, warm).strict_up(x) == up[x] - {x}
            for _ in range(5):
                subset = rng.sample(labels, rng.randint(0, len(labels)))
                assert self.fresh(labels, pairs, warm).is_up_set(subset) == all(
                    up[x] <= set(subset) for x in subset)
                X = self.fresh(labels, pairs, warm)
                R = X.restrict(subset)
                assert (R._up is None) == (not warm)
                assert all(R.up_set(x) == up[x] & set(subset) for x in subset)
                f = {x: rng.choice(labels) for x in labels}
                assert PosetMap(X, X, f).is_order_preserving() == all(
                    f[y] in up[f[x]] for x in labels for y in up[x])
            assert self.fresh(labels, pairs, warm).is_up_set(labels)
            assert core(self.fresh(labels, pairs, warm)).elements == tuple(
                reference_core(up))

    def test_cold_and_warm_restrictions_and_cores_are_equal(self):
        for seed in self.SEEDS:
            labels, pairs = random_order(seed)
            keep = labels[::2]
            cold, warm = (self.fresh(labels, pairs, w) for w in (False, True))
            assert cold.restrict(keep) == warm.restrict(keep)
            assert core(cold) == core(warm)


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
