from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from poset_tower import (
    FinitePoset,
    RationalPoint,
    Simplex,
    SimplicialComplex,
    Tower,
    betti,
    build_level,
    core,
    dist_sq,
    face_poset,
    mesh_sq_bound,
    open_star,
    order_complex,
    check_order_isomorphism,
    sd_coordinates,
    stage_vertex_label,
    star,
)
from poset_tower import subdivision
from poset_tower import tower as tower_module
from poset_tower.errors import (
    ElementNotFound,
    EqualPoints,
    IncoherentThread,
    InvalidComplex,
    InvalidInput,
    InvalidPoint,
    LevelOutOfRange,
    NotSeparated,
    StageTooCoarse,
)
from poset_tower.verify import (
    sample_points,
    sample_separated_pairs,
    verify_suite,
)

from conftest import (
    COMPLEXES,
    FIXTURE_DEPTHS,
    cached_tower,
    lifted_image,
    open_families_exhaustive,
    open_subset_is_open,
    rational_points,
    sd_reference,
    small_complexes,
)


def frac(a, b=1):
    return Fraction(a, b)


def all_threads(tower, N):
    """Every coherent thread of depth N: one per level-N element."""
    for x in tower.level(N).elements:
        yield tower.thread(tuple(tower.bond(x, N, n) for n in range(1, N + 1)))


def reference_chain(p: RationalPoint, steps: int) -> list:
    """p's coordinates over stages 0..steps, by ``sd_reference``."""
    chain = [dict(p.coords)]
    for _ in range(steps):
        chain.append(sd_reference(chain[-1]))
    return chain


def numerator_chain(p: RationalPoint, steps: int) -> list:
    """p's coordinates over stages 0..steps, by the numerator lift."""
    D, numerators = subdivision._numerators(p)
    chain = [numerators]
    for _ in range(steps):
        chain.append(subdivision._sd_step(chain[-1]))
    return [{v: frac(a, D) for v, a in lifted.items()} for lifted in chain]


def support_labels(chain) -> tuple:
    return tuple(stage_vertex_label(Simplex(coords)) for coords in chain)


class TestLevels:
    def test_edge_level_one(self, E):
        level = build_level(E, 1)
        assert set(level.elements) == {"a", "b", "b{a,b}"}
        assert level.poset.hasse_pairs() == [("a", "b{a,b}"), ("b", "b{a,b}")]

    def test_point_levels_are_singletons(self, PT):
        for n in (1, 2, 3):
            assert len(build_level(PT, n).poset) == 1

    def test_edge_level_two(self, E):
        level = build_level(E, 2)
        m = "b{a,b}"
        left = "b{a,b{a,b}}"
        right = "b{b,b{a,b}}"
        assert set(level.elements) == {"a", "b", m, left, right}
        assert level.poset.hasse_pairs() == sorted(
            [("a", left), (m, left), (m, right), ("b", right)])

    @pytest.mark.parametrize("name", sorted(COMPLEXES))
    def test_level_poset_is_face_poset_via_provenance(self, name):
        tower = cached_tower(name, FIXTURE_DEPTHS[name])
        for n in range(1, tower.depth + 1):
            level = tower.level(n)
            reference = face_poset(tower.stage(n - 1).complex)
            mapping = {x: level.carrier[x].label() for x in level.elements}
            assert check_order_isomorphism(level.poset, reference, mapping)

    @pytest.mark.parametrize("name", sorted(COMPLEXES))
    def test_level_carriers_are_stage_provenance(self, name):
        tower = cached_tower(name, 3)
        for n in range(1, tower.depth):
            assert tower.level(n).carrier is tower.stage(n).provenance

    @pytest.mark.parametrize("name", sorted(COMPLEXES))
    def test_lazy_top_stage_shares_top_level_carriers(self, name):
        tower = Tower.build(COMPLEXES[name](), 2)
        assert tower.stage(2).provenance is tower.level(2).carrier

    def test_each_stage_is_labelled_once(self, monkeypatch, TRI):
        calls = []
        label = subdivision.barycenters
        monkeypatch.setattr(subdivision, "barycenters",
                            lambda cx: calls.append(cx) or label(cx))
        tower = Tower.build(TRI, 6)
        assert len(calls) == 6
        tower.stage(6)
        assert len(calls) == 6

    def test_build_makes_no_simplex_comparisons(self, monkeypatch, TRI):
        calls = []
        lt = Simplex.__lt__
        monkeypatch.setattr(Simplex, "__lt__", lambda s, t: calls.append(1) or lt(s, t))
        Tower.build(TRI, 4)
        assert calls == []
        sorted(TRI.simplices)
        assert calls

    def test_label_collision(self):
        K = SimplicialComplex.from_maximal([["a", "b"], ["b{a,b}"]])
        for build in (Tower.build, build_level):
            with pytest.raises(InvalidComplex,
                               match=r"'b\{a,b\}' names both \{b\{a,b\}\} and \{a,b\}"):
                build(K, 1)


class TestLazyOrders:
    def test_codec_builds_no_order(self, monkeypatch, TRI):
        calls = []
        from_down_sets = FinitePoset.from_down_sets
        monkeypatch.setattr(FinitePoset, "from_down_sets", staticmethod(
            lambda elements, down: calls.append(1) or from_down_sets(elements, down)))
        tower = Tower.build(TRI, 6)
        for coords in ({"0": 1}, {"0": frac(1, 2), "2": frac(1, 2)},
                       {"0": frac(1, 7), "1": frac(2, 7), "2": frac(4, 7)}):
            thread = tower.encode_thread(RationalPoint(TRI, coords), 6)
            parsed = tower.thread(list(thread.entries))
            assert tower.validate_thread(parsed)
            tower.decode_thread(parsed)
        finer = "b{0,b{0,1}}"
        assert finer in tower.level(2) and "b{0,1}" in tower.level(1)
        assert finer not in tower.level(1) and 3 not in tower.level(1)
        with pytest.raises(ElementNotFound):
            tower.bond(finer, 1, 1)
        with pytest.raises(ElementNotFound):
            tower.thread([finer])
        assert calls == []
        for n in range(1, 5):
            level = tower.level(n)
            reference = face_poset(tower.stage(n - 1).complex)
            label = {s.label(): x for x, s in level.carrier.items()}
            assert level.poset is level.poset
            assert level.poset.elements == level.elements == tuple(
                sorted(label[y] for y in reference.elements))
            assert all(level.poset.min_open(label[y])
                       == frozenset(label[z] for z in reference.min_open(y))
                       for y in reference.elements)
        # four level orders, each built once, and four reference face posets
        assert len(calls) == 8


class TestNoCofaceIndex:
    def test_build_and_orders_make_no_coface_call(self, monkeypatch, TRI):
        calls = []
        cofaces = SimplicialComplex.cofaces
        monkeypatch.setattr(SimplicialComplex, "cofaces",
                            lambda self, s: calls.append(s) or cofaces(self, s))
        tower = Tower.build(TRI, 4)
        for level in tower.levels:
            assert level.poset.elements == level.elements
        assert calls == []
        open_star(tower.stage(3).complex, Simplex(["0"]))
        assert calls == [Simplex(["0"])]


class TestProjection:
    def test_interior_point_level_one(self, tower_E3, E):
        p = RationalPoint(E, {"a": frac(2, 3), "b": frac(1, 3)})
        assert tower_E3.project_point(p, 1) == "b{a,b}"

    def test_vertex_is_fixed_at_every_level(self, tower_E3, E):
        p = RationalPoint.vertex(E, "a")
        for n in (1, 2, 3):
            assert tower_E3.project_point(p, n) == "a"

    def test_interior_point_level_two(self, tower_E3, E):
        p = RationalPoint(E, {"a": frac(2, 3), "b": frac(1, 3)})
        assert tower_E3.project_point(p, 2) == "b{a,b{a,b}}"

    def test_projection_lands_in_open_carrier(self, tower_S13, S1):
        # the defining property of the projection, checked directly
        for p in sample_points(S1, 30, seed=11):
            for n in (1, 2, 3):
                x = tower_S13.project_point(p, n)
                carrier = tower_S13.level(n).carrier[x]
                coords = p
                for k in range(1, n):
                    coords = sd_coordinates(tower_S13.stage(k), coords)
                assert coords.support() == carrier


class TestBonds:
    def test_identity_bond(self, tower_E3):
        for n in (1, 2, 3):
            for x in tower_E3.level(n).elements:
                assert tower_E3.bond(x, n, n) == x

    def test_edge_bond_example(self, tower_E3):
        assert tower_E3.bond("b{a,b{a,b}}", 2, 1) == "b{a,b}"

    def test_vertex_chain_bond(self, tower_E3):
        assert tower_E3.bond("a", 3, 1) == "a"

    def test_out_of_range(self, tower_E3):
        with pytest.raises(LevelOutOfRange):
            tower_E3.bond("a", 4, 1)
        with pytest.raises(LevelOutOfRange):
            tower_E3.bond("a", 2, 0)

    @pytest.mark.parametrize("name", ["edge", "circle", "triangle"])
    def test_bond_matches_geometric_route(self, name):
        # independent oracle: project the barycenter of the carrier instead
        tower = cached_tower(name, FIXTURE_DEPTHS[name])
        for m in range(2, tower.depth + 1):
            level = tower.level(m)
            stage = tower.stage(m - 1)
            for x in level.elements:
                p = stage.embed_point(
                    RationalPoint.barycenter(stage.complex, level.carrier[x]))
                assert tower.bond(x, m, m - 1) == tower.project_point(p, m - 1)

    @pytest.mark.parametrize("name", sorted(COMPLEXES))
    def test_bond_composition(self, name):
        tower = cached_tower(name, FIXTURE_DEPTHS[name])
        for m in range(1, tower.depth + 1):
            for k in range(1, m + 1):
                for n in range(1, k + 1):
                    for x in tower.level(m).elements:
                        assert tower.bond(x, m, n) == tower.bond(
                            tower.bond(x, m, k), k, n)

    @pytest.mark.parametrize("name", sorted(COMPLEXES))
    def test_projection_commutes_with_bonds(self, name):
        tower = cached_tower(name, FIXTURE_DEPTHS[name])
        for p in sample_points(tower.base, 40, seed=5):
            proj = {n: tower.project_point(p, n)
                    for n in range(1, tower.depth + 1)}
            for m in range(1, tower.depth + 1):
                for n in range(1, m + 1):
                    assert tower.bond(proj[m], m, n) == proj[n]


class TestBasicPreimage:
    def test_open_edge_only(self, tower_E3):
        assert tower_E3.basic_preimage("b{a,b}", 1) == {Simplex(["a", "b"])}

    def test_vertex_preimage(self, tower_E3):
        assert tower_E3.basic_preimage("a", 1) == {
            Simplex(["a"]), Simplex(["a", "b"])}

    def test_point_complex(self):
        tower = cached_tower("point", 3)
        assert tower.basic_preimage("v", 1) == {Simplex(["v"])}

    @pytest.mark.parametrize("name", sorted(COMPLEXES))
    def test_preimage_equals_open_star_everywhere(self, name):
        tower = cached_tower(name, FIXTURE_DEPTHS[name])
        for n in range(1, tower.depth + 1):
            level = tower.level(n)
            prev = tower.stage(n - 1).complex
            for x in level.elements:
                assert tower.basic_preimage(x, n) == open_star(prev, level.carrier[x])

    @pytest.mark.parametrize("name", ["edge", "circle", "triangle"])
    def test_upset_cores_and_acyclicity(self, name):
        tower = cached_tower(name, FIXTURE_DEPTHS[name])
        for n in range(1, tower.depth + 1):
            level = tower.level(n)
            prev = tower.stage(n - 1).complex
            for x in level.elements:
                upset = level.poset.restrict(level.poset.up_set(x))
                assert len(core(upset)) == 1
                assert betti(order_complex(upset)).is_reduced_trivial()
                assert betti(star(prev, level.carrier[x])).is_reduced_trivial()


class TestThreads:
    def test_encode_interior_point(self, tower_E3, E):
        p = RationalPoint(E, {"a": frac(2, 3), "b": frac(1, 3)})
        t = tower_E3.encode_thread(p, 2)
        assert t.entries == ("b{a,b}", "b{a,b{a,b}}")

    def test_encode_vertex(self, tower_E3, E):
        t = tower_E3.encode_thread(RationalPoint.vertex(E, "a"), 3)
        assert t.entries == ("a", "a", "a")

    def test_encode_midpoint_hits_stage_vertex(self, tower_E3, E):
        p = RationalPoint(E, {"a": frac(1, 2), "b": frac(1, 2)})
        t = tower_E3.encode_thread(p, 2)
        assert t.entries == ("b{a,b}", "b{a,b}")

    def test_validate_good_thread(self, tower_E3):
        assert tower_E3.validate_thread(tower_E3.thread(["b{a,b}", "{a,b{a,b}}"]))

    def test_validate_bad_thread(self, tower_E3):
        assert not tower_E3.validate_thread(tower_E3.thread(["a", "b"]))

    def test_single_entry_always_coherent(self, tower_E3):
        for x in tower_E3.level(1).elements:
            assert tower_E3.validate_thread(tower_E3.thread([x]))

    def test_unknown_label(self, tower_E3):
        with pytest.raises(ElementNotFound):
            tower_E3.thread(["nope"])

    def test_carrier_notation_resolves(self, tower_E3):
        t = tower_E3.thread(["{a,b}", "{a,b{a,b}}"])
        assert t.entries == ("b{a,b}", "b{a,b{a,b}}")

    def test_decode_interior(self, tower_E3):
        region = tower_E3.decode_thread(tower_E3.thread(["b{a,b}", "{a,b{a,b}}"]))
        assert region.representative.coords == {"a": frac(3, 4), "b": frac(1, 4)}
        assert region.err_sq_bound == frac(1, 2)
        assert region.chain == (frozenset({"a", "b"}), frozenset({"a", "b{a,b}"}))

    def test_decode_stabilized_vertex(self, tower_E3):
        region = tower_E3.decode_thread(tower_E3.thread(["b{a,b}", "b{a,b}"]))
        assert region.representative.coords == {"a": frac(1, 2), "b": frac(1, 2)}
        assert region.err_sq_bound == frac(1, 2)

    def test_decode_depth_one(self, tower_E3):
        region = tower_E3.decode_thread(tower_E3.thread(["a"]))
        assert region.representative.coords == {"a": frac(1)}
        assert region.err_sq_bound == 2

    def test_decode_incoherent_raises(self, tower_E3):
        with pytest.raises(IncoherentThread):
            tower_E3.decode_thread(tower_E3.thread(["a", "b"]))

    def test_representative_lies_in_last_carrier(self, tower_S13):
        for t in all_threads(tower_S13, 3):
            region = tower_S13.decode_thread(t)
            lifted = region.representative
            for k in range(1, 3):
                lifted = sd_coordinates(tower_S13.stage(k), lifted)
            assert set(lifted.coords) <= set(region.chain[-1])

    @pytest.mark.parametrize("name,max_depth",
                             [("edge", 3), ("circle", 3), ("triangle", 2)])
    def test_decode_encode_round_trip_exhaustive(self, name, max_depth):
        tower = cached_tower(name, FIXTURE_DEPTHS[name])
        for N in range(1, max_depth + 1):
            for t in all_threads(tower, N):
                region = tower.decode_thread(t)
                assert tower.encode_thread(region.representative, N).entries == t.entries


class TestNumeratorLift:
    # 2^61 - 1 and 2^89 - 1 are prime, so this point's common denominator is
    # their product, about 1.4e45
    BIG = {"0": frac(1, 2**61 - 1), "1": frac(1, 2**89 - 1),
           "2": 1 - frac(1, 2**61 - 1) - frac(1, 2**89 - 1)}

    @pytest.mark.parametrize("coords", [
        {"0": frac(1, 3), "1": frac(1, 3), "2": frac(1, 3)},
        {"0": frac(1, 4), "1": frac(1, 4), "2": frac(1, 2)},
        {"0": frac(3, 8), "1": frac(1, 4), "2": frac(3, 8)},
        {"0": frac(2, 5), "2": frac(3, 5)},
        {"1": frac(1)},
        BIG,
    ], ids=["all-tied", "low-tie", "high-tie", "face", "vertex", "big-denominator"])
    def test_matches_fraction_reference(self, TRI, coords):
        p = RationalPoint(TRI, coords)
        chain = reference_chain(p, 6)
        assert numerator_chain(p, 6) == chain
        tower = cached_tower("triangle", 3)
        assert tower.encode_thread(p, 3).entries == support_labels(chain[:3])
        assert subdivision.lift_point(tower.stage(3), p).coords == chain[3]
        assert [q.coords for q in subdivision.lift_chain(tower.stage(3), p)] == chain[:4]

    def test_big_denominator_is_kept_exactly(self, TRI):
        p = RationalPoint(TRI, self.BIG)
        D, _ = subdivision._numerators(p)
        assert D == (2**61 - 1) * (2**89 - 1) > 10**30
        tower = cached_tower("triangle", 3)
        region = tower.decode_thread(tower.encode_thread(p, 3))
        assert tower.encode_thread(region.representative, 3) == tower.encode_thread(p, 3)

    def test_support_label_missing_from_level_raises(self, TRI, monkeypatch):
        tower = Tower.build(TRI, 2)
        p = RationalPoint(TRI, {"0": frac(1, 2), "1": frac(1, 3), "2": frac(1, 6)})
        x = tower.project_point(p, 2)
        monkeypatch.delitem(tower.level(2).carrier, x)
        with pytest.raises(ElementNotFound, match="at level 2"):
            tower.encode_thread(p, 2)
        with pytest.raises(ElementNotFound):
            tower.project_point(p, 2)
        assert tower.encode_thread(p, 1).entries == ("b{0,1,2}",)

    def test_numerators_that_stop_summing_to_d_raise(self, TRI, monkeypatch):
        tower = Tower.build(TRI, 2)
        p = RationalPoint(TRI, {"0": frac(1, 2), "1": frac(1, 3), "2": frac(1, 6)})
        step = subdivision._sd_step
        monkeypatch.setattr(tower_module, "_sd_step",
                            lambda numerators: {v: 2 * a for v, a in step(numerators).items()})
        with pytest.raises(InvalidPoint):
            tower.encode_thread(p, 2)

    def test_wrong_complex_rejected_by_lifts(self, tower_E3, S1):
        p = RationalPoint.vertex(S1, "0")
        with pytest.raises(ValueError):
            subdivision.lift_point(tower_E3.stage(2), p)
        with pytest.raises(ValueError):
            list(subdivision.lift_chain(tower_E3.stage(2), p))


class TestSeparation:
    def test_splits_at_level_two(self, tower_E3, E):
        p = RationalPoint(E, {"a": frac(2, 3), "b": frac(1, 3)})
        q = RationalPoint(E, {"a": frac(1, 3), "b": frac(2, 3)})
        assert tower_E3.separation_stage(p, q) == 2

    def test_distinct_vertices_split_immediately(self, tower_E3, E):
        assert tower_E3.separation_stage(
            RationalPoint.vertex(E, "a"), RationalPoint.vertex(E, "b")) == 1

    def test_equal_points(self, tower_E3, E):
        p = RationalPoint(E, {"a": frac(2, 3), "b": frac(1, 3)})
        with pytest.raises(EqualPoints):
            tower_E3.separation_stage(p, p)

    def test_not_separated_when_too_shallow(self, E):
        tower = Tower.build(E, 1)
        p = RationalPoint(E, {"a": frac(2, 3), "b": frac(1, 3)})
        q = RationalPoint(E, {"a": frac(3, 5), "b": frac(2, 5)})
        with pytest.raises(NotSeparated):
            tower.separation_stage(p, q)

    def test_deep_separation_of_close_points(self, E):
        tower = cached_tower("edge", 3).deepened(6)
        p = RationalPoint(E, {"a": frac(32, 63), "b": frac(31, 63)})
        q = RationalPoint(E, {"a": frac(31, 63), "b": frac(32, 63)})
        n = tower.separation_stage(p, q)
        d = dist_sq(p, q)
        first = next(s for s in range(7) if mesh_sq_bound(E, s) < d)
        assert n <= 1 + first

    @pytest.mark.parametrize("name", ["edge", "circle", "triangle"])
    def test_separation_soundness(self, name):
        # equal projections force the points within the mesh bound
        tower = cached_tower(name, FIXTURE_DEPTHS[name])
        pairs = sample_separated_pairs(tower.base, 25, seed=13)
        for p, q in pairs:
            for n in range(1, tower.depth + 1):
                if tower.project_point(p, n) == tower.project_point(q, n):
                    assert dist_sq(p, q) <= mesh_sq_bound(tower.base, n - 1)


class TestOpenImages:
    def test_open_star_of_vertex(self, tower_E3):
        out = tower_E3.image_of_open(
            [Simplex(["a"]), Simplex(["a", "b{a,b}"])], 1, 1)
        assert out == {"a", "b{a,b}"}
        assert out == tower_E3.level(1).poset.up_set("a")

    def test_all_open_simplices_cover_level(self, tower_E3, E):
        out = tower_E3.image_of_open(E.sorted_simplices(), 0, 1)
        assert out == frozenset(tower_E3.level(1).elements)

    def test_single_open_edge(self, tower_E3):
        out = tower_E3.image_of_open([Simplex(["a", "b{a,b}"])], 1, 1)
        assert out == {"b{a,b}"}

    def test_stage_too_coarse(self, tower_E3, E):
        with pytest.raises(StageTooCoarse):
            tower_E3.image_of_open(E.sorted_simplices(), 0, 2)

    def test_openness_characterization(self, E, S1):
        assert open_subset_is_open(E, {Simplex(["a"]), Simplex(["a", "b"])})
        assert not open_subset_is_open(E, {Simplex(["a"])})
        assert open_subset_is_open(S1, set(S1.k_simplices(1)))

    @pytest.mark.parametrize("name", sorted(COMPLEXES))
    def test_label_images_match_lifting(self, name):
        tower = cached_tower(name, FIXTURE_DEPTHS[name])
        for n in range(1, tower.depth + 1):
            for m in range(n - 1, tower.depth + 1):
                for s in tower.stage(m).complex.sorted_simplices():
                    assert tower.image_of_open([s], m, n) == {lifted_image(tower, s, m, n)}

    def test_openness_exhaustive_at_depth_three(self, TETRA_BD):
        report = verify_suite("openness", TETRA_BD, 3)
        assert report.passed
        assert [c.detail for c in report.checks] == [
            f"{k} open stars" for k in (14, 74, 74, 434, 434, 2594)]

    @pytest.mark.parametrize("name", ["edge", "circle"])
    def test_images_of_open_families_are_up_sets(self, name):
        tower = cached_tower(name, FIXTURE_DEPTHS[name])
        for n in (1, 2):
            for m in (n - 1, n):
                cx = tower.stage(m).complex
                families = open_families_exhaustive(cx, 5000)
                if families is None:
                    continue
                per_simplex = {s: tower.image_of_open([s], m, n)
                               for s in cx.simplices}
                level = tower.level(n)
                for fam in families:
                    image = set()
                    for s in fam:
                        image |= per_simplex[s]
                    assert level.poset.is_up_set(image)


class TestTowerPlumbing:
    def test_stage_accessor_is_lazy_but_bounded(self, E):
        tower = Tower.build(E, 2)
        assert tower.stage(2).stage == 2
        with pytest.raises(LevelOutOfRange):
            tower.stage(3)

    def test_deepened_shares_prefix(self, E):
        tower = Tower.build(E, 2)
        deeper = tower.deepened(4)
        assert deeper.depth == 4
        assert deeper.stage(1) is tower.stage(1)
        assert [l.n for l in deeper.levels] == [1, 2, 3, 4]

    def test_wrong_complex_rejected(self, tower_E3, S1):
        p = RationalPoint.vertex(S1, "0")
        with pytest.raises(ValueError):
            tower_E3.project_point(p, 1)

    def test_wrong_complex_rejected_by_encode_and_separation(self, tower_E3, E, S1):
        p = RationalPoint.vertex(S1, "0")
        with pytest.raises(ValueError):
            tower_E3.encode_thread(p, 1)
        with pytest.raises(ValueError):
            tower_E3.separation_stage(RationalPoint.vertex(E, "a"), p)

    @pytest.mark.parametrize("entry", [3, None, ["a"]])
    def test_thread_entry_must_be_a_label(self, tower_E3, entry):
        with pytest.raises(InvalidInput):
            tower_E3.thread(["a", entry])


# -- properties on random small complexes ---------------------------------------


@lru_cache(maxsize=None)
def tower_of(K, depth):
    return Tower.build(K, depth)


class TestThreadProperties:
    @given(st.data())
    @settings(max_examples=60)
    def test_encode_is_projection_and_explicit_lift(self, data):
        K = data.draw(small_complexes())
        N = data.draw(st.integers(1, 3))
        p = data.draw(rational_points(K))
        tower = tower_of(K, N)
        entries = tower.encode_thread(p, N).entries
        assert entries == tuple(tower.project_point(p, n) for n in range(1, N + 1))
        coords = p
        expected = [stage_vertex_label(coords.support())]
        for k in range(1, N):
            coords = sd_coordinates(tower.stage(k), coords)
            expected.append(stage_vertex_label(coords.support()))
        assert entries == tuple(expected)

    @given(st.data())
    @settings(max_examples=100)
    def test_numerator_lift_matches_fraction_reference(self, data):
        K = data.draw(small_complexes())
        N = data.draw(st.integers(1, 4))
        p = data.draw(rational_points(K))
        chain = reference_chain(p, N)
        assert numerator_chain(p, N) == chain
        tower = tower_of(K, N)
        assert tower.encode_thread(p, N).entries == support_labels(chain[:N])
        assert subdivision.lift_point(tower.stage(N - 1), p).coords == chain[N - 1]

    @given(st.data())
    @settings(max_examples=60)
    def test_decode_then_encode_returns_the_thread(self, data):
        K = data.draw(small_complexes())
        N = data.draw(st.integers(1, 3))
        tower = tower_of(K, N)
        t = tower.encode_thread(data.draw(rational_points(K)), N)
        region = tower.decode_thread(tower.thread(t.entries))
        assert tower.encode_thread(region.representative, N) == t

    @given(st.data())
    @settings(max_examples=100)
    def test_separation_is_first_differing_level(self, data):
        K = data.draw(small_complexes())
        N = data.draw(st.integers(1, 3))
        p = data.draw(rational_points(K))
        q = data.draw(st.one_of(rational_points(K, p.support()), rational_points(K)))
        tower = tower_of(K, N)
        if p == q:
            with pytest.raises(EqualPoints):
                tower.separation_stage(p, q)
            return
        pairs = zip(tower.encode_thread(p, N).entries, tower.encode_thread(q, N).entries)
        differ = [n for n, (x, y) in enumerate(pairs, start=1) if x != y]
        if differ:
            assert tower.separation_stage(p, q) == differ[0]
        else:
            with pytest.raises(NotSeparated):
                tower.separation_stage(p, q)

    @given(st.data())
    @settings(max_examples=60)
    def test_projections_commute_with_bonds(self, data):
        K = data.draw(small_complexes())
        N = data.draw(st.integers(1, 3))
        p = data.draw(rational_points(K))
        tower = tower_of(K, N)
        for m in range(1, N + 1):
            for n in range(1, m + 1):
                assert tower.bond(tower.project_point(p, m), m, n) == tower.project_point(p, n)

    @given(st.data())
    @settings(max_examples=60)
    def test_carrier_notation_resolves_to_canonical_labels(self, data):
        K = data.draw(small_complexes())
        N = data.draw(st.integers(1, 3))
        tower = tower_of(K, N)
        for n in range(1, N + 1):
            for x in tower.level(n).elements:
                canonical = tuple(tower.bond(x, n, k) for k in range(1, n + 1))
                members = [tower.level(k).carrier[y].verts
                           for k, y in enumerate(canonical, start=1)]
                as_sets = ["{" + ",".join(m) + "}" for m in members]
                reversed_barycenters = ["b{" + ",".join(reversed(m)) + "}" for m in members]
                assert tower.thread(as_sets).entries == canonical
                assert tower.thread(reversed_barycenters).entries == canonical

    @given(st.data())
    @settings(max_examples=60)
    def test_label_images_match_lifting(self, data):
        K = data.draw(small_complexes())
        N = data.draw(st.integers(1, 2))
        tower = tower_of(K, N)
        for n in range(1, N + 1):
            for m in range(n - 1, N + 1):
                for s in tower.stage(m).complex.sorted_simplices():
                    assert tower.image_of_open([s], m, n) == {lifted_image(tower, s, m, n)}

    @given(st.data())
    @settings(max_examples=60)
    def test_open_stars_agree_with_open_families(self, data):
        K = data.draw(small_complexes())
        N = data.draw(st.integers(1, 2))
        tower = tower_of(K, N)
        checks = iter(verify_suite("openness", K, N).checks)
        for n in range(1, N + 1):
            is_up_set = tower.level(n).poset.is_up_set
            for m in (n - 1, n):
                check = next(checks)
                cx = tower.stage(m).complex
                assert check.detail == f"{len(cx.simplices)} open stars"
                families = open_families_exhaustive(cx, 5000)
                if families is None:
                    continue
                image = {s: tower.image_of_open([s], m, n) for s in cx.simplices}
                ok = all(is_up_set(frozenset().union(*(image[s] for s in fam)))
                         for fam in families)
                assert check.passed == ok
