import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from poset_tower import (
    PLMap,
    RationalPoint,
    Simplex,
    SimplicialComplex,
    SimplicialMap,
    SystemMorphism,
    Tower,
    TowerLevel,
    approximate,
    carrier_homotopy_check,
    check_naturality,
    homotopy_sample_points,
    induce_level_map,
    iterated_sd_map,
    limit_map,
    mesh_sq_bound,
    sd_map,
    subdivide,
    validate_simplicial,
)
from poset_tower.errors import (
    ElementNotFound,
    IncoherentThread,
    InvalidInput,
    InvalidPLMap,
    LevelOutOfRange,
    NegativeStage,
    NotSimplicial,
    PosetTowerError,
    SearchExhausted,
    SimplexNotInComplex,
    WrongComplex,
)
from poset_tower import approx
from poset_tower.subdivision import _numerators, embed_point, lift_point, sd_coordinates
from poset_tower.verify import sample_points, verify_suite

from conftest import (
    COMPLEXES,
    FIXTURE_DEPTHS,
    cached_tower,
    pl_values_reference,
    run_python,
    sd_map_reference,
    small_complexes,
)


def vertex_pl(K, target, images):
    """PL map at stage 0 given as vertex -> point."""
    return PLMap(subdivide(K, 0), target, images)


def pl_from_vertex_map(K, target, vm):
    return vertex_pl(K, target,
                     {v: RationalPoint.vertex(target, vm[v]) for v in K.vertices})


class TestSimplicialMaps:
    def test_swap_is_simplicial(self, E):
        assert validate_simplicial(SimplicialMap(E, E, {"a": "b", "b": "a"}))

    def test_collapse_is_simplicial(self, E):
        assert validate_simplicial(SimplicialMap(E, E, {"a": "a", "b": "a"}))

    def test_map_into_deficient_target(self, S1):
        # same vertex assignment, once with the needed edge and once without
        target_ok = SimplicialComplex.from_maximal([["0", "1"], ["0"], ["1"], ["2"]])
        vm = {"0": "0", "1": "1", "2": "0"}
        assert validate_simplicial(SimplicialMap(S1, target_ok, vm))
        target_bad = SimplicialComplex.from_maximal([["0", "2"], ["1", "2"], ["0"], ["1"], ["2"]])
        assert not validate_simplicial(SimplicialMap(S1, target_bad, vm))

    @pytest.mark.parametrize("vertex_map,message", [
        ({"a": "a"}, "no image for vertex 'b'"),
        ({"a": "a", "b": "z"}, "image 'z' not in target"),
    ], ids=["missing-image", "image-outside-target"])
    def test_map_needs_every_image_in_the_target(self, E, vertex_map, message):
        with pytest.raises(ElementNotFound, match=f"^{re.escape(message)}$"):
            SimplicialMap(E, E, vertex_map)

    @pytest.mark.parametrize("arg", ["z", ["a"]], ids=["outsider", "unhashable"])
    @pytest.mark.parametrize("make", [
        SimplicialMap.identity,
        lambda E: SystemMorphism.build(SimplicialMap.identity(E), cached_tower("edge", 1),
                                       cached_tower("edge", 1)).level(1),
    ], ids=["simplicial-map", "level-map"])
    def test_call_outside_the_source(self, E, make, arg):
        """These ended in a bare KeyError or TypeError."""
        with pytest.raises(ElementNotFound, match=f"^{re.escape(repr(arg))}$"):
            make(E)(arg)

    def test_apply_point(self, E):
        swap = SimplicialMap(E, E, {"a": "b", "b": "a"})
        p = RationalPoint(E, {"a": Fraction(2, 3), "b": Fraction(1, 3)})
        assert swap.apply_point(p).coords == {
            "a": Fraction(1, 3), "b": Fraction(2, 3)}

    def test_collapse_merges_coordinates(self, E):
        collapse = SimplicialMap(E, E, {"a": "a", "b": "a"})
        p = RationalPoint(E, {"a": Fraction(2, 3), "b": Fraction(1, 3)})
        assert collapse.apply_point(p).coords == {"a": Fraction(1)}

    @pytest.mark.parametrize("source,point", [
        ("edge", ("triangle", "0")),
        ("two-points", ("edge", "a")),
    ], ids=["triangle-vertex", "edge-vertex-over-two-points"])
    def test_apply_point_refuses_a_point_outside_the_source(self, E, TRI, source, point):
        """A triangle vertex was a KeyError; an edge vertex came back as a point of the two points."""
        complexes = {"edge": E, "triangle": TRI,
                     "two-points": SimplicialComplex.from_maximal([["a"], ["b"]])}
        p = RationalPoint.vertex(complexes[point[0]], point[1])
        with pytest.raises(ValueError, match="^point must be over the map's source$"):
            SimplicialMap.identity(complexes[source]).apply_point(p)

    @pytest.mark.parametrize("source,simplex,message", [
        ("edge", Simplex(["0"]), "{0}"),
        ("two-points", Simplex(["a", "b"]), "{a,b}"),
        ("edge", "a", "'a'"),
        ("edge", ["a"], "['a']"),
    ], ids=["triangle-vertex", "edge-over-two-points", "str", "list"])
    def test_apply_simplex_refuses_a_simplex_outside_the_source(self, E, source, simplex, message):
        K = {"edge": E, "two-points": SimplicialComplex.from_maximal([["a"], ["b"]])}[source]
        with pytest.raises(SimplexNotInComplex, match=f"^{re.escape(message)}$"):
            SimplicialMap.identity(K).apply_simplex(simplex)


class TestPLMaps:
    def test_images_must_share_carriers(self, S1):
        mid = lambda u, v: RationalPoint(
            S1, {u: Fraction(1, 2), v: Fraction(1, 2)})
        with pytest.raises(InvalidPLMap):
            vertex_pl(S1, S1, {"0": mid("0", "1"), "1": mid("1", "2"),
                               "2": mid("0", "2")})

    def test_evaluate_is_affine(self, E):
        h = pl_from_vertex_map(E, E, {"a": "b", "b": "a"})
        p = RationalPoint(E, {"a": Fraction(3, 4), "b": Fraction(1, 4)})
        assert h.evaluate_base(p).coords == {
            "a": Fraction(1, 4), "b": Fraction(3, 4)}

    def test_json_round_trip(self, E, PT):
        h = pl_from_vertex_map(E, PT, {"a": "v", "b": "v"})
        again = PLMap.from_json_obj(h.to_json_obj())
        assert again.stage == 0
        assert again.images == h.images

    @pytest.mark.parametrize("stage", [1.5, True, "1"])
    def test_stage_must_be_a_json_integer(self, E, stage):
        obj = pl_from_vertex_map(E, E, {"a": "a", "b": "b"}).to_json_obj()
        obj["stage"] = stage
        with pytest.raises(InvalidInput, match=f"not {stage!r}$"):
            PLMap.from_json_obj(obj)

    def test_missing_base_image_is_refused_before_subdividing(self, monkeypatch, TRI):
        calls = []
        subdivide = approx.subdivide
        monkeypatch.setattr(approx, "subdivide",
                            lambda K, n: calls.append(n) or subdivide(K, n))
        obj = {"source": TRI.to_json_obj(), "target": TRI.to_json_obj(),
               "stage": 6, "images": {}}
        with pytest.raises(ElementNotFound, match=r"^no image for vertex '0'$"):
            PLMap.from_json_obj(obj)
        assert calls == []


def _edge_identity_pl_map(E):
    return PLMap(subdivide(E, 0), E, {v: RationalPoint.vertex(E, v) for v in E.vertices})


class TestValueErrorsAreTyped:
    """Each deliberate ``ValueError`` is also a ``PosetTowerError``, with its message kept."""

    @pytest.mark.parametrize("call,error,message", [
        (lambda E, p: SimplicialMap.identity(E).apply_point(p), WrongComplex,
         "point must be over the map's source"),
        (lambda E, p: SimplicialMap.identity(E).compose(SimplicialMap.identity(p.complex)),
         WrongComplex, "composition mismatch"),
        (lambda E, p: sd_map(SimplicialMap.identity(E), subdivide(p.complex, 1)), WrongComplex,
         "stages do not match the map's endpoints"),
        (lambda E, p: _edge_identity_pl_map(E).evaluate(p), WrongComplex,
         "point must be over the map's defining stage"),
        (lambda E, p: carrier_homotopy_check(_edge_identity_pl_map(E), SimplicialMap.identity(E),
                                             [], subdivide(p.complex, 1)),
         WrongComplex, "stage does not match the simplicial map's source"),
        (lambda E, p: iterated_sd_map(SimplicialMap.identity(E), 1, cached_tower("circle", 1),
                                      cached_tower("circle", 1)),
         WrongComplex, "towers do not match the map's endpoints"),
        (lambda E, p: limit_map(SystemMorphism.build(SimplicialMap.identity(E),
                                                     cached_tower("edge", 1),
                                                     cached_tower("edge", 1)),
                                Tower.build(E, 1).thread(["a"])),
         WrongComplex, "thread does not belong to the morphism's source tower"),
        (lambda E, p: subdivide(E, 1).embed_point(p), WrongComplex,
         "point is not expressed over this stage"),
        (lambda E, p: sd_coordinates(subdivide(E, 1), p), WrongComplex,
         "point must be expressed over the previous stage"),
        (lambda E, p: lift_point(subdivide(E, 1), p), WrongComplex,
         "point is not over the chain's base complex"),
        (lambda E, p: cached_tower("edge", 1).encode_thread(p, 1), WrongComplex,
         "point is not over the tower's base complex"),
        (lambda E, p: subdivide(E, -1), NegativeStage, "subdivision stage must be >= 0"),
        (lambda E, p: mesh_sq_bound(E, -1), NegativeStage, "stage must be >= 0"),
    ], ids=["apply-point", "compose", "sd-map", "evaluate", "carrier-homotopy",
            "iterated-sd-map", "limit-map", "embed-point", "sd-coordinates", "lift-point",
            "encode-thread", "subdivide-negative", "mesh-negative"])
    def test_is_a_poset_tower_error(self, E, S1, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
            call(E, RationalPoint.vertex(S1, "0"))
        assert isinstance(exc.value, PosetTowerError) and isinstance(exc.value, ValueError)


class TestDeterministicErrors:
    """The simplex an error names does not depend on the string hash seed."""

    SCRIPT = """
from poset_tower import PLMap, RationalPoint, SimplicialComplex, SimplicialMap
from poset_tower import require_simplicial, subdivide
from poset_tower.errors import PosetTowerError
K = SimplicialComplex.from_maximal([["a", "b", "c", "d"]])
T = SimplicialComplex.from_maximal([["w"], ["x"], ["y"], ["z"]])
g = SimplicialMap(K, T, {"a": "w", "b": "x", "c": "y", "d": "z"})
images = {v: RationalPoint.vertex(T, g(v)) for v in K.vertices}
for attempt in (lambda: require_simplicial(g), lambda: PLMap(subdivide(K, 0), T, images)):
    try:
        attempt()
    except PosetTowerError as exc:
        print(exc)
"""

    def test_same_message_under_every_hash_seed(self):
        outputs = set()
        for seed in ("1", "2", "3"):
            result = run_python("-c", self.SCRIPT, PYTHONHASHSEED=seed)
            assert result.returncode == 0, result.stderr
            outputs.add(result.stdout)
        assert outputs == {
            "simplex {a,b} maps to {w,x}, not a simplex of the target\n"
            "vertex images of {a,b} span {w,x}, which is not a simplex of the target\n"}


class TestApproximate:
    def test_constant_succeeds_at_own_stage(self, E, PT):
        h = pl_from_vertex_map(E, PT, {"a": "v", "b": "v"})
        n, f = approximate(h)
        assert n == 0
        assert set(f.vertex_map.values()) == {"v"}

    def test_contraction_succeeds_at_stage_zero(self, E):
        h = vertex_pl(E, E, {
            "a": RationalPoint.vertex(E, "a"),
            "b": RationalPoint(E, {"a": Fraction(1, 2), "b": Fraction(1, 2)}),
        })
        n, f = approximate(h)
        assert n == 0
        assert f.vertex_map == {"a": "a", "b": "a"}

    def test_identity_on_edge_needs_two_subdivisions(self, E):
        h = pl_from_vertex_map(E, E, {"a": "a", "b": "b"})
        n, f = approximate(h)
        assert n == 2
        assert f.vertex_map == {
            "a": "a", "b": "b",
            "b{a,b}": "a", "b{a,b{a,b}}": "a", "b{b,b{a,b}}": "b",
        }
        with pytest.raises(SearchExhausted):
            approximate(h, cap=1)

    @pytest.mark.parametrize("cap", [1.5, "2", True, None])
    def test_cap_must_be_an_integer(self, E, cap):
        h = pl_from_vertex_map(E, E, {"a": "a", "b": "b"})
        with pytest.raises(InvalidInput, match=f"^cap must be an integer, not {re.escape(repr(cap))}$"):
            approximate(h, cap)

    def test_interior_images_at_stage_one(self, E):
        # vertex images off the vertices force one extra subdivision
        st1 = subdivide(E, 1)
        h = PLMap(st1, E, {
            "a": RationalPoint.vertex(E, "a"),
            "b{a,b}": RationalPoint(E, {"a": Fraction(1, 4), "b": Fraction(3, 4)}),
            "b": RationalPoint.vertex(E, "b"),
        })
        n, f = approximate(h)
        assert n == 2
        assert validate_simplicial(f)
        stage = subdivide(E, n)
        assert carrier_homotopy_check(h, f, homotopy_sample_points(stage.complex), stage)

    def test_rotation_pl_on_circle(self, S1):
        h = pl_from_vertex_map(S1, S1, {"0": "1", "1": "2", "2": "0"})
        n, f = approximate(h)
        assert n == 2
        assert validate_simplicial(f)
        with pytest.raises(SearchExhausted):
            approximate(h, cap=1)

    def test_output_satisfies_star_condition(self, S1):
        # directly re-check the defining condition of the returned assignment
        h = pl_from_vertex_map(S1, S1, {"0": "1", "1": "2", "2": "0"})
        n, f = approximate(h)
        stage = subdivide(S1, n)
        from poset_tower.approx import _star_vertices
        values = pl_values_reference(h, stage)
        stars = _star_vertices(stage.complex)
        for v, w in f.vertex_map.items():
            assert all(values[u].get(w, 0) > 0 for u in stars[v])


class TestCarrierHomotopy:
    def test_rotation_against_itself(self, S1):
        rot = SimplicialMap(S1, S1, {"0": "1", "1": "2", "2": "0"})
        h = pl_from_vertex_map(S1, S1, rot.vertex_map)
        st0 = subdivide(S1, 0)
        assert carrier_homotopy_check(h, rot, homotopy_sample_points(S1), st0)

    def test_identity_against_constant_fails_at_midpoint(self, S1):
        h = pl_from_vertex_map(S1, S1, {v: v for v in S1.vertices})
        const = SimplicialMap.constant(S1, S1, "1")
        st0 = subdivide(S1, 0)
        mid02 = RationalPoint(S1, {"0": Fraction(1, 2), "2": Fraction(1, 2)})
        assert not carrier_homotopy_check(h, const, [mid02], st0)
        verts = [RationalPoint.vertex(S1, v) for v in S1.vertices]
        assert carrier_homotopy_check(h, const, verts[1:2], st0)


class TestLevelMaps:
    def test_swap_level_one(self, E):
        tower = cached_tower("edge", 3)
        swap = SimplicialMap(E, E, {"a": "b", "b": "a"})
        g1 = induce_level_map(swap, 1, tower, tower)
        assert g1.assignment == {"a": "b", "b": "a", "b{a,b}": "b{a,b}"}

    def test_constant_level_map(self, E, PT):
        tower_e = cached_tower("edge", 3)
        tower_pt = cached_tower("point", 3)
        g = SimplicialMap.constant(E, PT, "v")
        g2 = induce_level_map(g, 2, tower_e, tower_pt)
        assert set(g2.assignment.values()) == {"v"}

    def test_collapse_of_subdivided_edge(self, E):
        E1 = subdivide(E, 1).complex
        g = SimplicialMap(E1, E, {"a": "a", "b{a,b}": "a", "b": "b"})
        src = Tower.build(E1, 1)
        dst = cached_tower("edge", 3)
        g1 = induce_level_map(g, 1, src, dst)
        assert g1.assignment == {
            "a": "a", "b{a,b}": "a", "b": "b",
            "b{a,b{a,b}}": "a", "b{b,b{a,b}}": "b{a,b}",
        }

    def test_level_maps_are_order_preserving(self, E, S1):
        tower_e = cached_tower("edge", 3)
        tower_s = cached_tower("circle", 3)
        cases = [
            (SimplicialMap.identity(E), tower_e, tower_e),
            (SimplicialMap(E, E, {"a": "b", "b": "a"}), tower_e, tower_e),
            (SimplicialMap(S1, S1, {"0": "1", "1": "2", "2": "0"}), tower_s, tower_s),
            (SimplicialMap.constant(S1, S1, "0"), tower_s, tower_s),
        ]
        for g, src, dst in cases:
            for n in (1, 2, 3):
                assert induce_level_map(g, n, src, dst).is_order_preserving()

    def test_not_simplicial_rejected(self, S1):
        target = SimplicialComplex.from_maximal([["0", "2"], ["1", "2"], ["0", "1"]])
        bad_target = SimplicialComplex.from_maximal(
            [["0", "2"], ["1", "2"], ["0"], ["1"]])
        g = SimplicialMap(S1, bad_target, {"0": "0", "1": "1", "2": "2"})
        with pytest.raises(NotSimplicial):
            induce_level_map(g, 1, cached_tower("circle", 3), Tower.build(bad_target, 1))


@st.composite
def simplicial_self_maps(draw, K):
    """A simplicial map K -> K: a drawn vertex map if it is simplicial, else one into a drawn simplex."""
    g = SimplicialMap(K, K, {v: draw(st.sampled_from(K.vertices)) for v in K.vertices})
    if validate_simplicial(g):
        return g
    s = draw(st.sampled_from(sorted(K.simplices)))
    return SimplicialMap(K, K, {v: draw(st.sampled_from(s.verts)) for v in K.vertices})


class TestLevelMapWalk:
    @settings(max_examples=30)
    @given(data=st.data())
    def test_level_map_is_iterated_sd_map(self, data):
        K = data.draw(small_complexes())
        g = data.draw(simplicial_self_maps(K))
        n = data.draw(st.integers(1, 3))
        tower = Tower.build(K, n)
        walked = iterated_sd_map(g, n, tower, tower).vertex_map
        assert walked == induce_level_map(g, n, tower, tower).assignment
        assert walked == sd_map_reference(g.vertex_map, tower.stage(n))

    @pytest.mark.parametrize("n, source_depth, target_depth", [
        (0, 3, 3), (-1, 3, 3), (4, 3, 3), (3, 2, 3), (3, 3, 2),
    ])
    def test_level_out_of_range(self, S1, n, source_depth, target_depth):
        g = SimplicialMap(S1, S1, {"0": "1", "1": "2", "2": "0"})
        with pytest.raises(LevelOutOfRange):
            induce_level_map(g, n, Tower.build(S1, source_depth), Tower.build(S1, target_depth))

    def test_error_order(self, S1):
        circle = cached_tower("circle", 3)
        rot = SimplicialMap(S1, S1, {"0": "1", "1": "2", "2": "0"})
        with pytest.raises(ValueError):
            induce_level_map(rot, 1, circle, cached_tower("edge", 3))
        with pytest.raises(ValueError):
            induce_level_map(rot, 4, circle, cached_tower("edge", 3))
        bad_target = SimplicialComplex.from_maximal([["0", "2"], ["1", "2"], ["0"], ["1"]])
        bad = SimplicialMap(S1, bad_target, {"0": "0", "1": "1", "2": "2"})
        with pytest.raises(NotSimplicial):
            induce_level_map(bad, 4, circle, cached_tower("edge", 3))

    @pytest.mark.parametrize("name", ["edge", "circle", "triangle"])
    def test_iterated_sd_map_without_towers(self, name):
        tower = cached_tower(name, 3)
        K = tower.base
        g = SimplicialMap.constant(K, K, K.vertices[-1])
        for n in range(4):
            assert iterated_sd_map(g, n) == iterated_sd_map(g, n, tower, tower)

    def test_iterated_sd_map_checks_only_g(self, monkeypatch):
        tower = cached_tower("triangle", 3)
        checked = []
        real = approx.require_simplicial
        monkeypatch.setattr(approx, "require_simplicial",
                            lambda g: (checked.append(g), real(g))[1])
        g = SimplicialMap.identity(tower.base)
        iterated_sd_map(g, 3, tower, tower)
        assert checked == [g]

    @pytest.mark.parametrize("other", ["edge-and-point", "triangle"])
    @pytest.mark.parametrize("end", ["source", "target"])
    def test_iterated_sd_map_refuses_towers_over_other_complexes(self, E, end, other):
        """Over the edge plus a point the map was returned into the wrong stage; over the triangle, a KeyError."""
        K = {"edge-and-point": SimplicialComplex.from_maximal([["a", "b"], ["c"]]),
             "triangle": cached_tower("triangle", 2).base}[other]
        towers = {"source": Tower.build(E, 2), "target": Tower.build(E, 2)}
        towers[end] = Tower.build(K, 2)
        with pytest.raises(ValueError, match="^towers do not match the map's endpoints$"):
            iterated_sd_map(SimplicialMap.identity(E), 2, towers["source"], towers["target"])

    @pytest.mark.parametrize("n", ["2", 0.5, None])
    @pytest.mark.parametrize("towers", [0, 2], ids=["alone", "with-towers"])
    def test_iterated_sd_map_takes_an_integer_stage(self, n, towers):
        tower = cached_tower("edge", 3)
        g = SimplicialMap.identity(tower.base)
        with pytest.raises(InvalidInput,
                           match=f"^subdivision stage must be an integer, not {re.escape(repr(n))}$"):
            iterated_sd_map(g, n, *[tower] * towers)


class TestNaturality:
    def test_constant_map(self, S1, PT):
        tower_s = cached_tower("circle", 3)
        tower_pt = cached_tower("point", 3)
        g = SimplicialMap.constant(S1, PT, "v")
        samples = sample_points(S1, 30, seed=2)
        for n in (1, 2, 3):
            assert check_naturality(g, n, samples, tower_s, tower_pt)

    def test_swap_on_edge(self, E):
        tower = cached_tower("edge", 3)
        swap = SimplicialMap(E, E, {"a": "b", "b": "a"})
        p = RationalPoint(E, {"a": Fraction(2, 3), "b": Fraction(1, 3)})
        assert tower.project_point(swap.apply_point(p), 1) == "b{a,b}"
        for n in (1, 2, 3):
            assert check_naturality(swap, n, sample_points(E, 30, seed=4), tower, tower)

    def test_bond_square_exhaustive(self, E):
        tower = cached_tower("edge", 3)
        swap = SimplicialMap(E, E, {"a": "b", "b": "a"})
        g2 = induce_level_map(swap, 2, tower, tower)
        g1 = induce_level_map(swap, 1, tower, tower)
        for x in tower.level(2).elements:
            assert tower.bond(g2(x), 2, 1) == g1(tower.bond(x, 2, 1))


class TestOneWalkOneCheck:
    """A morphism walks the carrier tables once, and every naturality test shares one check."""

    def test_build_checks_g_once_and_reads_each_carrier_table_once(self, monkeypatch, TRI):
        tower = Tower.build(TRI, 3)
        checked, reads = [], []
        real = approx.require_simplicial
        monkeypatch.setattr(approx, "require_simplicial",
                            lambda g: (checked.append(g), real(g))[1])
        monkeypatch.setattr(TowerLevel, "carrier", property(
            lambda level: (reads.append(level.n), level._stage._barycenters)[1]))
        g = SimplicialMap.identity(TRI)
        assert SystemMorphism.build(g, tower, tower).depth == 3
        assert checked == [g]
        assert sorted(reads) == [1, 2, 3]

    def test_check_naturality_checks_the_lower_levels(self, monkeypatch, E):
        """A wrong level-1 projection in the target tower fails ``check_naturality`` at level 2."""
        source, target = Tower.build(E, 2), Tower.build(E, 2)
        g = SimplicialMap.identity(E)
        samples = sample_points(E, 10, seed=1)
        assert check_naturality(g, 2, samples, source, target)
        real = Tower._projections

        def projections(tower, p, N):
            for n, label in enumerate(real(tower, p, N), start=1):
                if tower is target and n == 1:
                    label = "b" if label == "a" else "a"
                yield label

        monkeypatch.setattr(Tower, "_projections", projections)
        assert not check_naturality(g, 2, samples, source, target)

    @pytest.mark.parametrize("name", sorted(COMPLEXES))
    def test_check_naturality_validate_and_the_suite_agree(self, name):
        K = COMPLEXES[name]()
        depth = FIXTURE_DEPTHS[name]
        tower = Tower.build(K, depth)
        points = sample_points(K, 100, seed=3)
        suite = {c.name: c.passed for c in verify_suite("naturality", K, depth, seed=3).checks}
        a, b = K.vertices[0], K.vertices[-1]
        swap = {v: {a: b, b: a}.get(v, v) for v in K.vertices}
        maps = [("identity", SimplicialMap.identity(K)),
                ("constant", SimplicialMap.constant(K, K, K.vertices[0])),
                ("swap", SimplicialMap(K, K, swap))]
        for label, g in maps:
            m = SystemMorphism.build(g, tower, tower)
            natural = check_naturality(g, depth, points, tower, tower)
            ordered = all(level_map.is_order_preserving() for level_map in m.levels)
            assert natural
            assert m._commutes(points) == natural
            assert m.validate() == (ordered and check_naturality(g, depth, [], tower, tower))
            if label != "swap":
                assert suite[f"{label}-naturality"] == natural
                assert suite[f"{label}-level-maps-order-preserving"] == ordered


class TestSystemMorphisms:
    def test_build_and_validate(self, E):
        tower = cached_tower("edge", 3)
        swap = SimplicialMap(E, E, {"a": "b", "b": "a"})
        m = SystemMorphism.build(swap, tower, tower)
        assert m.depth == 3
        assert m.validate()

    def test_limit_of_swap(self, E):
        tower = cached_tower("edge", 3)
        swap = SimplicialMap(E, E, {"a": "b", "b": "a"})
        m = SystemMorphism.build(swap, tower, tower)
        t = tower.thread(["b{a,b}", "{a,b{a,b}}"])
        out = limit_map(m, t)
        assert out.entries == ("b{a,b}", "b{b,b{a,b}}")
        assert tower.validate_thread(out)

    def test_limit_of_identity(self, E):
        tower = cached_tower("edge", 3)
        m = SystemMorphism.build(SimplicialMap.identity(E), tower, tower)
        t = tower.encode_thread(
            RationalPoint(E, {"a": Fraction(2, 3), "b": Fraction(1, 3)}), 3)
        assert limit_map(m, t).entries == t.entries

    def test_thread_deeper_than_the_morphism_rejected(self, E):
        source = cached_tower("edge", 3)
        m = SystemMorphism.build(SimplicialMap.identity(E), source, Tower.build(E, 1))
        assert m.depth == 1
        with pytest.raises(IncoherentThread, match="^thread deeper than the morphism's levels$"):
            limit_map(m, source.thread(["a", "a"]))

    def test_incoherent_input_rejected(self, E):
        tower = cached_tower("edge", 3)
        m = SystemMorphism.build(SimplicialMap.identity(E), tower, tower)
        with pytest.raises(IncoherentThread):
            limit_map(m, tower.thread(["a", "b"]))

    def test_incoherent_input_names_the_first_failing_level(self, E):
        tower = cached_tower("edge", 3)
        m = SystemMorphism.build(SimplicialMap.identity(E), tower, tower)
        with pytest.raises(IncoherentThread,
                           match=r"^level 3 entry 'b' bonds to 'b', not 'b\{a,b\{a,b\}\}'$"):
            limit_map(m, tower.thread(["b{a,b}", "{a,b{a,b}}", "b"]))

    def test_coherence_preserved_on_all_threads(self, S1):
        tower = cached_tower("circle", 3)
        rot = SimplicialMap(S1, S1, {"0": "1", "1": "2", "2": "0"})
        m = SystemMorphism.build(rot, tower, tower)
        for x in tower.level(3).elements:
            t = tower.thread(tuple(tower.bond(x, 3, n) for n in (1, 2, 3)))
            assert tower.validate_thread(limit_map(m, t))


class TestNoAliasing:
    """Point operations read the stored numerators and never write into them."""

    @staticmethod
    def snapshot(p):
        D, numerators = _numerators(p)
        return D, dict(numerators), dict(p.coords)

    def test_inputs_are_left_unchanged(self, TRI):
        tower = cached_tower("triangle", 3)
        stage1 = tower.stage(1)
        h = PLMap(stage1, TRI, {v: stage1.embed_vertex(v) for v in stage1.complex.vertices})
        g = SimplicialMap.constant(TRI, TRI, "0")
        base_points = sample_points(TRI, 12, seed=5)
        calls = []
        for p, q in zip(base_points, base_points[1:]):
            calls.append(((p,), lambda p: lift_point(tower.stage(2), p)))
            calls.append(((p,), lambda p: g.apply_point(p)))
            calls.append(((p,), lambda p: tower.encode_thread(p, 3)))
            calls.append(((p,), lambda p: h.evaluate_base(p)))
            if p != q:
                calls.append(((p, q), tower.separation_stage))
            lifted = lift_point(stage1, p)
            calls.append(((lifted,), stage1.embed_point))
            calls.append(((lifted,), lambda x: embed_point(stage1, x)))
            calls.append(((lifted,), lambda x: sd_coordinates(tower.stage(2), x)))
            calls.append(((lifted,), h.evaluate))
        for args, call in calls:
            before = [self.snapshot(x) for x in args]
            call(*args)
            assert [self.snapshot(x) for x in args] == before

    def test_coords_cannot_be_assigned(self, TRI):
        for p in sample_points(TRI, 5, seed=1):
            with pytest.raises(TypeError):
                p.coords["0"] = Fraction(1)
            with pytest.raises(TypeError):
                del p.coords[next(iter(p.coords))]
