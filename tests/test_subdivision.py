from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from poset_tower import (
    PLMap,
    RationalPoint,
    SimplicialComplex,
    SimplicialMap,
    dist_sq,
    face_poset,
    iterated_sd_map,
    lift_point,
    mesh_sq_bound,
    sd_coordinates,
    sd_map,
    stage_vertex_label,
    subdivide,
)
from poset_tower.approx import _stage_values
from poset_tower.errors import ElementNotFound, InvalidComplex, InvalidInput, ResourceLimit
from poset_tower.fixtures import circle, edge, point, projective_plane, triangle
from poset_tower.tower import Tower
from poset_tower.verify import sample_points

from conftest import (
    COMPLEXES,
    FIXTURE_DEPTHS,
    LabelTower,
    O,
    affine_reference,
    pl_values_reference,
    rational_points,
    small_complexes,
)


def brute_force_chain_count(X, k):
    """Number of k-element chains, by checking every k-subset for total order."""
    count = 0
    for combo in combinations(X.elements, k):
        if all(X.leq(a, b) or X.leq(b, a) for a, b in combinations(combo, 2)):
            count += 1
    return count


class TestSubdivide:
    def test_point_is_fixed(self):
        st = subdivide(point(), 5)
        assert st.complex.vertices == ("v",)
        assert st.complex.counts() == (1,)

    def test_edge_stage_one(self):
        st = subdivide(edge(), 1)
        assert st.complex.counts() == (3, 2)
        assert st.complex.vertices == ("a", "b", "b{a,b}")

    def test_triangle_stage_one(self):
        st = subdivide(triangle(), 1)
        assert st.complex.counts() == (7, 12, 6)

    @pytest.mark.parametrize("name", sorted(COMPLEXES))
    def test_simplex_counts_match_chain_counts(self, name):
        K = COMPLEXES[name]()
        st = subdivide(K, 1)
        X = face_poset(K)
        for k in range(K.dim + 1):
            assert len(st.complex.k_simplices(k)) == brute_force_chain_count(X, k + 1)

    def test_provenance_is_total(self):
        st = subdivide(circle(), 2)
        assert set(st.provenance) == set(st.complex.vertices)
        for lab, s in st.provenance.items():
            assert s in st.previous.complex.simplices
            assert stage_vertex_label(s) == lab

    def test_resource_cap(self, monkeypatch):
        monkeypatch.setenv("POSET_TOWER_MAX_SIMPLICES", "10")
        with pytest.raises(ResourceLimit):
            subdivide(triangle(), 2)

    def test_zero_cap_is_a_cap(self, monkeypatch):
        monkeypatch.setenv("POSET_TOWER_MAX_SIMPLICES", "0")
        with pytest.raises(ResourceLimit):
            subdivide(point(), 1)

    @pytest.mark.parametrize("value", ["x", "-1", "1.5"])
    def test_bad_cap_value(self, monkeypatch, value):
        monkeypatch.setenv("POSET_TOWER_MAX_SIMPLICES", value)
        with pytest.raises(InvalidInput, match=repr(value)):
            subdivide(edge(), 1)

    def test_stage_label_collision(self):
        K = SimplicialComplex.from_maximal([["a", "b"], ["b{a,b}"]])
        with pytest.raises(InvalidComplex, match=r"'b\{a,b\}'"):
            subdivide(K, 1)

    @pytest.mark.parametrize("make", [triangle, circle])
    def test_subdividing_a_stage_complex(self, make):
        # the labels of stage 1 hold braces, so its subdivision labels each
        # stage in full (the ``_eager`` path)
        K = make()
        assert subdivide(subdivide(K, 1).complex, 2).complex == subdivide(K, 3).complex


class TestSizeOracle:
    """Stage sizes against the f-vector formula, which walks no chain."""

    def test_formula_values(self):
        assert [O.f_vector_at([3, 3, 1], n) for n in (1, 2, 3)] == [
            [7, 12, 6], [25, 60, 36], [121, 336, 216]]
        assert subdivide(projective_plane(), 3).complex.counts() == (1081, 3240, 2160)

    def test_solid_tetrahedron_counts(self):
        K = SimplicialComplex.from_maximal([["0", "1", "2", "3"]])
        for stage in subdivide(K, 2).stage_chain():
            assert stage.complex.counts() == tuple(O.f_vector_at(K.counts(), stage.stage))

    @pytest.mark.parametrize("name", sorted(COMPLEXES))
    def test_fixture_counts(self, name):
        K = COMPLEXES[name]()
        for stage in subdivide(K, 3).stage_chain():
            assert stage.complex.counts() == tuple(O.f_vector_at(K.counts(), stage.stage))

    @given(small_complexes())
    @settings(max_examples=40)
    def test_random_complex_counts(self, K):
        for stage in subdivide(K, 3).stage_chain():
            assert stage.complex.counts() == tuple(O.f_vector_at(K.counts(), stage.stage))


class TestCoordinates:
    def test_interior_point(self):
        st = subdivide(edge(), 1)
        p = RationalPoint(st.base, {"a": Fraction(2, 3), "b": Fraction(1, 3)})
        out = sd_coordinates(st, p)
        assert out.coords == {"a": Fraction(1, 3), "b{a,b}": Fraction(2, 3)}

    def test_tie_collapses_to_barycenter(self):
        st = subdivide(edge(), 1)
        p = RationalPoint(st.base, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
        assert sd_coordinates(st, p).coords == {"b{a,b}": Fraction(1)}

    def test_vertices_persist(self):
        st = subdivide(edge(), 1)
        p = RationalPoint.vertex(st.base, "a")
        assert sd_coordinates(st, p).coords == {"a": Fraction(1)}

    def test_embed_barycenter_vertex(self):
        st = subdivide(edge(), 1)
        p = RationalPoint.vertex(st.complex, "b{a,b}")
        assert st.embed_point(p).coords == {"a": Fraction(1, 2), "b": Fraction(1, 2)}

    def test_embed_mixed_point(self):
        st = subdivide(edge(), 1)
        p = RationalPoint(st.complex, {"a": Fraction(1, 3), "b{a,b}": Fraction(2, 3)})
        assert st.embed_point(p).coords == {"a": Fraction(2, 3), "b": Fraction(1, 3)}

    def test_embed_two_level_vertex(self):
        st = subdivide(edge(), 2)
        p = RationalPoint.vertex(st.complex, "b{a,b{a,b}}")
        assert st.embed_point(p).coords == {"a": Fraction(3, 4), "b": Fraction(1, 4)}

    def test_embed_rejects_labels_of_other_stages(self):
        stage2 = subdivide(edge(), 2)
        stage1, stage0 = stage2.previous, stage2.previous.previous
        for stage in (stage0, stage1, stage2):
            with pytest.raises(ElementNotFound):
                stage.embed_vertex("z")
        # warms stage 2's cache and, through its carrier, stage 1's and stage 0's
        assert stage2.embed_vertex("b{a,b{a,b}}").coords == {
            "a": Fraction(3, 4), "b": Fraction(1, 4)}
        with pytest.raises(ElementNotFound):
            stage1.embed_vertex("b{a,b{a,b}}")
        with pytest.raises(ElementNotFound):
            stage0.embed_vertex("b{a,b}")

    @pytest.mark.parametrize("name", ["edge", "circle", "triangle"])
    def test_round_trip_through_every_stage(self, name):
        K = COMPLEXES[name]()
        depth = FIXTURE_DEPTHS[name]
        deepest = subdivide(K, depth)
        chain = deepest.stage_chain()
        for p in sample_points(K, 25, seed=3):
            coords = p
            for stage in chain[1:]:
                coords = sd_coordinates(stage, coords)
                assert stage.embed_point(coords) == p

    def test_lift_point_reaches_top_stage(self):
        st = subdivide(edge(), 2)
        p = RationalPoint(st.base, {"a": Fraction(2, 3), "b": Fraction(1, 3)})
        lifted = lift_point(st, p)
        assert lifted.complex == st.complex
        assert st.embed_point(lifted) == p


class TestMesh:
    def test_zero_dimensional(self):
        assert mesh_sq_bound(point(), 4) == 0

    def test_edge_values(self):
        E = edge()
        assert mesh_sq_bound(E, 0) == 2
        assert mesh_sq_bound(E, 1) == Fraction(1, 2)

    def test_triangle_contracts_by_four_ninths(self):
        T = triangle()
        assert mesh_sq_bound(T, 1) / mesh_sq_bound(T, 0) == Fraction(4, 9)

    @pytest.mark.parametrize("name", sorted(COMPLEXES))
    def test_mesh_soundness(self, name):
        K = COMPLEXES[name]()
        stage = subdivide(K, 0)
        for n in range(FIXTURE_DEPTHS[name] + 1):
            if n:
                stage = subdivide(K, n)
            bound = mesh_sq_bound(K, n)
            embeds = {v: stage.embed_vertex(v) for v in stage.complex.vertices}
            for s in stage.complex.simplices:
                for u, v in combinations(s.verts, 2):
                    assert dist_sq(embeds[u], embeds[v]) <= bound


class TestEmbeddingOracle:
    """Embeddings, decode and ``approximate``'s values against ``LabelTower.embedding``."""

    @given(st.data())
    @settings(max_examples=40)
    def test_embeddings_and_decode_match_reference(self, data):
        K = data.draw(small_complexes())
        N = data.draw(st.integers(1, 4))
        tower = Tower.build(K, N)
        top = tower.stage(N)
        ref = LabelTower(K, N)
        reference = ref.embedding(N)
        for v in top.complex.vertices:
            assert top.embed_vertex(v).coords == reference[v]
        for x in tower.level(N).elements:
            thread = tower.thread(tuple(tower.bond(x, N, n) for n in range(1, N + 1)))
            assert tower.decode_thread(thread).representative.coords == reference[x]
        k = data.draw(st.integers(0, N))
        p = data.draw(rational_points(tower.stage(k).complex))
        assert (tower.stage(k).embed_point(p).coords
                == affine_reference(p.coords, ref.embedding(k)))

    @given(st.data())
    @settings(max_examples=40)
    def test_approximate_values_match_reference(self, data):
        K = data.draw(small_complexes())
        start = data.draw(st.integers(0, 1))
        last = data.draw(st.integers(start, 4))
        T = triangle()
        source = subdivide(K, start)
        images = {v: data.draw(rational_points(T)) for v in source.complex.vertices}
        h = PLMap(source, T, images)
        p = data.draw(rational_points(source.complex))
        assert h.evaluate(p).coords == affine_reference(
            p.coords, {v: q.coords for v, q in images.items()})
        ref = LabelTower(K, last)
        stages = []
        for stage, D, values in _stage_values(h, last):
            stages.append(stage.stage)
            assert {v: {w: Fraction(a, D) for w, a in value.items()}
                    for v, value in values.items()} == pl_values_reference(h, ref, stage.stage)
        assert stages == list(range(start, last + 1))


class TestSdMap:
    def test_constant_map(self):
        E, PT = edge(), point()
        g = SimplicialMap.constant(E, PT, "v")
        g1 = sd_map(g)
        assert set(g1.vertex_map.values()) == {"v"}

    def test_identity(self):
        E = edge()
        g1 = sd_map(SimplicialMap.identity(E))
        assert g1.vertex_map == {v: v for v in g1.source.vertices}

    def test_swap_fixes_midpoint(self):
        E = edge()
        g1 = sd_map(SimplicialMap(E, E, {"a": "b", "b": "a"}))
        assert g1.vertex_map == {"a": "b", "b": "a", "b{a,b}": "b{a,b}"}

    @pytest.mark.parametrize("source, target", [
        (lambda: subdivide(edge(), 2), None),
        (lambda: subdivide(circle(), 1), None),
        (lambda: subdivide(edge(), 0), None),
        (None, lambda: subdivide(circle(), 1)),
        (None, lambda: subdivide(edge(), 0)),
    ], ids=["source-stage-2", "source-of-another-complex", "source-stage-0",
            "target-of-another-complex", "target-stage-0"])
    def test_stages_must_subdivide_the_endpoints_once(self, source, target):
        with pytest.raises(ValueError, match="^stages do not match the map's endpoints$"):
            sd_map(SimplicialMap.identity(edge()), source and source(), target and target())

    def test_functoriality(self):
        E = edge()
        swap = SimplicialMap(E, E, {"a": "b", "b": "a"})
        ident = SimplicialMap.identity(E)
        assert sd_map(swap.compose(swap)) == sd_map(ident)
        assert sd_map(swap).compose(sd_map(swap)) == sd_map(ident)
        S1 = circle()
        rot = SimplicialMap(S1, S1, {"0": "1", "1": "2", "2": "0"})
        assert sd_map(rot.compose(rot)) == sd_map(rot).compose(sd_map(rot))

    @pytest.mark.parametrize("make, vertex_map", [
        (edge, {"a": "b", "b": "a"}),
        (circle, {"0": "1", "1": "2", "2": "0"}),
    ], ids=["edge-swap", "circle-rotation"])
    def test_subdividing_a_subdivided_map(self, make, vertex_map):
        K = make()
        g = SimplicialMap(K, K, vertex_map)
        assert sd_map(sd_map(g)) == iterated_sd_map(g, 2)
