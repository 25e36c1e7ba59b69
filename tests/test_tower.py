import json
import re
import tracemalloc
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from poset_tower import (
    FinitePoset,
    PosetMap,
    RationalPoint,
    Simplex,
    SimplicialComplex,
    SimplicialMap,
    SystemMorphism,
    Tower,
    betti,
    build_level,
    core,
    dist_sq,
    face_poset,
    link,
    mesh_sq_bound,
    open_star,
    order_complex,
    check_order_isomorphism,
    sd_coordinates,
    stage_vertex_label,
    star,
    subdivide,
    validate_complex,
)
from poset_tower import complexes, subdivision
from poset_tower import posets as posets_module
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
    SimplexNotInComplex,
    StageTooCoarse,
)
from poset_tower.verify import sample_points, verify_suite

from conftest import (
    COMPLEXES,
    FIXTURE_DEPTHS,
    LabelTower,
    cached_tower,
    is_complex,
    lifted_image,
    open_families_exhaustive,
    open_subset_is_open,
    rational_points,
    run_python,
    sample_separated_pairs,
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
    """p's coordinates over stages 0..steps, by the numerator lift over vertex ids."""
    stages = [level._stage for level in tower_of(p.complex, steps).levels]
    D, numerators = subdivision._numerators(p)
    chain = [{stages[0]._base_ids[v]: a for v, a in numerators.items()}]
    for stage in stages:
        chain.append(subdivision._sd_step(chain[-1], stage._index))
    names = [stages[0]._member_names] + [lambda ids, s=s: map(s._name, ids) for s in stages]
    return [{v: frac(a, D) for v, a in zip(name(lifted), lifted.values())}
            for name, lifted in zip(names, chain)]


def support_labels(chain) -> tuple:
    return tuple(stage_vertex_label(Simplex(coords)) for coords in chain)


@pytest.fixture
def labelled(monkeypatch):
    """The stage of each ``SubdividedComplex._labels`` computed, as each call starts."""
    calls = []
    labels = subdivision.SubdividedComplex._labels.func
    counted = cached_property(lambda stage: calls.append(stage.stage) or labels(stage))
    counted.__set_name__(subdivision.SubdividedComplex, "_labels")
    monkeypatch.setattr(subdivision.SubdividedComplex, "_labels", counted)
    return calls


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

    def test_each_stage_is_labelled_once(self, labelled, TRI):
        """``build`` renders no label; reading every level labels each stage once."""
        tower = Tower.build(TRI, 6)
        assert labelled == []
        for level in tower.levels:
            assert level.poset.elements == level.elements and level.carrier
        assert sorted(labelled) == [0, 1, 2, 3, 4, 5]
        tower.stage(6).complex
        assert sorted(labelled) == [0, 1, 2, 3, 4, 5]

    def test_names_with_braces_label_each_stage_once_at_build(self, labelled, monkeypatch):
        """Stages 0..2 are labelled at build; no clash, so ``barycenters`` is never called."""
        calls = []
        monkeypatch.setattr(subdivision, "barycenters", calls.append)
        K = SimplicialComplex.from_maximal([["a", "b"], ["b", "c"], ["a", "b{a,c}"]])
        tower = Tower.build(K, 3)
        assert sorted(labelled) == [0, 1, 2]
        for level in tower.levels:
            assert level.carrier and level.elements
        tower.stage(3)
        assert sorted(labelled) == [0, 1, 2]
        assert calls == []

    def test_build_makes_no_simplex_comparisons(self, monkeypatch, TRI):
        calls = []
        lt = Simplex.__lt__
        monkeypatch.setattr(Simplex, "__lt__", lambda s, t: calls.append(1) or lt(s, t))
        Tower.build(TRI, 4)
        assert calls == []
        sorted(TRI.simplices)
        assert calls

    def test_build_sorts_no_stage(self, monkeypatch, TRI):
        calls = []
        sort = SimplicialComplex.sorted_simplices
        monkeypatch.setattr(SimplicialComplex, "sorted_simplices",
                            lambda cx: calls.append(cx) or sort(cx))
        Tower.build(TRI, 6)
        assert calls == []

    def test_build_checks_no_face_closure(self, monkeypatch, TRI):
        calls = []
        check = complexes._check_faces
        monkeypatch.setattr(complexes, "_check_faces",
                            lambda *args: calls.append(1) or check(*args))
        Tower.build(TRI, 6)
        assert calls == []
        validate_complex(["a", "b"], [["a"], ["b"], ["a", "b"]])
        assert calls
        calls.clear()
        SimplicialComplex.from_maximal([["a", "b"]])
        assert calls

    def test_label_collision(self):
        K = SimplicialComplex.from_maximal([["a", "b"], ["b{a,b}"]])
        for build in (Tower.build, build_level):
            with pytest.raises(InvalidComplex,
                               match=r"'b\{a,b\}' names both \{b\{a,b\}\} and \{a,b\}"):
                build(K, 1)

    COLLISIONS = """
from poset_tower import SimplicialComplex, Tower, build_level, subdivide
from poset_tower.errors import PosetTowerError
K = SimplicialComplex.from_maximal([["a", "b"], ["c", "d"], ["b{a,b}"], ["b{c,d}"]])
for build in (Tower.build, build_level, subdivide):
    try:
        build(K, 1)
    except PosetTowerError as exc:
        print(type(exc).__name__, exc)
"""

    def test_two_collisions_name_the_least_pair_under_every_hash_seed(self):
        for seed in ("1", "2", "3", "4", "5"):
            result = run_python("-c", self.COLLISIONS, PYTHONHASHSEED=seed)
            assert result.returncode == 0, result.stderr
            assert result.stdout.splitlines() == [
                "InvalidComplex stage vertex label 'b{a,b}' names both {b{a,b}} and {a,b}"] * 3

    CHAIN_COLLISIONS = """
from poset_tower import SimplicialComplex, Tower, build_level, subdivide
from poset_tower.errors import PosetTowerError
K = SimplicialComplex.from_maximal([["a", "b"], ["c", "d"], ["b{a,b{a,b}}"], ["b{c,b{c,d}}"]])
for build in (Tower.build, build_level, subdivide):
    try:
        build(K, 2)
    except PosetTowerError as exc:
        print(type(exc).__name__, exc)
"""

    def test_collisions_among_chains_name_the_least_pair_under_every_hash_seed(self):
        """Stage 1 is labelled from its chain list, which is walked again sorted."""
        for seed in ("1", "2", "3", "4", "5"):
            result = run_python("-c", self.CHAIN_COLLISIONS, PYTHONHASHSEED=seed)
            assert result.returncode == 0, result.stderr
            assert result.stdout.splitlines() == [
                "InvalidComplex stage vertex label 'b{a,b{a,b}}' names both"
                " {b{a,b{a,b}}} and {a,b{a,b}}"] * 3


def chain_count(X: FinitePoset) -> int:
    """The number of nonempty chains of X: each element tops one plus those below it."""
    topped = {}
    for x in sorted(X.elements, key=lambda x: len(X.min_open(x))):
        topped[x] = 1 + sum(topped[y] for y in X.strict_down(x))
    return sum(topped.values())


class TestTrustedComplexes:
    """Complexes built without the constructor's check pass it, and chains are complete."""

    def assert_valid(self, cx, X=None):
        rebuilt = SimplicialComplex(cx.vertices, cx.simplices)
        assert is_complex(cx.vertices, [s.verts for s in cx.simplices])
        assert cx == rebuilt and cx.dim == rebuilt.dim
        if X is not None:
            assert cx.vertices == X.elements
            assert all(X.leq(a, b) or X.leq(b, a)
                       for s in cx.simplices for a, b in combinations(s.verts, 2))
            assert len(cx.simplices) == chain_count(X)

    @given(small_complexes())
    @settings(max_examples=25)
    def test_stages_up_set_order_complexes_stars_and_links(self, K):
        tower = Tower.build(K, 3)
        for n in range(1, 4):
            X = tower.level(n).poset
            self.assert_valid(tower.stage(n).complex, X)
            for x in X.elements:
                up = X.restrict(X.up_set(x))
                self.assert_valid(order_complex(up), up)
        for k in range(4):
            cx = tower.stage(k).complex
            for s in cx.simplices:
                self.assert_valid(star(cx, s))
                self.assert_valid(link(cx, s))


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


    def test_orders_derive_up_sets_on_first_read(self, TRI):
        tower = Tower.build(TRI, 3)
        for level in tower.levels:
            X = level.poset
            assert len(X) == len(level.carrier)
            X.to_json_obj()
            order_complex(X)
            assert X._up is None
            x = X.elements[0]
            up = X.up_set(x)
            held = X._up
            assert held is not None and held[x] is up
            assert X.up_set(x) is up and X.strict_up(x) == up - {x} and X.is_up_set(up)
            assert X.restrict(up)._up is not None
            assert X._up is held

    def test_level_orders_hold_only_their_down_sets(self, TRI):
        """Reading every level order of a depth-5 tower holds about 1.5 MiB, not 3.5.

        Labels and id indexes, which the codec reads too, are made before
        the count starts.  An up-set held next to each down-set would bring
        it back to 3.5 MiB.
        """
        tower = Tower.build(TRI, 5)
        for level in tower.levels:
            level._stage._labels, level._stage._index
        tracemalloc.start()
        try:
            for level in tower.levels:
                level.poset
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2 * 2 ** 20


class TestLazyStageComplexes:
    def test_build_and_codec_build_no_complex(self, monkeypatch, TRI):
        calls = []
        store = SimplicialComplex._store
        monkeypatch.setattr(SimplicialComplex, "_store",
                            lambda cx, *args: calls.append(cx) or store(cx, *args))
        p = RationalPoint(TRI, {"0": frac(1, 7), "1": frac(2, 7), "2": frac(4, 7)})
        tower = Tower.build(TRI, 6)
        parsed = tower.thread(list(tower.encode_thread(p, 6).entries))
        assert tower.validate_thread(parsed)
        tower.decode_thread(parsed)
        assert calls == []
        cx = tower.stage(5).complex
        assert tower.stage(5).complex is cx
        assert calls == [cx]

    def test_stage_complexes_match_in_either_read_order(self, TRI):
        """The tower's stages are labelled before their complexes are read, fresh ones after.

        Stage 6 is never labelled: its labels name the vertices of stage 7.
        """
        tower = Tower.build(TRI, 6)
        fresh = subdivision.subdivide(TRI, 0)
        for k in range(7):
            fresh = subdivision.extend_subdivision(fresh, k)
            want = fresh.complex
            stage = tower.stage(k)
            got = stage.complex
            assert (got.vertices, got.simplices, got.dim) == (
                want.vertices, want.simplices, want.dim)
            assert stage.complex is got
            if k < 6:
                assert fresh._barycenters == stage._barycenters


class TestLazyLabels:
    """Stages are built on vertex ids; a label is rendered only where one is read."""

    @pytest.fixture
    def rendered(self, monkeypatch):
        labels = []
        label = subdivision._barycenter_label
        monkeypatch.setattr(subdivision, "_barycenter_label",
                            lambda verts: labels.append(label(verts)) or labels[-1])
        return labels

    def test_build_renders_no_label_and_builds_no_simplex(self, TRI, rendered, built_simplices):
        tower = Tower.build(TRI, 6)
        assert rendered == [] and built_simplices == []
        assert all(stage._names is None and stage._ids == {} for stage in tower._stages)
        assert len(tower.level(6)._stage._simplices) == 23425

    def test_codec_round_renders_only_what_it_names(self, TRI, rendered):
        """Labels are kept per stage and id, so a second round renders none."""
        tower = Tower.build(TRI, 6)
        p = RationalPoint(TRI, {"0": frac(1, 7), "1": frac(2, 7), "2": frac(4, 7)})
        for again in (False, True):
            thread = tower.encode_thread(p, 6)
            parsed = tower.thread(json.loads(json.dumps(thread.to_json_obj()))["entries"])
            assert tower.validate_thread(parsed)
            region = tower.decode_thread(parsed)
            assert set(rendered) <= set(thread.entries).union(*region.chain)
            assert bool(rendered) is not again
            assert all("_labels" not in stage.__dict__ for stage in tower._stages)
            del rendered[:]

    def test_a_missed_label_labels_its_stage_once(self, labelled, TRI, rendered):
        """A label not rendered yet is found by labelling its stage, and only once.

        Ids below V keep their base names, so only the ids past them are rendered.
        """
        p = RationalPoint(TRI, {"0": frac(1, 7), "1": frac(2, 7), "2": frac(4, 7)})
        x = Tower.build(TRI, 4).encode_thread(p, 4).entries[-1]
        y = stage_vertex_label(max(Tower.build(TRI, 4).level(4).carrier.values()))
        tower = Tower.build(TRI, 4)
        del labelled[:], rendered[:]
        assert tower.bond(x, 4, 4) == x
        assert sorted(labelled) == [0, 1, 2, 3]
        V = len(TRI.vertices)
        assert len(rendered) == sum(len(tower.stage(k)._simplices) - V for k in range(4))
        del rendered[:]
        assert tower.bond(y, 4, 4) == y and y in tower.level(4) and "nope" not in tower.level(4)
        assert rendered == [] and sorted(labelled) == [0, 1, 2, 3]

    def test_order_builds_no_carrier_table(self, TRI, built_simplices):
        tower = Tower.build(TRI, 4)
        for level in tower.levels:
            assert len(level.poset) == len(level.elements)
        assert built_simplices == []
        assert all("_barycenters" not in level._stage.__dict__ for level in tower.levels)
        assert tower.level(4).carrier is tower.stage(3)._barycenters


class TestIdsMatchLabelReference:
    """The id tables read as labels equal the label-keyed construction (``LabelTower``)."""

    @given(st.data())
    @settings(max_examples=25)
    def test_stages_levels_bonds_and_codec(self, data):
        K = data.draw(small_complexes())
        depth = data.draw(st.integers(1, 4))
        seed = data.draw(st.integers(0, 2 ** 16), label="seed")
        tower = Tower.build(K, depth)
        ref = LabelTower(K, depth)
        for p in sample_points(K, 6, seed):
            entries = tower.encode_thread(p, depth).entries
            assert entries == ref.encode(p, depth)
            parsed = tower.thread(json.loads(json.dumps(list(entries))))
            assert parsed.entries == entries and tower.validate_thread(parsed)
            region = tower.decode_thread(parsed)
            assert (region.chain, dict(region.representative.coords)) == ref.decode(entries)
        for n in range(1, depth + 1):
            level = tower.level(n)
            assert level.elements == tuple(sorted(ref.carriers[n - 1]))
            assert level.poset == FinitePoset.from_down_sets(ref.carriers[n - 1], ref.down_sets(n))
            assert level.carrier == ref.carriers[n - 1]
            assert all(tower.bond(x, n, m) == ref.bond(x, n, m)
                       for x in level.elements for m in range(1, n + 1))
        for k in range(depth + 1):
            stage = tower.stage(k)
            assert stage.complex == ref.complex(k)
            assert stage.provenance == ref.provenance(k)
            if k < depth:
                assert stage._barycenters == ref.carriers[k]
            # bonds read a chain's top as its last id
            assert all(a < b for s in stage._simplices for a, b in zip(s, s[1:]))
            assert all(stage._index[f] < i for s, i in stage._index.items()
                       for r in range(1, len(s)) for f in combinations(s, r))


class TestNamesWithBraces:
    """A base name may hold braces or commas; such a base's stages are labelled in full.

    A stage is labelled when it is subdivided or read as a level, and a label
    that names two of its simplices is refused there.
    """

    ATOM = SimplicialComplex.from_maximal([["a", "b"], ["b", "c"], ["a", "b{a,c}"]])

    def test_atom_builds_encodes_and_decodes_as_the_reference(self):
        tower = Tower.build(self.ATOM, 3)
        ref = LabelTower(self.ATOM, 3)
        for n in range(1, 4):
            assert tower.level(n).carrier == ref.carriers[n - 1]
            assert tower.level(n).poset == FinitePoset.from_down_sets(
                ref.carriers[n - 1], ref.down_sets(n))
        for p in sample_points(self.ATOM, 20, 0):
            entries = tower.encode_thread(p, 3).entries
            assert entries == ref.encode(p, 3)
            region = tower.decode_thread(tower.thread(list(entries)))
            assert (region.chain, dict(region.representative.coords)) == ref.decode(entries)

    @pytest.mark.parametrize("K, depth", [
        (ATOM, 3), (SimplicialComplex.from_maximal([["0", "1", "2", "3"]]), 2),
    ], ids=["atom", "solid-3-simplex"])
    def test_bonds_match_the_reference(self, K, depth):
        """Bases that ``small_complexes`` never draws: a brace-named vertex, dimension 3."""
        tower, ref = Tower.build(K, depth), LabelTower(K, depth)
        for m in range(1, depth + 1):
            assert all(tower.bond(x, m, n) == ref.bond(x, m, n)
                       for x in tower.level(m).elements for n in range(1, m + 1))

    def test_entry_names_the_atom(self):
        tower = Tower.build(self.ATOM, 2)
        atom = tower.thread(["b{a,c}", "b{a,c}"])
        assert atom.entries == ("b{a,c}", "b{a,c}") and tower.validate_thread(atom)
        assert tower.decode_thread(atom).chain == (frozenset({"b{a,c}"}), frozenset({"b{a,c}"}))
        assert tower.thread(["{a,b{a,c}}"]).entries == ("b{a,b{a,c}}",)
        assert tower.thread(["{c,a}"]).entries == ("b{a,c}",)
        with pytest.raises(ElementNotFound, match=r"'b\{b\{a,c\},c\}' at level 1"):
            tower.thread(["b{b{a,c},c}"])

    COLLISION = """
from poset_tower import SimplicialComplex, Tower, subdivide
from poset_tower.errors import PosetTowerError
K = SimplicialComplex.from_maximal([["a", "b"], ["a", "b{a,b}"]])
for build in (Tower.build, subdivide):
    try:
        build(K, 1)
    except PosetTowerError as exc:
        print(type(exc).__name__, exc)
"""

    @pytest.mark.parametrize("seed", ["1", "4242"])
    def test_clash_next_to_its_edge_is_refused(self, seed):
        result = run_python("-c", self.COLLISION, PYTHONHASHSEED=seed)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "InvalidComplex stage vertex label 'b{a,b}' names both {b{a,b}} and {a,b}"] * 2

    SHORT_OF_A_CLASH = """
from fractions import Fraction
from poset_tower import RationalPoint, SimplicialComplex, Tower, subdivide
from poset_tower.errors import PosetTowerError
K = SimplicialComplex.from_maximal([["a", "b"], ["c", "b{a,b{a,b}}"]])
T = Tower.build(K, 1)
p = RationalPoint(K, {"a": Fraction(1, 3), "b": Fraction(2, 3)})
thread = T.encode_thread(p, 1)
print(thread.entries, [sorted(c) for c in T.decode_thread(T.thread(list(thread.entries))).chain])
print(sorted((x, s.label()) for x, s in T.level(1).carrier.items()))
for build in (lambda: Tower.build(K, 2), lambda: subdivide(K, 2), lambda: T.deepened(2)):
    try:
        build()
    except PosetTowerError as exc:
        print(type(exc).__name__, exc)
"""

    @pytest.mark.parametrize("seed", ["1", "4242"])
    def test_one_level_short_of_a_clash(self, seed):
        """The base's first clash is among the stage-1 labels, so depth 1 works and 2 is refused."""
        result = run_python("-c", self.SHORT_OF_A_CLASH, PYTHONHASHSEED=seed)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "('b{a,b}',) [['a', 'b']]",
            "[('a', '{a}'), ('b', '{b}'), ('b{a,b{a,b}}', '{b{a,b{a,b}}}'), ('b{a,b}', '{a,b}'),"
            " ('b{b{a,b{a,b}},c}', '{b{a,b{a,b}},c}'), ('c', '{c}')]",
            *["InvalidComplex stage vertex label 'b{a,b{a,b}}' names both"
              " {b{a,b{a,b}}} and {a,b{a,b}}"] * 3,
        ]


class TestBaseVertexIds:
    """Ids 0..V-1 of every stage are the base vertices, with their names and embeddings."""

    POINTS = SimplicialComplex.from_maximal([["p"], ["q"], ["r"]])

    @staticmethod
    def check(K, depth=3):
        V = len(K.vertices)
        for stage in subdivision.subdivide(K, depth).stage_chain():
            assert stage._simplices[:V] == [(i,) for i in range(V)]
            assert stage._labels[:V] == list(K.vertices)
            assert all(stage.embed_vertex(v) == RationalPoint.vertex(K, v) for v in K.vertices)
        tower = Tower.build(K, depth + 1)
        for k in range(depth + 1):
            assert [tower.stage(k)._name(i) for i in range(V)] == list(K.vertices)

    @pytest.mark.parametrize("K", [*(COMPLEXES[name]() for name in sorted(COMPLEXES)),
                                   TestNamesWithBraces.ATOM, POINTS],
                             ids=[*sorted(COMPLEXES), "atom", "disjoint-points"])
    def test_fixtures(self, K):
        self.check(K)

    @given(small_complexes())
    @settings(max_examples=20)
    def test_small_complexes(self, K):
        self.check(K)

    SHALLOW = """
import sys
from fractions import Fraction
from poset_tower import RationalPoint, Tower
from poset_tower.fixtures import edge, triangle
runs = []
for K, depth in ((edge(), 12), (triangle(), 5)):
    total = len(K.vertices) * (len(K.vertices) + 1) // 2
    p = RationalPoint(K, {v: Fraction(i + 1, total) for i, v in enumerate(K.vertices)})
    tower = Tower.build(K, depth)
    tower.stage(depth)
    runs.append((tower, p, depth))
if int(sys.argv[1]):
    sys.setrecursionlimit(int(sys.argv[1]))
for tower, p, depth in runs:
    region = tower.decode_thread(tower.encode_thread(p, depth))
    print([sorted(s) for s in region.chain], region.representative, region.err_sq_bound)
    top = tower.stage(depth)
    last = top.previous._name(len(top.previous._simplices) - 1)
    print(last, top.embed_vertex(last))
    elements = tower.level(depth).elements
    print(len(elements), elements[0], elements[-1])
"""

    def test_reads_of_fresh_towers_stay_shallow(self):
        """Past a 0-dimensional base, recursion through stages is bounded by their size.

        Fresh towers on the edge at depth 12 and the triangle at depth 5 are
        decoded, embedded and read under a recursion limit of 120, with the
        output they give at the default limit.
        """
        outputs = []
        for limit in ("0", "120"):
            result = run_python("-c", self.SHALLOW, limit, timeout=120)
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 6


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

    def test_deeply_nested_entry_is_refused(self, E):
        """A label nested deeper than its level is refused by a lookup in its stage's label table."""
        deep = "a"
        for _ in range(3000):
            deep = "b{" + deep + ",b}"
        tower = Tower.build(E, 3)
        for entries in ([deep], ["a", "a", deep]):
            with pytest.raises(ElementNotFound, match=f"at level {len(entries)}"):
                tower.thread(entries)
        assert deep not in tower.level(3)

    def test_deep_point_tower_is_read_from_its_top(self, PT):
        """Labels of a deep stage are rendered without recursing through the stages below."""
        for read, want in [(lambda t: t.bond("v", 1000, 1), "v"),
                           (lambda t: t.level(1000).elements, ("v",)),
                           (lambda t: "v" in t.level(1000), True)]:
            assert read(Tower.build(PT, 1000)) == want

    def test_deep_point_tower_decodes_and_embeds(self, PT):
        """Embeddings are filled without recursing through the stages below."""
        v = RationalPoint.vertex(PT, "v")
        tower = Tower.build(PT, 300)
        region = tower.decode_thread(tower.thread(["v"] * 300))
        assert (region.representative, region.err_sq_bound) == (v, 0)
        assert Tower.build(PT, 300).stage(300).embed_vertex("v") == v

    def test_deep_point_tower_memory_grows_linearly(self, PT):
        """A stage holds a link to the one below, not a copy of the whole chain."""
        held = []
        for depth in (2500, 5000):
            tracemalloc.start()
            tower = Tower.build(PT, depth)
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.stop()
            assert tower.stage(depth - 1).stage_chain()[0] is tower.stage(0)
            del tower
        assert held[1] < 2.5 * held[0]

    def test_carrier_notation_resolves(self, tower_E3):
        t = tower_E3.thread(["{a,b}", "{a,b{a,b}}"])
        assert t.entries == ("b{a,b}", "b{a,b{a,b}}")

    @pytest.mark.parametrize("entry, label", [
        ("{b,a}", "b{a,b}"),
        ("b{b,a}", "b{a,b}"),
        ("{a}", "a"),
        ("b{a}", "a"),
        ("{a,}", None),
        ("b{a,b,}", None),
        ("{a,b{a,b},}", None),
        ("{,a}", None),
        ("{a,,b}", None),
        ("{}", None),
        ("b{}", None),
        ("{a,a}", None),
    ])
    def test_carrier_set_members(self, E, entry, label):
        tower = Tower.build(E, 2)
        if label is None:
            with pytest.raises(ElementNotFound, match=re.escape(repr(entry))):
                tower.thread(["a", entry])
        else:
            assert tower.thread(["a", entry]).entries == ("a", label)

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

    @pytest.mark.parametrize("entries, message", [
        (["b{a,b}", "{a,b{a,b}}", "b"], "level 3 entry 'b' bonds to 'b', not 'b{a,b{a,b}}'"),
        (["a", "b", "a"], "level 2 entry 'b' bonds to 'b', not 'a'"),
    ])
    def test_decode_names_the_first_failing_level(self, tower_E3, entries, message):
        t = tower_E3.thread(entries)
        for check in (tower_E3.decode_thread, Tower.build(tower_E3.base, 3).decode_thread):
            with pytest.raises(IncoherentThread, match=f"^{re.escape(message)}$"):
                check(t)

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

    def test_a_coherent_thread_above_a_points_thread(self, E):
        """Not every coherent thread is the thread of a point.

        On the edge, x1 = b{a,b} and x(n+1) = b{a,xn}.  Every prefix validates,
        and the prefix of length n decodes to (1 - 2^-n)a + 2^-n b, which tends
        to a.  But a's thread is (a, a, ...), entrywise below this one: the
        threads of points are the entrywise-minimal coherent threads.
        """
        tower, entries = Tower.build(E, 5), ["b{a,b}"]
        while len(entries) < 5:
            entries.append(f"b{{a,{entries[-1]}}}")
        for n in range(1, 6):
            t = tower.thread(entries[:n])
            assert tower.validate_thread(t)
            assert tower.decode_thread(t).representative == RationalPoint(
                E, {"a": 1 - frac(1, 2**n), "b": frac(1, 2**n)})
            assert tower.level(n).poset.leq("a", entries[n - 1])
        assert tower.encode_thread(RationalPoint.vertex(E, "a"), 5).entries == ("a",) * 5

    @pytest.mark.parametrize("name, N", [("edge", 4), ("triangle", 3), ("tetra-boundary", 3)])
    def test_threads_of_carrier_points_lie_below(self, name, N):
        self.check_carrier_points_lie_below(cached_tower(name, N), N)

    @given(small_complexes(), st.integers(1, 3))
    @settings(max_examples=150)
    def test_threads_of_carrier_points_lie_below_on_small_complexes(self, K, N):
        self.check_carrier_points_lie_below(Tower.build(K, N), N)

    @staticmethod
    def check_carrier_points_lie_below(tower, N):
        """The finite form of the claim that threads of points are the minimal threads.

        Take a level-N element x with its bonded thread.  Each vertex of x's
        closed carrier and x's decoded representative is a point p of that
        carrier, and p's thread lies entrywise below x's in every level order.
        """
        stage = tower.stage(N - 1)
        for x in tower.level(N).elements:
            entries = [tower.bond(x, N, n) for n in range(1, N + 1)]
            region = tower.decode_thread(tower.thread(entries))
            points = [stage.embed_vertex(v) for v in sorted(region.chain[-1])]
            for p in points + [region.representative]:
                below = tower.encode_thread(p, N).entries
                for level, lower, upper in zip(tower.levels, below, entries):
                    assert level.poset.leq(lower, upper), (x, p, level.n)


class TestRecordedCoherence:
    """A thread's coherence is checked once and read back by validate and decode."""

    @pytest.fixture
    def check_calls(self, monkeypatch):
        calls = []
        original = Tower._check_thread

        def counted(tower, ids):
            calls.append(tower)
            return original(tower, ids)

        monkeypatch.setattr(Tower, "_check_thread", counted)
        return calls

    def test_decode_after_validate_runs_no_second_pass(self, tower_E3, check_calls):
        t = tower_E3.thread(["b{a,b}", "{a,b{a,b}}", "{a,b{a,b{a,b}}}"])
        assert tower_E3.validate_thread(t)
        assert len(check_calls) == 1
        region = tower_E3.decode_thread(t)
        assert tower_E3.validate_thread(t)
        assert len(check_calls) == 1
        assert region == tower_E3.decode_thread(tower_E3.thread(t.entries))

    def test_incoherent_thread_still_refused(self, tower_E3):
        t = tower_E3.thread(["a", "b"])
        assert not tower_E3.validate_thread(t)
        for _ in range(2):
            with pytest.raises(IncoherentThread):
                tower_E3.decode_thread(t)
        with pytest.raises(IncoherentThread):
            tower_E3.decode_thread(tower_E3.thread(["a", "b"]))

    def test_missing_entry_refused_on_every_call(self, tower_E3):
        t = tower_module.ThreadPrefix(tower_E3, ("a", "nope"))
        for check in (tower_E3.validate_thread, tower_E3.decode_thread,
                      tower_E3.validate_thread):
            with pytest.raises(ElementNotFound, match="'nope' at level 2"):
                check(t)

    def test_deeper_tower_checks_afresh(self, E, check_calls):
        shallow, deep = Tower.build(E, 2), Tower.build(E, 3)
        t = shallow.thread(["b{a,b}", "{a,b{a,b}}"])
        assert shallow.validate_thread(t)
        del check_calls[:]
        assert deep.validate_thread(t)
        assert check_calls == [deep]
        longer = tower_module.ThreadPrefix(shallow, ("a", "a", "a"))
        assert deep.validate_thread(longer)
        with pytest.raises(LevelOutOfRange):
            shallow.validate_thread(longer)

    def test_foreign_entry_is_refused_before_an_over_long_thread(self, E):
        shallow = Tower.build(E, 2)
        for entries in [("nope", "a", "a"), ("a", "nope", "a")]:
            longer = tower_module.ThreadPrefix(shallow, entries)
            with pytest.raises(ElementNotFound, match=f"'nope' at level {entries.index('nope') + 1}"):
                shallow.validate_thread(longer)

    def test_entries_are_looked_up_once(self, TRI, monkeypatch):
        """Validate and decode read the ids ``thread`` recorded; another tower looks them up once."""
        tower, other = Tower.build(TRI, 6), Tower.build(TRI, 6)
        p = RationalPoint(TRI, {"0": Fraction(1, 7), "1": Fraction(2, 7), "2": Fraction(4, 7)})
        entries = list(tower.encode_thread(p, 6).entries)
        lookups = []
        barycenter_id = subdivision.SubdividedComplex._barycenter_id
        monkeypatch.setattr(subdivision.SubdividedComplex, "_barycenter_id",
                            lambda stage, label: lookups.append(label) or barycenter_id(stage, label))
        t = tower.thread(entries)
        assert lookups == entries
        region = tower.decode_thread(t)
        assert tower.validate_thread(t) and lookups == entries
        assert other.decode_thread(t) == region and lookups == entries * 2

    def test_fields_equality_hash_and_repr_unchanged(self, tower_E3):
        checked = tower_E3.thread(["b{a,b}", "{a,b{a,b}}"])
        assert tower_E3.validate_thread(checked)
        fresh = tower_E3.thread(["b{a,b}", "{a,b{a,b}}"])
        assert tower_module.ThreadPrefix.__match_args__ == ("tower", "entries")
        assert checked == fresh and hash(checked) == hash(fresh)
        assert repr(checked) == repr(fresh) == "ThreadPrefix(b{a,b}, b{a,b{a,b}})"


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
        assert [subdivision.lift_point(tower.stage(k), p).coords for k in range(4)] == chain[:4]

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
        stage = tower.stage(1)
        support = stage._simplices[stage._barycenter_id(tower.project_point(p, 2))]
        monkeypatch.delitem(stage._index, support)
        with pytest.raises(ElementNotFound, match="at level 2"):
            tower.encode_thread(p, 2)
        with pytest.raises(ElementNotFound):
            tower.project_point(p, 2)
        assert tower.encode_thread(p, 1).entries == ("b{0,1,2}",)

    def test_numerators_that_stop_summing_to_d_raise(self, TRI, monkeypatch):
        tower = Tower.build(TRI, 2)
        p = RationalPoint(TRI, {"0": frac(1, 2), "1": frac(1, 3), "2": frac(1, 6)})
        step = subdivision._sd_step
        monkeypatch.setattr(tower_module, "_sd_step", lambda numerators, index:
                            {v: 2 * a for v, a in step(numerators, index).items()})
        with pytest.raises(InvalidPoint):
            tower.encode_thread(p, 2)

    def test_wrong_complex_rejected_by_lifts(self, tower_E3, S1):
        p = RationalPoint.vertex(S1, "0")
        with pytest.raises(ValueError):
            subdivision.lift_point(tower_E3.stage(2), p)


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

    @pytest.mark.parametrize("entries", ["01", 5, iter(["0"])], ids=["str", "int", "iterator"])
    def test_thread_entries_must_be_a_list_or_tuple(self, TRI, entries):
        with pytest.raises(InvalidInput, match="^thread entries must be a list or tuple, not "):
            Tower.build(TRI, 2).thread(entries)

    @pytest.mark.parametrize("call,error,message", [
        (lambda T: T.bond(["a"], 2, 1), ElementNotFound, "['a']"),
        (lambda T: ["a"] in T.level(1), None, None),
        (lambda T: subdivide(T.base, 1).carrier(["a"]), ElementNotFound, "['a']"),
        (lambda T: T.stage(0).embed_vertex(["0"]), ElementNotFound, "['0']"),
        (lambda T: T.basic_preimage(["0"], 1), ElementNotFound, "['0']"),
        (lambda T: T.image_of_open(["0"], 1, 1), SimplexNotInComplex, "'0'"),
    ], ids=["bond", "in", "carrier", "stage-0-vertex", "basic-preimage", "image-of-open"])
    def test_argument_that_is_not_a_label_or_simplex(self, TRI, call, error, message):
        T = Tower.build(TRI, 2)
        if error is None:
            assert call(T) is False
            return
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(T)

    @pytest.mark.parametrize("value", [1.5, 2.0, True])
    @pytest.mark.parametrize("call", [
        subdivide, build_level, mesh_sq_bound, Tower.build,
        lambda K, n: Tower.build(K, 1).deepened(n),
    ], ids=["subdivide", "build_level", "mesh_sq_bound", "Tower.build", "deepened"])
    def test_stage_or_depth_that_is_not_an_int(self, TRI, call, value):
        with pytest.raises(InvalidInput, match=f"must be an integer, not {re.escape(repr(value))}$"):
            call(TRI, value)

    @pytest.mark.parametrize("value", [1.5, 2.0, True])
    @pytest.mark.parametrize("call", [
        lambda T, p, v: T.level(v),
        lambda T, p, v: T.stage(v),
        lambda T, p, v: T.bond("0", v, 1),
        lambda T, p, v: T.bond("0", 2, v),
        lambda T, p, v: T.image_of_open([], v, 1),
        lambda T, p, v: T.image_of_open([], 1, v),
        lambda T, p, v: T.basic_preimage("0", v),
        lambda T, p, v: T.encode_thread(p, v),
        lambda T, p, v: T.project_point(p, v),
        lambda T, p, v: SystemMorphism.build(SimplicialMap.identity(T.base), T, T).level(v),
    ], ids=["level", "stage", "bond-from", "bond-to", "image-of-open-stage",
            "image-of-open-level", "basic-preimage", "encode-thread", "project-point",
            "morphism-level"])
    def test_level_or_stage_that_is_not_an_int(self, TRI, call, value):
        T = Tower.build(TRI, 2)
        with pytest.raises(InvalidInput, match=f"must be an integer, not {re.escape(repr(value))}$"):
            call(T, RationalPoint.vertex(TRI, "0"), value)

    @pytest.mark.parametrize("call,error,message", [
        (lambda T, p: T.encode_thread(p, 0), LevelOutOfRange, "depth 0 outside 1..3"),
        (lambda T, p: T.encode_thread(p, 4), LevelOutOfRange, "depth 4 outside 1..3"),
        (lambda T, p: T.thread(["a"] * 4), LevelOutOfRange, "thread longer than tower depth 3"),
        (lambda T, p: T.image_of_open([Simplex(["a", "b"])], 1, 1), SimplexNotInComplex, "{a,b}"),
        (lambda T, p: build_level(T.base, 0), LevelOutOfRange, "levels start at 1"),
        (lambda T, p: SystemMorphism.build(SimplicialMap.identity(T.base), T, T).level(0),
         LevelOutOfRange, "level 0 outside 1..3"),
        (lambda T, p: SystemMorphism.build(SimplicialMap.identity(T.base), T, T).level(4),
         LevelOutOfRange, "level 4 outside 1..3"),
    ], ids=["encode-depth-0", "encode-too-deep", "thread-too-long", "open-outside-stage",
            "level-0", "morphism-level-0", "morphism-level-past-depth"])
    def test_typed_errors(self, tower_E3, E, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(tower_E3, RationalPoint.vertex(E, "a"))


WRAPPERS = [
    (tower_module, "project_point", ("T", "p", 3)),
    (tower_module, "bond", ("T", "x", 3, 1)),
    (tower_module, "basic_preimage", ("T", "y", 2)),
    (tower_module, "encode_thread", ("T", "p", 3)),
    (tower_module, "validate_thread", ("t",)),
    (tower_module, "decode_thread", ("t",)),
    (tower_module, "separation_stage", ("T", "p", "q")),
    (tower_module, "image_of_open", ("T", "opens", 2, 2)),
    (posets_module, "is_order_preserving", ("f",)),
    (posets_module, "up_set", ("X", "y")),
    (posets_module, "min_open", ("X", "y")),
]


class TestFreeFunctions:
    """Each public free function returns what the method it wraps returns."""

    @pytest.mark.parametrize("module,name,args", WRAPPERS, ids=[w[1] for w in WRAPPERS])
    def test_wrapper_matches_method(self, E, module, name, args):
        T = cached_tower("edge", 3)
        p = RationalPoint(E, {"a": frac(2, 3), "b": frac(1, 3)})
        X = T.level(2).poset
        values = {
            "T": T, "p": p, "q": RationalPoint(E, {"a": frac(1, 3), "b": frac(2, 3)}),
            "t": T.encode_thread(p, 3), "x": T.project_point(p, 3), "y": "b{a,b}",
            "opens": list(T.stage(2).complex.simplices), "X": X,
            "f": PosetMap(X, X, {x: x for x in X}),
        }
        resolved = [values[a] if isinstance(a, str) else a for a in args]
        receiver, *rest = resolved
        if isinstance(receiver, tower_module.ThreadPrefix):
            receiver, rest = receiver.tower, [receiver]
        assert getattr(module, name)(*resolved) == getattr(receiver, name)(*rest)


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
