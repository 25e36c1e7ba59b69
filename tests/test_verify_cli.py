import argparse
import json
import random
import re
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from poset_tower import approx, subdivision, verify
from poset_tower.approx import SimplicialMap, SystemMorphism
from poset_tower.cli import _parser, main
from poset_tower.complexes import RationalPoint, SimplicialComplex
from poset_tower.errors import (
    DepthTooLarge,
    InvalidComplex,
    InvalidInput,
    LevelOutOfRange,
    UnknownSuite,
)
from poset_tower.fixtures import chain, circle, edge, tetra_boundary, triangle
from poset_tower.tower import Tower
from poset_tower.verify import SUITES, depth_guard, sample_points, verify_all, verify_suite

import cli_table
from conftest import COMPLEXES, ROOT, run_python, small_complexes

FIXTURE_DIR = ROOT / "fixtures"
FIXTURE_FILES = sorted(FIXTURE_DIR.glob("*.json"))
EDGE = edge().to_json_obj()


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_row_passes(name, workdir):
    """Run one row of the CLI table in ``workdir`` and check its expectations."""
    assert cli_table.failures([cli_table.ROW[name]], workdir) == []


class TestSuites:
    def test_fixture_files_exist(self):
        assert [p.name for p in FIXTURE_FILES] == [
            "circle.json", "edge.json", "point.json",
            "tetra-boundary.json", "triangle.json"]

    @pytest.mark.parametrize("path", FIXTURE_FILES, ids=lambda p: p.stem)
    def test_every_fixture_passes_every_suite_at_depth_two(self, path, capsys):
        code, out, err = run_cli(capsys, "tower", "verify", str(path),
                                 "--suite", "all", "--depth", "2")
        assert code == 0, err
        reports = json.loads(out)
        assert sorted(r["suite"] for r in reports) == sorted(SUITES)
        assert all(r["passed"] for r in reports)

    def test_unknown_suite(self, E):
        with pytest.raises(UnknownSuite):
            verify_suite("nope", E, 2)
        with pytest.raises(UnknownSuite):
            verify_suite("nope", SimplicialComplex([], []), 0)

    def test_unhashable_suite_name_is_unknown(self, E):
        with pytest.raises(UnknownSuite, match=r"^\['x'\]; choose from \["):
            verify_suite(["x"], E, 1)

    def test_depth_guard(self, E, TRI):
        depth_guard(E, 4)
        with pytest.raises(DepthTooLarge):
            depth_guard(E, 5)
        with pytest.raises(DepthTooLarge):
            depth_guard(TRI, 4)

    def test_reports_are_deterministic(self, E):
        first = [r.to_json() for r in verify_all(E, 2, seed=0)]
        second = [r.to_json() for r in verify_all(E, 2, seed=0)]
        assert first == second

    def test_verify_all_builds_one_tower(self, E, monkeypatch):
        calls = []
        build = Tower.build.__func__

        def counting_build(cls, K, depth):
            calls.append(depth)
            return build(cls, K, depth)

        monkeypatch.setattr(Tower, "build", classmethod(counting_build))
        assert len(verify_all(E, 2)) == len(SUITES)
        assert calls == [2]

    def test_one_sample_per_run(self, E, monkeypatch):
        calls = []
        draw = verify.sample_points

        def counting_sample(K, count, seed):
            calls.append(count)
            return draw(K, count, seed)

        monkeypatch.setattr(verify, "sample_points", counting_sample)
        verify_all(E, 2, seed=5)
        assert calls == [200]
        for suite, count in [("roundtrip", 50), ("naturality", 100),
                             ("bond-commutation", 200), ("openness", None)]:
            del calls[:]
            verify_suite(suite, E, 2, seed=5)
            assert calls == ([] if count is None else [count])

    @given(small_complexes(), st.integers(0, 40), st.integers(0, 40), st.integers(0, 10 ** 6))
    @settings(max_examples=60)
    def test_shorter_sample_is_a_prefix(self, K, c, c2, seed):
        c, c2 = sorted((c, c2))
        assert sample_points(K, c, seed) == sample_points(K, c2, seed)[:c]

    def test_naturality_fails_on_a_wrong_image(self, E, monkeypatch):
        """Every g(x) projecting to b breaks both maps' projection squares."""
        monkeypatch.setattr(SimplicialMap, "apply_point",
                            lambda g, p: RationalPoint.vertex(g.target, "b"))
        checks = {c.name: c.passed for c in verify_suite("naturality", E, 2).checks}
        assert checks == {
            "identity-naturality": False, "identity-level-maps-order-preserving": True,
            "constant-naturality": False, "constant-level-maps-order-preserving": True}

    def test_naturality_compares_every_level(self, E, monkeypatch):
        """An image that matches at level 1 but not at level 2 fails only at depth 2."""
        apply_point = SimplicialMap.apply_point
        off = RationalPoint(E, {"a": "1/3", "b": "2/3"})
        monkeypatch.setattr(SimplicialMap, "apply_point", lambda g, p:
                            off if len(p.support()) == 2 else apply_point(g, p))
        passed = {depth: {c.name: c.passed for c in verify_suite("naturality", E, depth).checks}
                  for depth in (1, 2)}
        assert passed[1]["identity-naturality"] and not passed[2]["identity-naturality"]

    def test_naturality_fails_on_a_wrong_bond(self, E, monkeypatch):
        """Only the constant map's bond square reads the bond of a from level 2."""
        bond = Tower.bond
        monkeypatch.setattr(Tower, "bond", lambda t, x, m, n:
                            "b" if (x, m, n) == ("a", 2, 1) else bond(t, x, m, n))
        checks = {c.name: c.passed for c in verify_suite("naturality", E, 2).checks}
        assert checks["identity-naturality"] and not checks["constant-naturality"]

    def test_wrong_one_step_bond_fails_the_vertex_check(self, TRI, monkeypatch):
        """A bond to the member with the smallest carrier obeys the composition law but is caught."""
        tower = Tower.build(TRI, 3)
        level, below = tower.level(3), tower.level(2)
        x = next(x for x in level.elements if len(level.carrier[x].verts) > 1)
        smallest = min(level.carrier[x].verts, key=lambda u: len(below.carrier[u].verts))
        assert smallest != tower.bond(x, 3, 2)
        walk = Tower._bond
        xi, si = level._stage._barycenter_id(x), below._stage._barycenter_id(smallest)

        def smallest_first(t, i, m, n):
            """The walk, with x's first step taken to its member of smallest carrier."""
            if t is tower and (i, m) == (xi, 3) and n < 3:
                return walk(t, si, 2, n)
            return walk(t, i, m, n)

        monkeypatch.setattr(Tower, "_bond", smallest_first)
        assert all(tower.bond(x, 3, n) == tower.bond(tower.bond(x, 3, k), k, n)
                   for k in range(1, 4) for n in range(1, k + 1))
        monkeypatch.setattr(Tower, "build", classmethod(lambda cls, K, depth: tower))
        checks = {c.name: c.passed for c in verify_suite("bond-commutation", TRI, 3, seed=0).checks}
        assert checks["bond-matches-vertex-projection"] is False

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("name", sorted(COMPLEXES))
    def test_verify_all_matches_each_suite(self, name, depth):
        K = COMPLEXES[name]()
        assert verify_all(K, depth, seed=3) == [
            verify_suite(suite, K, depth, seed=3) for suite in SUITES]

    @pytest.mark.parametrize("depth,seed,message", [
        ("2", 0, "depth must be an integer, not '2'"),
        (None, 0, "depth must be an integer, not None"),
        (1.5, 0, "depth must be an integer, not 1.5"),
        (True, 0, "depth must be an integer, not True"),
        (1, [1], "seed must be an integer, not [1]"),
        (1, None, "seed must be an integer, not None"),
        (1, 1.0, "seed must be an integer, not 1.0"),
        (1, "1", "seed must be an integer, not '1'"),
        (1, False, "seed must be an integer, not False"),
    ])
    @pytest.mark.parametrize("run", [
        lambda K, depth, seed: verify_all(K, depth, seed),
        lambda K, depth, seed: verify_suite("roundtrip", K, depth, seed=seed),
    ], ids=["verify_all", "verify_suite"])
    def test_depth_and_seed_must_be_ints(self, run, E, monkeypatch, depth, seed, message):
        """A bad depth or seed is refused before any tower is built or point drawn."""
        def refuse(*args):
            raise AssertionError("built or sampled")

        monkeypatch.setattr(Tower, "build", refuse)
        monkeypatch.setattr(verify, "sample_points", refuse)
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            run(E, depth, seed)

    @pytest.mark.parametrize("count,seed,message", [
        (3.5, 0, "sample count must be an integer, not 3.5"),
        ("3", 0, "sample count must be an integer, not '3'"),
        (True, 0, "sample count must be an integer, not True"),
        (3, "0", "seed must be an integer, not '0'"),
        (3, 0.5, "seed must be an integer, not 0.5"),
        (3, None, "seed must be an integer, not None"),
    ])
    def test_sample_points_takes_integers(self, E, count, seed, message):
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            sample_points(E, count, seed)

    @pytest.mark.parametrize("count", [-1, -3])
    def test_sample_points_refuses_a_negative_count(self, E, count):
        with pytest.raises(InvalidInput,
                           match=f"^sample count must be a non-negative integer, not {count}$"):
            sample_points(E, count, 0)

    @pytest.mark.parametrize("run", [
        lambda K, depth: verify_all(K, depth),
        lambda K, depth: verify_suite("homology", K, depth),
    ], ids=["verify_all", "verify_suite"])
    def test_input_errors_in_order(self, run, E):
        with pytest.raises(InvalidComplex):
            run(SimplicialComplex([], []), 9)
        with pytest.raises(DepthTooLarge):
            run(E, 5)
        with pytest.raises(LevelOutOfRange):
            run(E, 0)


def reference_sample(K, count, seed):
    """The draw loop ``sample_points`` keeps, making one fresh point per draw."""
    rng = random.Random(seed)
    sims = K.sorted_simplices()
    points = []
    for _ in range(count):
        s = rng.choice(sims)
        weights = [rng.randint(0, 6) for _ in s.verts]
        if not any(weights):
            weights[rng.randrange(len(weights))] = 1
        points.append(RationalPoint._from_numerators(K, sum(weights), dict(zip(s.verts, weights))))
    return points


def first_draws(points):
    """The ids of the distinct objects of a sample, in first-draw order."""
    return list(dict.fromkeys(map(id, points)))


SAMPLING_SUITES = ["bond-commutation", "naturality", "roundtrip"]


class TestDistinctPoints:
    """The sampling suites check each distinct point of their prefix once."""

    @pytest.mark.parametrize("make", [triangle, tetra_boundary], ids=["triangle", "tetra-boundary"])
    def test_same_values_and_equal_values_are_one_object(self, make):
        K = make()
        for seed in range(21):
            got, want = sample_points(K, 200, seed), reference_sample(K, 200, seed)
            assert got == want
            objects = {}
            for g, w in zip(got, want):
                key = (w._denominator, tuple(sorted(w._numerators.items())))
                assert objects.setdefault(key, id(g)) == id(g)
            assert len(objects) == len(first_draws(got)) < len(got)

    def test_equal_reduced_weights_are_one_point(self, E, monkeypatch):
        """(2, 2) and (1, 1) on the edge are one point; so are (0, 3) and the vertex b."""
        draws = iter([("ab", [2, 2]), ("ab", [1, 1]), ("ab", [0, 3]), ("b", [5])])

        class Scripted:
            def __init__(self, seed):
                self.weights = []

            def choice(self, sims):
                verts, self.weights = next(draws)
                return next(s for s in sims if "".join(s.verts) == verts)

            def randint(self, lo, hi):
                return self.weights.pop(0)

        monkeypatch.setattr(verify.random, "Random", Scripted)
        p, q, r, t = sample_points(E, 4, 0)
        assert p is q and r is t and p is not r
        assert r == RationalPoint.vertex(E, "b")

    @pytest.mark.parametrize("suites", [None, *SAMPLING_SUITES], ids=["all", *SAMPLING_SUITES])
    def test_each_distinct_point_is_handled_once(self, TRI, monkeypatch, suites):
        depth, seed = 2, 4
        drawn = []
        draw = verify.sample_points
        monkeypatch.setattr(verify, "sample_points",
                            lambda K, count, seed: drawn.extend(draw(K, count, seed)) or drawn)
        encoded, commuted, lifted = [], [], []
        encode = Tower.encode_thread
        monkeypatch.setattr(Tower, "encode_thread",
                            lambda t, p, n: encoded.append(p) or encode(t, p, n))
        commutes = SystemMorphism._commutes
        monkeypatch.setattr(SystemMorphism, "_commutes", lambda m, samples=():
                            commuted.append(list(samples)) or commutes(m, samples))
        lift = verify.lift_point
        monkeypatch.setattr(verify, "lift_point",
                            lambda stage, p: lifted.append((stage.stage, p)) or lift(stage, p))
        if suites is None:
            verify_all(TRI, depth, seed)
        else:
            verify_suite(suites, TRI, depth, seed)
        ran = SAMPLING_SUITES if suites is None else [suites]
        sample = set(map(id, drawn))
        prefix = {name: first_draws(drawn[:size]) for name, size in verify._SAMPLE_SIZES.items()}
        # the decode-encode round trip encodes fresh representatives, which are no sampled object
        assert [id(p) for p in encoded if id(p) in sample] == (
            prefix["bond-commutation"] if "bond-commutation" in ran else [])
        assert [[id(p) for p in samples] for samples in commuted] == (
            [prefix["naturality"]] * 2 if "naturality" in ran else [])
        per_stage = Counter((stage, id(p)) for stage, p in lifted)
        assert per_stage == (
            Counter((stage, i) for i in prefix["roundtrip"] for stage in range(depth + 1))
            if "roundtrip" in ran else Counter())
        assert len(prefix["roundtrip"]) < 50

    @staticmethod
    def wrong_on(bad, monkeypatch):
        """Mutants that get the value ``bad`` wrong: its encoding, its image and its lift."""
        encode = Tower.encode_thread

        def wrong_encode(t, p, n):
            thread = encode(t, p, n)
            if p != bad:
                return thread
            other = next(x for x in t.level(1).elements if x != thread.entries[0])
            return SimpleNamespace(entries=(other,) + thread.entries[1:])

        apply_point = SimplicialMap.apply_point
        lift = verify.lift_point
        monkeypatch.setattr(Tower, "encode_thread", wrong_encode)
        monkeypatch.setattr(SimplicialMap, "apply_point", lambda g, p:
                            RationalPoint.vertex(g.target, g.target.vertices[1])
                            if p == bad else apply_point(g, p))
        monkeypatch.setattr(verify, "lift_point", lambda stage, p:
                            lift(stage, RationalPoint.vertex(p.complex, p.complex.vertices[0]))
                            if p == bad else lift(stage, p))

    def test_a_repeated_point_can_still_fail(self, TRI, monkeypatch):
        points = sample_points(TRI, 50, 0)
        bad = next(p for p in points if len(p.support()) > 1 and points.count(p) > 1)
        self.wrong_on(bad, monkeypatch)
        passed = {c.name: c.passed for r in verify_all(TRI, 2, 0) for c in r.checks}
        for name in ["projection-commutes-with-bonds", "coordinate-embed-round-trip",
                     "identity-naturality", "constant-naturality"]:
            assert passed[name] is False, name

    def test_a_point_first_drawn_past_a_prefix_fails_only_the_longer_sample(self, TRI, monkeypatch):
        points = sample_points(TRI, 200, 0)
        bad = next(p for p in points[100:] if p not in points[:100] and len(p.support()) > 1)
        self.wrong_on(bad, monkeypatch)
        passed = {c.name: c.passed for r in verify_all(TRI, 2, 0) for c in r.checks}
        assert passed["projection-commutes-with-bonds"] is False
        assert passed["identity-naturality"] and passed["constant-naturality"]
        assert passed["coordinate-embed-round-trip"]


class TestComplexCommands:
    def test_validate_round_trip(self, capsys, tmp_path):
        path = write_json(tmp_path / "edge.json", edge().to_json_obj())
        code, out, _ = run_cli(capsys, "complex", "validate", path)
        assert code == 0
        assert json.loads(out) == edge().to_json_obj()

    def test_validate_rejects_missing_face(self, capsys, tmp_path):
        path = write_json(tmp_path / "bad.json",
                          {"vertices": ["a", "b"], "simplices": [["a", "b"]]})
        code, _, err = run_cli(capsys, "complex", "validate", path)
        assert code == 1
        assert "face" in err

    def test_subdivide_output(self, capsys, tmp_path):
        path = write_json(tmp_path / "edge.json", edge().to_json_obj())
        code, out, _ = run_cli(capsys, "complex", "subdivide", path, "--stage", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["stage"] == 1
        assert obj["complex"]["vertices"] == ["a", "b", "b{a,b}"]
        assert obj["provenance"][0]["carriers"]["b{a,b}"] == ["a", "b"]

    def test_depth_guard_on_cli(self, capsys, tmp_path):
        path = write_json(tmp_path / "tri.json",
                          {"vertices": ["0", "1", "2"],
                           "simplices": [["0"], ["1"], ["2"], ["0", "1"],
                                         ["0", "2"], ["1", "2"], ["0", "1", "2"]]})
        code, _, err = run_cli(capsys, "complex", "subdivide", path, "--stage", "4")
        assert code == 1 and "guard" in err
        code, _, _ = run_cli(capsys, "complex", "subdivide", path, "--stage", "4",
                             "--allow-deep")
        assert code == 0

    def test_resource_cap(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("POSET_TOWER_MAX_SIMPLICES", "5")
        path = write_json(tmp_path / "edge.json", edge().to_json_obj())
        code, _, err = run_cli(capsys, "complex", "subdivide", path, "--stage", "2")
        assert code == 1
        assert "POSET_TOWER_MAX_SIMPLICES" in err


class TestPosetCommands:
    def test_face_poset_then_core(self, capsys, tmp_path):
        path = write_json(tmp_path / "edge.json", edge().to_json_obj())
        code, out, _ = run_cli(capsys, "poset", "face-poset", path)
        assert code == 0
        poset_path = write_json(tmp_path / "poset.json", json.loads(out))
        code, out, _ = run_cli(capsys, "poset", "core", poset_path)
        assert code == 0
        assert len(json.loads(out)["elements"]) == 1

    def test_order_complex(self, capsys, tmp_path):
        path = write_json(tmp_path / "fence.json",
                          {"elements": ["a", "b", "m"],
                           "leq": [["a", "m"], ["b", "m"]]})
        code, out, _ = run_cli(capsys, "poset", "order-complex", path)
        assert code == 0
        assert json.loads(out)["simplices"] == [
            ["a"], ["b"], ["m"], ["a", "m"], ["b", "m"]]

    def test_order_complex_cap(self, capsys, tmp_path, monkeypatch):
        path = write_json(tmp_path / "chain.json", chain(4).to_json_obj())
        monkeypatch.setenv("POSET_TOWER_MAX_SIMPLICES", "14")
        code, out, err = run_cli(capsys, "poset", "order-complex", path)
        assert code == 1 and out == ""
        assert "POSET_TOWER_MAX_SIMPLICES" in err
        monkeypatch.setenv("POSET_TOWER_MAX_SIMPLICES", "15")
        code, out, _ = run_cli(capsys, "poset", "order-complex", path)
        assert code == 0 and len(json.loads(out)["simplices"]) == 15

    def test_dot_export(self, capsys, tmp_path):
        path = write_json(tmp_path / "fence.json",
                          {"elements": ["a", "b", "m"],
                           "leq": [["a", "m"], ["b", "m"]]})
        code, out, _ = run_cli(capsys, "poset", "dot", path)
        assert code == 0
        assert out == ('digraph hasse {\n  "a";\n  "b";\n  "m";\n'
                       '  "a" -> "m";\n  "b" -> "m";\n}\n')


class TestTowerCommands:
    def test_build_summary(self, capsys, tmp_path):
        path = write_json(tmp_path / "edge.json", edge().to_json_obj())
        code, out, _ = run_cli(capsys, "tower", "build", path, "--depth", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["depth"] == 2
        assert obj["levels"][0]["elements"] == ["a", "b", "b{a,b}"]
        assert obj["levels"][0]["leq"] == [["a", "b{a,b}"], ["b", "b{a,b}"]]

    def test_encode_decode_pipeline(self, capsys, tmp_path):
        cpath = write_json(tmp_path / "edge.json", edge().to_json_obj())
        ppath = write_json(tmp_path / "p.json", {"coords": {"a": "2/3", "b": "1/3"}})
        code, out, _ = run_cli(capsys, "tower", "encode", cpath,
                               "--point", ppath, "--depth", "2")
        assert code == 0
        thread = json.loads(out)
        assert thread == {"entries": ["b{a,b}", "b{a,b{a,b}}"]}
        tpath = write_json(tmp_path / "t.json", thread)
        code, out, _ = run_cli(capsys, "tower", "decode", cpath, "--thread", tpath)
        assert code == 0
        region = json.loads(out)
        assert region["representative"] == {"coords": {"a": "3/4", "b": "1/4"}}
        assert region["err_sq_bound"] == "1/2"
        assert region["chain"] == [["a", "b"], ["a", "b{a,b}"]]

    def test_validate_exit_codes(self, capsys, tmp_path):
        cpath = write_json(tmp_path / "edge.json", edge().to_json_obj())
        good = write_json(tmp_path / "good.json",
                          {"entries": ["b{a,b}", "{a,b{a,b}}"]})
        bad = write_json(tmp_path / "bad.json", {"entries": ["a", "b"]})
        assert run_cli(capsys, "tower", "validate", cpath, "--thread", good)[0] == 0
        assert run_cli(capsys, "tower", "validate", cpath, "--thread", bad)[0] == 1

    def test_separate(self, capsys, tmp_path):
        cpath = write_json(tmp_path / "edge.json", edge().to_json_obj())
        ppath = write_json(tmp_path / "p.json", {"coords": {"a": "2/3", "b": "1/3"}})
        qpath = write_json(tmp_path / "q.json", {"coords": {"a": "1/3", "b": "2/3"}})
        code, out, _ = run_cli(capsys, "tower", "separate", cpath,
                               "--p", ppath, "--q", qpath, "--depth", "3")
        assert code == 0
        assert json.loads(out) == {"stage": 2}

    def test_separate_equal_points_fails(self, capsys, tmp_path):
        cpath = write_json(tmp_path / "edge.json", edge().to_json_obj())
        ppath = write_json(tmp_path / "p.json", {"coords": {"a": "2/3", "b": "1/3"}})
        code, _, err = run_cli(capsys, "tower", "separate", cpath,
                               "--p", ppath, "--q", ppath, "--depth", "2")
        assert code == 1 and "coincide" in err

    def test_deep_thread_decodes_without_a_traceback(self, tmp_path):
        """The embeddings of a 300-level point thread are filled without recursion."""
        assert_row_passes("deep-300", tmp_path)

    def test_cli_output_is_deterministic(self, capsys, tmp_path):
        path = write_json(tmp_path / "edge.json", edge().to_json_obj())
        runs = [run_cli(capsys, "tower", "verify", path, "--depth", "2",
                        "--seed", "1")[1] for _ in range(2)]
        assert runs[0] == runs[1]


class TestApproxCommand:
    def test_identity_map_report(self, capsys, tmp_path):
        E = edge()
        obj = {
            "source": E.to_json_obj(),
            "target": E.to_json_obj(),
            "stage": 0,
            "images": {"a": {"coords": {"a": "1"}}, "b": {"coords": {"b": "1"}}},
        }
        path = write_json(tmp_path / "map.json", obj)
        code, out, _ = run_cli(capsys, "approx", "--map", path, "--cap", "4")
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 2
        assert report["verification"]["simplicial"] is True
        assert report["verification"]["carrier_homotopy"] is True

    def test_source_is_subdivided_once(self, capsys, tmp_path, monkeypatch):
        S1 = circle()
        obj = {
            "source": S1.to_json_obj(),
            "target": S1.to_json_obj(),
            "stage": 0,
            "images": {u: {"coords": {v: "1"}} for u, v in (("0", "1"), ("1", "2"), ("2", "0"))},
        }
        stages = []
        step = subdivision._sd_once
        monkeypatch.setattr(subdivision, "_sd_once",
                            lambda prev: stages.append(prev.stage + 1) or step(prev))
        code, out, _ = run_cli(capsys, "approx", "--map", write_json(tmp_path / "map.json", obj))
        assert code == 0
        assert json.loads(out)["n"] == 2
        assert stages == [1, 2]

    def test_cap_exhaustion(self, capsys, tmp_path):
        E = edge()
        obj = {
            "source": E.to_json_obj(),
            "target": E.to_json_obj(),
            "stage": 0,
            "images": {"a": {"coords": {"a": "1"}}, "b": {"coords": {"b": "1"}}},
        }
        path = write_json(tmp_path / "map.json", obj)
        code, _, err = run_cli(capsys, "approx", "--map", path, "--cap", "1")
        assert code == 1 and "stage 1" in err

    def test_deep_map_stage_is_refused_before_subdividing(self, capsys, tmp_path, monkeypatch, TRI):
        calls = []
        subdivide = approx.subdivide
        monkeypatch.setattr(approx, "subdivide",
                            lambda K, n: calls.append(n) or subdivide(K, n))
        obj = {"source": TRI.to_json_obj(), "target": TRI.to_json_obj(), "stage": 6,
               "images": {v: {"coords": {v: "1"}} for v in TRI.vertices}}
        code, out, err = run_cli(capsys, "approx", "--map", write_json(tmp_path / "map.json", obj))
        assert (code, out) == (1, "")
        assert err == "error: depth 6 exceeds the guard (3) for a 2-complex\n"
        assert calls == []
        E = edge()
        stage = subdivide(E, 5)
        obj = {"source": E.to_json_obj(), "target": E.to_json_obj(), "stage": 5,
               "images": {v: stage.embed_vertex(v).to_json_obj() for v in stage.complex.vertices}}
        path = write_json(tmp_path / "edge-map.json", obj)
        code, _, err = run_cli(capsys, "approx", "--map", path, "--cap", "5")
        assert code == 1 and "guard (4)" in err and calls == []
        code, out, _ = run_cli(capsys, "approx", "--map", path, "--cap", "5", "--allow-deep")
        assert code == 0 and json.loads(out)["n"] == 5 and calls == [5]


# command: (handler, positionals, {option: (type, default, required, choices)}, --allow-deep flag)
REQUIRED_STR, REQUIRED_INT = (str, None, True, None), (int, None, True, None)
FORMAT = (None, "json", False, ["json", "dot"])
PARSER_SURFACE = {
    "complex validate": ("_cmd_complex_validate", ["file"], {}, False),
    "complex subdivide": ("_cmd_complex_subdivide", ["file"], {"--stage": REQUIRED_INT}, True),
    "poset core": ("_cmd_poset_core", ["file"], {"--format": FORMAT}, False),
    "poset order-complex": ("_cmd_poset_order_complex", ["file"], {}, False),
    "poset face-poset": ("_cmd_poset_face_poset", ["file"], {"--format": FORMAT}, False),
    "poset dot": ("_cmd_poset_dot", ["file"], {}, False),
    "tower build": ("_cmd_tower_build", ["complex"], {"--depth": REQUIRED_INT}, True),
    "tower encode": ("_cmd_tower_encode", ["complex"],
                     {"--point": REQUIRED_STR, "--depth": REQUIRED_INT}, True),
    "tower decode": ("_cmd_tower_decode", ["complex"], {"--thread": REQUIRED_STR}, True),
    "tower validate": ("_cmd_tower_validate", ["complex"], {"--thread": REQUIRED_STR}, True),
    "tower separate": ("_cmd_tower_separate", ["complex"],
                       {"--p": REQUIRED_STR, "--q": REQUIRED_STR, "--depth": REQUIRED_INT}, True),
    "tower verify": ("_cmd_tower_verify", ["complex"],
                     {"--suite": (None, "all", False, None), "--depth": (int, 2, False, None),
                      "--seed": (int, 0, False, None)}, False),
    "homology": ("_cmd_homology", ["file"], {}, False),
    "approx": ("_cmd_approx", [], {"--map": (None, None, True, None),
                                   "--cap": (int, 4, False, None)}, True),
}


def parser_surface(parser, prefix=""):
    """Each command under ``parser`` with its handler, positionals, options and --allow-deep."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if subparsers:
        return {name: surface
                for word, sub in subparsers[0].choices.items()
                for name, surface in parser_surface(sub, f"{prefix}{word} ").items()}
    actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
    options = {a.option_strings[0]: (a.type, a.default, a.required, a.choices)
               for a in actions if a.option_strings and a.dest != "allow_deep"}
    return {prefix.strip(): (parser.get_default("func").__name__,
                             [a.dest for a in actions if not a.option_strings],
                             options,
                             any(a.dest == "allow_deep" and isinstance(a, argparse._StoreTrueAction)
                                 for a in actions))}


class TestParserSurface:
    def test_every_command_keeps_its_arguments(self):
        assert parser_surface(_parser()) == PARSER_SURFACE


class TestRepeatedMain:
    """``main`` reuses one parser; no option of one call reaches the next."""

    def test_format_does_not_carry_over(self, capsys, tmp_path):
        path = write_json(tmp_path / "fence.json",
                          {"elements": ["a", "b", "m"],
                           "leq": [["a", "m"], ["b", "m"]]})
        code, out, _ = run_cli(capsys, "poset", "core", path, "--format", "dot")
        assert code == 0 and out.startswith("digraph hasse {")
        code, out, _ = run_cli(capsys, "poset", "core", path)
        assert code == 0
        assert json.loads(out) == {"elements": ["m"], "leq": []}

    def test_suite_and_depth_do_not_carry_over(self, capsys, tmp_path):
        path = write_json(tmp_path / "edge.json", EDGE)
        code, out, _ = run_cli(capsys, "tower", "verify", path,
                               "--suite", "openness", "--depth", "1")
        assert code == 0
        assert [(r["suite"], r["depth"]) for r in json.loads(out)] == [("openness", 1)]
        code, out, _ = run_cli(capsys, "tower", "verify", path)
        assert code == 0
        assert [(r["suite"], r["depth"]) for r in json.loads(out)] == [
            (name, 2) for name in SUITES]

    def test_allow_deep_does_not_carry_over(self, capsys, tmp_path):
        path = write_json(tmp_path / "edge.json", EDGE)
        code, out, _ = run_cli(capsys, "tower", "build", path, "--depth", "5",
                               "--allow-deep")
        assert code == 0 and json.loads(out)["depth"] == 5
        code, out, err = run_cli(capsys, "tower", "build", path, "--depth", "5")
        assert code == 1 and out == ""
        assert err == "error: depth 5 exceeds the guard (4) for a 1-complex\n"

    def test_valid_command_after_usage_error(self, capsys, tmp_path):
        path = write_json(tmp_path / "edge.json", EDGE)
        with pytest.raises(SystemExit) as exc:
            main(["tower", "build", path])
        assert exc.value.code == 2
        assert "--depth" in capsys.readouterr().err
        code, out, err = run_cli(capsys, "complex", "validate", path)
        assert (code, err) == (0, "")
        assert json.loads(out) == EDGE


class TestInputErrors:
    """Malformed input ends in one ``error:`` line and exit 1, never a traceback.

    Most cases are rows of ``cli_table.py``, each run here on its own and all
    of them run by ``test_cli_table.py`` under two hash seeds.  The cases that
    need a timeout, hash seeds or an environment value of their own run
    ``python -m poset_tower``.
    """

    @staticmethod
    def run_module(*argv, timeout=60, **env_vars):
        return run_python("-m", "poset_tower", *argv, timeout=timeout, **env_vars)

    def assert_clean_error(self, result, needle):
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr
        assert needle in result.stderr

    def test_bad_json(self, tmp_path):
        assert_row_passes("bad-json", tmp_path)

    def test_missing_file(self, tmp_path):
        assert_row_passes("missing-file", tmp_path)

    @pytest.mark.parametrize("value", ["1/0", "half", "inf"])
    def test_bad_coordinate(self, tmp_path, value):
        assert_row_passes(f"bad-coordinate-{value}", tmp_path)

    def test_huge_decimal_exponent(self, tmp_path):
        """``Fraction("1e-100000000")`` would build a 100-million-digit integer first."""
        cpath = write_json(tmp_path / "edge.json", EDGE)
        ppath = write_json(tmp_path / "p.json", {"coords": {"a": "1e-100000000", "b": "1"}})
        result = self.run_module("tower", "encode", cpath, "--point", ppath,
                                 "--depth", "1", timeout=10)
        self.assert_clean_error(result, "decimal exponent")

    def test_verify_empty_complex(self, tmp_path):
        assert_row_passes("verify-empty-complex", tmp_path)

    @pytest.mark.parametrize("name", [
        "decode-list-thread", "validate-list-thread", "number-entry", "list-poset",
        "long-leq-pair", "number-leq", "list-map", "map-without-source", "map-stage-x",
        "map-images-list", "map-stage-float", "map-stage-bool", "map-stage-string",
        "point-bool", "point-bool-pair", "map-image-point-bool"])
    def test_wrong_json_shape(self, tmp_path, name):
        assert_row_passes(name, tmp_path)

    @pytest.mark.parametrize("seed", ["0", "2", "3", "5", "6"])
    def test_cycle_names_least_pair(self, tmp_path, seed):
        """The witness of a cyclic ``leq`` does not depend on the hash seed."""
        path = write_json(tmp_path / "cycle.json", {
            "elements": ["a", "b", "c"], "leq": [["a", "b"], ["b", "c"], ["c", "a"]]})
        result = self.run_module("poset", "core", path, PYTHONHASHSEED=seed)
        assert result.returncode == 1
        assert result.stderr == "error: 'a' and 'b' are mutually comparable\n"

    @pytest.mark.parametrize("value", ["x", "-1"])
    def test_bad_simplex_cap(self, tmp_path, value):
        path = write_json(tmp_path / "edge.json", EDGE)
        result = self.run_module("complex", "subdivide", path, "--stage", "1",
                                 POSET_TOWER_MAX_SIMPLICES=value)
        self.assert_clean_error(result, repr(value))

    def test_stage_label_collision(self, tmp_path):
        assert_row_passes("stage-label-collision", tmp_path)

    @pytest.mark.parametrize("command", ["build", "verify-level-oracle"])
    def test_level_label_collision(self, tmp_path, command):
        assert_row_passes(f"level-label-collision-{command}", tmp_path)

    @pytest.mark.parametrize("flags", ["guarded", "allow-deep"])
    def test_negative_stage(self, tmp_path, flags):
        assert_row_passes(f"negative-stage-{flags}", tmp_path)
