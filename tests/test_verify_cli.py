import json
import os
import pathlib
import subprocess
import sys

import pytest

from poset_tower import subdivision
from poset_tower.cli import main
from poset_tower.complexes import SimplicialComplex
from poset_tower.errors import (
    DepthTooLarge,
    InvalidComplex,
    LevelOutOfRange,
    UnknownSuite,
)
from poset_tower.fixtures import chain, circle, edge
from poset_tower.tower import Tower
from poset_tower.verify import SUITES, depth_guard, verify_all, verify_suite

from conftest import COMPLEXES

ROOT = pathlib.Path(__file__).resolve().parent.parent
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

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("name", sorted(COMPLEXES))
    def test_verify_all_matches_each_suite(self, name, depth):
        K = COMPLEXES[name]()
        assert verify_all(K, depth, seed=3) == [
            verify_suite(suite, K, depth, seed=3) for suite in SUITES]

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
    """Malformed input ends in one ``error:`` line and exit 1, never a traceback."""

    @staticmethod
    def run_module(*argv, **env_vars):
        env = dict(os.environ, **env_vars)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-m", "poset_tower", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    def assert_clean_error(self, result, needle):
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr
        assert needle in result.stderr

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        result = self.run_module("complex", "validate", str(path))
        self.assert_clean_error(result, str(path))

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.json"
        result = self.run_module("homology", str(path))
        self.assert_clean_error(result, str(path))

    @pytest.mark.parametrize("value", ["1/0", "half", float("inf")])
    def test_bad_coordinate(self, tmp_path, value):
        cpath = write_json(tmp_path / "edge.json", edge().to_json_obj())
        ppath = write_json(tmp_path / "p.json", {"coords": {"a": value, "b": "1"}})
        result = self.run_module("tower", "encode", cpath, "--point", ppath,
                                 "--depth", "1")
        self.assert_clean_error(result, repr(value))

    def test_verify_empty_complex(self, tmp_path):
        path = write_json(tmp_path / "empty.json", {"vertices": [], "simplices": []})
        result = self.run_module("tower", "verify", path, "--depth", "1")
        self.assert_clean_error(result, "empty complex")

    @pytest.mark.parametrize("cmd,files,needle", [
        (["tower", "decode", "{complex}", "--thread", "{thread}"],
         {"thread": ["a"]}, "['a']"),
        (["tower", "validate", "{complex}", "--thread", "{thread}"],
         {"thread": ["a"]}, "['a']"),
        (["tower", "validate", "{complex}", "--thread", "{thread}"],
         {"thread": {"entries": ["a", 7]}}, "7"),
        (["poset", "core", "{poset}"], {"poset": ["a"]}, "list"),
        (["poset", "core", "{poset}"],
         {"poset": {"elements": ["a", "b"], "leq": [["a", "b", "c"]]}}, "['a', 'b', 'c']"),
        (["approx", "--map", "{map}"], {"map": ["a"]}, "list"),
        (["approx", "--map", "{map}"], {"map": {"target": EDGE}}, "'source'"),
        (["approx", "--map", "{map}"],
         {"map": {"source": EDGE, "target": EDGE, "stage": "x"}}, "'x'"),
        (["approx", "--map", "{map}"],
         {"map": {"source": EDGE, "target": EDGE, "images": []}}, "[]"),
        (["approx", "--map", "{map}"],
         {"map": {"source": EDGE, "target": EDGE, "stage": 1.5}}, "not 1.5"),
        (["approx", "--map", "{map}"],
         {"map": {"source": EDGE, "target": EDGE, "stage": True}}, "not True"),
        (["approx", "--map", "{map}"],
         {"map": {"source": EDGE, "target": EDGE, "stage": "1"}}, "not '1'"),
    ], ids=["decode-list-thread", "validate-list-thread", "number-entry",
            "list-poset", "long-leq-pair", "list-map", "map-without-source",
            "map-stage-x", "map-images-list", "map-stage-float", "map-stage-bool",
            "map-stage-string"])
    def test_wrong_json_shape(self, tmp_path, cmd, files, needle):
        paths = {"complex": write_json(tmp_path / "edge.json", EDGE)}
        for key, obj in files.items():
            paths[key] = write_json(tmp_path / f"{key}.json", obj)
        result = self.run_module(*(arg.format(**paths) for arg in cmd))
        self.assert_clean_error(result, needle)

    @pytest.mark.parametrize("value", ["x", "-1"])
    def test_bad_simplex_cap(self, tmp_path, value):
        path = write_json(tmp_path / "edge.json", EDGE)
        result = self.run_module("complex", "subdivide", path, "--stage", "1",
                                 POSET_TOWER_MAX_SIMPLICES=value)
        self.assert_clean_error(result, repr(value))

    def test_stage_label_collision(self, tmp_path):
        K = SimplicialComplex.from_maximal([["a", "b"], ["b{a,b}"]])
        path = write_json(tmp_path / "clash.json", K.to_json_obj())
        result = self.run_module("complex", "subdivide", path, "--stage", "1")
        self.assert_clean_error(result, "'b{a,b}'")

    @pytest.mark.parametrize("command", [["build"], ["verify", "--suite", "level-oracle"]],
                             ids=["build", "verify-level-oracle"])
    def test_level_label_collision(self, tmp_path, command):
        K = SimplicialComplex.from_maximal([["a", "b"], ["b{a,b}"]])
        path = write_json(tmp_path / "clash.json", K.to_json_obj())
        result = self.run_module("tower", command[0], path, *command[1:], "--depth", "1")
        self.assert_clean_error(result, "'b{a,b}' names both {b{a,b}} and {a,b}")

    @pytest.mark.parametrize("flags", [[], ["--allow-deep"]], ids=["guarded", "allow-deep"])
    def test_negative_stage(self, tmp_path, flags):
        path = write_json(tmp_path / "edge.json", EDGE)
        result = self.run_module("complex", "subdivide", path, "--stage", "-1", *flags)
        self.assert_clean_error(result, "--stage must be a non-negative integer, not -1")
