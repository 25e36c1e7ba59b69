"""The CLI checks as one table: each row is a command line, its input files and its expected result.

Every row runs through ``poset_tower.cli.main``, the function the
``poset-tower`` console script calls, in one process and in one working
directory that holds a copy of ``fixtures/``.  Rows name their files by paths
relative to that directory, so no output depends on where it is.  The script
prints one line per row, its name and a digest of its exit code, stdout and
stderr, and exits 1 naming every row that does not give its expected result.
Its output must not depend on the hash seed:

    PYTHONHASHSEED=1 python tests/cli_table.py > seed-1.txt
    PYTHONHASHSEED=4242 python tests/cli_table.py > seed-4242.txt
    cmp seed-1.txt seed-4242.txt

Every row's stderr is empty or one ``error: `` message without a traceback,
and empty when the row exits 0.  (A check that fails, such as ``tower
validate`` on an incoherent thread, exits 1 with its report on stdout and
nothing on stderr.)  A row can also expect its exact stdout as JSON, its exact
stderr, or a needle in its stderr.

The script imports only the standard library and ``poset_tower``, so it
checks whichever copy of the package Python imports: the checkout's with
``PYTHONPATH=src``, or an installed one.  A new CLI check is a new row.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, field

from poset_tower.cli import main as cli_main

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
UNSET = object()


@dataclass(frozen=True)
class StdoutOf:
    """A file whose text is the stdout of the earlier row of this name."""

    row: str


@dataclass(frozen=True)
class Row:
    """One command line, the files it writes first, and what it must give.

    A file's content is JSON to dump, text to write as it is, or a ``StdoutOf``.
    """

    name: str
    argv: tuple
    files: dict = field(default_factory=dict)
    code: int = 0
    json: object = UNSET
    stderr: str | None = None
    needle: str | None = None


def row(name, *argv, **expected):
    return Row(name, argv, **expected)


POSET = {"elements": ["a", "b", "c", "d", "e"],
         "leq": [["a", "c"], ["b", "c"], ["a", "d"], ["b", "d"], ["c", "e"], ["d", "e"]]}
# an atom whose name reads as a stage-1 label, and a base one level short of a
# clash: its first repeated label is among the stage-1 labels, so depth 1
# builds and depth 2 is refused
ATOMS = {"vertices": ["a", "b", "b{a,c}", "c"],
         "simplices": [["a"], ["b"], ["c"], ["b{a,c}"], ["a", "b"], ["b", "c"], ["a", "b{a,c}"]]}
SHORT = {"vertices": ["a", "b", "b{a,b{a,b}}", "c"],
         "simplices": [["a"], ["b"], ["c"], ["b{a,b{a,b}}"], ["a", "b"], ["b{a,b{a,b}}", "c"]]}
CLASH = {"vertices": ["a", "b", "b{a,b}"], "simplices": [["a"], ["b"], ["b{a,b}"], ["a", "b"]]}
# the fixture's 6-vertex RP^2, whose top degree betti reads as a signed graph;
# the 2-skeleton of the 4-simplex, where each edge has three cofaces and the
# top degree goes to the sparse elimination; and RP^2 with a triangle glued on
# the edge {0, 1}, where the sparse elimination finds the torsion along a path
# that follows the hash seed
RP2_TRIANGLES = [["0", "1", "4"], ["0", "1", "5"], ["0", "2", "3"], ["0", "2", "4"],
                 ["0", "3", "5"], ["1", "2", "3"], ["1", "2", "5"], ["1", "3", "4"],
                 ["2", "4", "5"], ["3", "4", "5"]]


def closed(facets):
    """The complex with these facets, every face listed by size and then in order."""
    faces = {tuple(facet[i] for i in range(len(facet)) if mask >> i & 1)
             for facet in facets for mask in range(1, 1 << len(facet))}
    vertices = sorted({v for facet in facets for v in facet})
    return {"vertices": vertices,
            "simplices": [list(s) for s in sorted(faces, key=lambda s: (len(s), s))]}


RP2 = closed(RP2_TRIANGLES)
SKELETON = closed([[a, b, c] for a in "01234" for b in "01234" for c in "01234" if a < b < c])
RP2_FIN = closed([*RP2_TRIANGLES, ["0", "1", "6"]])
TRIANGLE_POINT = {"coords": {"0": "1/7", "1": "2/7", "2": "4/7"}}
BARYCENTER = {"coords": {"0": "1/3", "1": "1/3", "2": "1/3"}}
# the edge mapped around the circle at stage 1: a -> 0, b{a,b} -> 1, b -> 2
AROUND = {"source": {"vertices": ["a", "b"], "simplices": [["a"], ["b"], ["a", "b"]]},
          "target": {"vertices": ["0", "1", "2"],
                     "simplices": [["0"], ["1"], ["2"], ["0", "1"], ["0", "2"], ["1", "2"]]},
          "stage": 1,
          "images": {"a": {"coords": {"0": "1"}}, "b{a,b}": {"coords": {"1": "1"}},
                     "b": {"coords": {"2": "1"}}}}
EDGE = {"vertices": ["a", "b"], "simplices": [["a"], ["b"], ["a", "b"]]}


def point_decode(depth):
    """A thread of this many entries over the point, and its decoding: each stage's one vertex."""
    thread = {"entries": ["v"] * depth}
    return thread, {"chain": [["v"]] * depth, "representative": {"coords": {"v": "1"}},
                    "err_sq_bound": "0"}


DEEP_1000, DEEP_1000_DECODED = point_decode(1000)
DEEP_300, DEEP_300_DECODED = point_decode(300)
NATURALITY_REPORT = [{
    "checks": [{"detail": "100 sampled points", "name": "identity-naturality", "status": "pass"},
               {"detail": "", "name": "identity-level-maps-order-preserving", "status": "pass"},
               {"detail": "100 sampled points", "name": "constant-naturality", "status": "pass"},
               {"detail": "", "name": "constant-level-maps-order-preserving", "status": "pass"}],
    "depth": 3, "passed": True, "seed": 0, "suite": "naturality"}]
AROUND_REPORT = {
    "n": 3,
    "verification": {"carrier_homotopy": True, "samples": 17, "simplicial": True},
    "vertex_map": {"a": "0", "b": "2", "b{a,b{a,b{a,b}}}": "0", "b{a,b{a,b}}": "0",
                   "b{a,b}": "1", "b{b,b{a,b}}": "1", "b{b,b{b,b{a,b}}}": "2",
                   "b{b{a,b{a,b}},b{a,b}}": "1", "b{b{a,b},b{b,b{a,b}}}": "1"}}


ENCODE_EDGE = ("tower", "encode", "fixtures/edge.json", "--point", "point.json", "--depth", "2")
APPROX = ("approx", "--map", "map.json")

ROWS = [
    # outputs that no golden file covers; a poset's up-sets and Hasse diagram
    # are derived from its down-sets on first read
    row("build", "tower", "build", "fixtures/tetra-boundary.json", "--depth", "2"),
    row("subdivide", "complex", "subdivide", "fixtures/tetra-boundary.json", "--stage", "2"),
    row("order-complex", "poset", "order-complex", "poset.json", files={"poset.json": POSET}),
    row("core", "poset", "core", "poset.json", files={"poset.json": POSET}),
    row("dot", "poset", "dot", "poset.json", files={"poset.json": POSET}),
    row("face-poset", "poset", "face-poset", "fixtures/triangle.json"),
    row("atoms", "tower", "build", "atoms.json", "--depth", "2", files={"atoms.json": ATOMS}),
    row("short", "tower", "build", "short.json", "--depth", "1", files={"short.json": SHORT}),
    row("short-clash", "tower", "build", "short.json", "--depth", "2", files={"short.json": SHORT},
        code=1, stderr="error: stage vertex label 'b{a,b{a,b}}' names both {b{a,b{a,b}}}"
                       " and {a,b{a,b}}\n"),
    row("rp2-homology", "homology", "rp2.json", files={"rp2.json": RP2},
        json={"betti": [1, 0, 0], "torsion": [[], [2], []]}),
    row("skeleton-homology", "homology", "skeleton.json", files={"skeleton.json": SKELETON},
        json={"betti": [1, 0, 4], "torsion": [[], [], []]}),
    row("rp2-fin-homology", "homology", "rp2-fin.json", files={"rp2-fin.json": RP2_FIN},
        json={"betti": [1, 0, 0], "torsion": [[], [2], []]}),
    # the thread codec on the triangle at depth 3, each command reading the last one's output
    row("encode", "tower", "encode", "fixtures/triangle.json", "--point", "point.json",
        "--depth", "3", files={"point.json": TRIANGLE_POINT}),
    row("decode", "tower", "decode", "fixtures/triangle.json", "--thread", "thread.json",
        files={"thread.json": StdoutOf("encode")}),
    row("validate", "tower", "validate", "fixtures/triangle.json", "--thread", "thread.json",
        files={"thread.json": StdoutOf("encode")}),
    row("complex-validate", "complex", "validate", "fixtures/circle.json"),
    row("separate", "tower", "separate", "fixtures/triangle.json", "--p", "point.json",
        "--q", "barycenter.json", "--depth", "3",
        files={"point.json": TRIANGLE_POINT, "barycenter.json": BARYCENTER}, json={"stage": 2}),
    row("approx", "approx", "--map", "around.json", files={"around.json": AROUND},
        json=AROUND_REPORT),
    # point threads: each stage's one vertex keeps its base id and name, so no
    # read goes below its own stage, and the embeddings are filled without recursion
    row("deep", "tower", "decode", "fixtures/point.json", "--thread", "deep.json", "--allow-deep",
        files={"deep.json": DEEP_1000}, json=DEEP_1000_DECODED),
    row("deep-300", "tower", "decode", "fixtures/point.json", "--thread", "deep.json",
        "--allow-deep", files={"deep.json": DEEP_300}, json=DEEP_300_DECODED),
    # the naturality suite at depth 3 builds and checks three-level morphisms,
    # which no golden file reaches
    row("naturality", "tower", "verify", "fixtures/tetra-boundary.json", "--suite", "naturality",
        "--depth", "3", json=NATURALITY_REPORT),
    # an incoherent thread: validate reports it and decode names the bond that misses
    row("incoherent-validate", "tower", "validate", "fixtures/triangle.json", "--thread",
        "incoherent.json", files={"incoherent.json": {"entries": ["0", "b{0,b{0,1}}"]}},
        code=1, json={"coherent": False}),
    row("incoherent-decode", "tower", "decode", "fixtures/triangle.json", "--thread",
        "incoherent.json", files={"incoherent.json": {"entries": ["0", "b{0,b{0,1}}"]}},
        code=1, stderr="error: level 2 entry 'b{0,b{0,1}}' bonds to 'b{0,1}', not '0'\n"),
    # malformed input: one error line naming what is wrong
    row("bad-json", "complex", "validate", "bad.json", files={"bad.json": "{not json"},
        code=1, needle="bad.json"),
    row("missing-file", "homology", "absent.json", code=1, needle="absent.json"),
    *(row(f"bad-coordinate-{value}", "tower", "encode", "fixtures/edge.json",
          "--point", "p.json", "--depth", "1",
          files={"p.json": {"coords": {"a": value, "b": "1"}}}, code=1, needle=repr(value))
      for value in ["1/0", "half", float("inf")]),
    row("verify-empty-complex", "tower", "verify", "empty.json", "--depth", "1",
        files={"empty.json": {"vertices": [], "simplices": []}}, code=1, needle="empty complex"),
    row("decode-list-thread", "tower", "decode", "fixtures/edge.json", "--thread", "thread.json",
        files={"thread.json": ["a"]}, code=1, needle="['a']"),
    row("validate-list-thread", "tower", "validate", "fixtures/edge.json", "--thread",
        "thread.json", files={"thread.json": ["a"]}, code=1, needle="['a']"),
    row("number-entry", "tower", "validate", "fixtures/edge.json", "--thread", "thread.json",
        files={"thread.json": {"entries": ["a", 7]}}, code=1, needle="7"),
    row("list-poset", "poset", "core", "poset.json", files={"poset.json": ["a"]},
        code=1, needle="list"),
    row("long-leq-pair", "poset", "core", "poset.json",
        files={"poset.json": {"elements": ["a", "b"], "leq": [["a", "b", "c"]]}},
        code=1, needle="['a', 'b', 'c']"),
    row("number-leq", "poset", "core", "poset.json",
        files={"poset.json": {"elements": [], "leq": 5}},
        code=1, needle="poset leq must be an array of pairs, not 5"),
    row("list-map", *APPROX, files={"map.json": ["a"]}, code=1, needle="list"),
    row("map-without-source", *APPROX, files={"map.json": {"target": EDGE}},
        code=1, needle="'source'"),
    *(row(name, *APPROX, files={"map.json": {"source": EDGE, "target": EDGE, key: value}},
          code=1, needle=needle)
      for name, key, value, needle in [
          ("map-stage-x", "stage", "x", "'x'"),
          ("map-images-list", "images", [], "[]"),
          ("map-stage-float", "stage", 1.5, "not 1.5"),
          ("map-stage-bool", "stage", True, "not True"),
          ("map-stage-string", "stage", "1", "not '1'"),
      ]),
    row("point-bool", *ENCODE_EDGE, files={"point.json": {"coords": {"a": True}}},
        code=1, needle="coordinate True at 'a' is not a rational number"),
    row("point-bool-pair", *ENCODE_EDGE, files={"point.json": {"coords": {"a": True, "b": False}}},
        code=1, needle="coordinate True at 'a'"),
    row("map-image-point-bool", *APPROX,
        files={"map.json": {"source": EDGE, "target": EDGE,
                            "images": {"a": {"coords": {"a": True}}, "b": {"coords": {"b": 1}}}}},
        code=1, needle="coordinate True at 'a'"),
    # a vertex named like the barycenter of the edge {a,b}
    row("stage-label-collision", "complex", "subdivide", "clash.json", "--stage", "1",
        files={"clash.json": CLASH}, code=1, needle="'b{a,b}'"),
    row("level-label-collision-build", "tower", "build", "clash.json", "--depth", "1",
        files={"clash.json": CLASH}, code=1, needle="'b{a,b}' names both {b{a,b}} and {a,b}"),
    row("level-label-collision-verify-level-oracle", "tower", "verify", "clash.json",
        "--suite", "level-oracle", "--depth", "1", files={"clash.json": CLASH},
        code=1, needle="'b{a,b}' names both {b{a,b}} and {a,b}"),
    *(row(f"negative-stage-{name}", "complex", "subdivide", "fixtures/edge.json",
          "--stage", "-1", *flags,
          code=1, needle="--stage must be a non-negative integer, not -1")
      for name, flags in [("guarded", ()), ("allow-deep", ("--allow-deep",))]),
]
ROW = {r.name: r for r in ROWS}


def run(rows, workdir: pathlib.Path) -> list:
    """Run the rows in order in ``workdir``: each row with its exit code, stdout and stderr.

    An exception that escapes ``main`` ends its row as it ends the console
    script: its traceback on stderr and exit code 1.
    """
    shutil.copytree(FIXTURES, workdir / "fixtures", dirs_exist_ok=True)
    results, stdout = [], {}
    home = os.getcwd()
    os.chdir(workdir)
    try:
        for r in rows:
            for path, content in r.files.items():
                if isinstance(content, StdoutOf):
                    content = stdout[content.row]
                elif not isinstance(content, str):
                    content = json.dumps(content)
                pathlib.Path(path).write_text(content, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli_main(list(r.argv))
                except SystemExit as exc:
                    code = exc.code
                except Exception:
                    traceback.print_exc()
                    code = 1
            stdout[r.name] = out.getvalue()
            results.append((r, code, out.getvalue(), err.getvalue()))
    finally:
        os.chdir(home)
    return results


def problems(r: Row, code, out: str, err: str) -> list:
    """How this result differs from the row's expectations and the stderr rule.

    Each problem is named by its row and command line.
    """
    found = []
    if code != r.code:
        found.append(f"exit code {code}, not {r.code}")
    if err and (code == 0 or not err.startswith("error: ") or "Traceback" in err):
        found.append(f"stderr is not one error: message: {err!r}")
    if r.stderr is not None and err != r.stderr:
        found.append(f"stderr {err!r}, not {r.stderr!r}")
    if r.needle is not None and r.needle not in err:
        found.append(f"stderr {err!r} lacks {r.needle!r}")
    if r.json is not UNSET:
        try:
            got = json.loads(out)
        except json.JSONDecodeError:
            got = UNSET
        if got != r.json:
            found.append(f"stdout {out[:200]!r} is not the expected JSON")
    return [f"{r.name} ({' '.join(r.argv)}): {problem}" for problem in found]


def failures(rows, workdir: pathlib.Path) -> list:
    """Each problem of each of these rows, run in ``workdir``."""
    return [problem for r, *result in run(rows, workdir) for problem in problems(r, *result)]


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for r, code, out, err in run(ROWS, pathlib.Path(tmp)):
            digest = hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()
            print(r.name, digest[:16])
            failed += problems(r, code, out, err)
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
