"""Fuzz every CLI command that reads a file: any JSON ends in an exit status.

Each command gets free-form JSON values and values close to its format
(complexes, points, threads, posets and PL maps built from labels such as
``b{a,b}``), and ``cli.main`` must return 0 or 1 without an exception
escaping it.  Sizes stay small so every command finishes quickly.
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from poset_tower.cli import main
from poset_tower.complexes import SimplicialComplex
from poset_tower.fixtures import edge, triangle

LABELS = st.sampled_from(
    ["a", "b", "c", "d", "b{a,b}", "b{a,b{a,b}}", "{a,b}", "b{b,c}", "b{", "}", ""])

FREE_FORM = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**20) | st.floats()
    | st.text(max_size=6) | LABELS,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6) | LABELS, children, max_size=4)),
    max_leaves=12)

LABEL_LISTS = st.lists(LABELS | FREE_FORM, max_size=3)


# face-closed complexes pass validation, so the commands get past loading them
CLOSED = st.sampled_from([edge(), triangle()]) | st.lists(
    st.lists(LABELS, min_size=1, max_size=3, unique=True), min_size=1, max_size=3,
).map(SimplicialComplex.from_maximal)

COMPLEXES = CLOSED.map(SimplicialComplex.to_json_obj) | st.fixed_dictionaries(
    {"vertices": LABEL_LISTS, "simplices": st.lists(LABEL_LISTS, max_size=4) | FREE_FORM})

COORDS = st.sampled_from(
    ["1", "1/2", "2/3", "1/3", "0", "-1", "1/0", "x", 1, 0, 0.5, float("inf"),
     float("nan"), True, None, []])

POINTS = st.fixed_dictionaries(
    {"coords": st.dictionaries(LABELS, COORDS, max_size=3) | FREE_FORM})

THREADS = st.fixed_dictionaries({"entries": st.lists(LABELS | FREE_FORM, max_size=3)})

POSETS = st.fixed_dictionaries({
    "elements": LABEL_LISTS,
    "leq": st.lists(st.lists(LABELS, min_size=1, max_size=3) | FREE_FORM, max_size=4),
})

MAPS = st.fixed_dictionaries(
    {"source": COMPLEXES, "target": COMPLEXES},
    optional={
        "stage": st.sampled_from([0, 1, 2, -1, 1.5, True, "1", None, []]),
        "images": st.dictionaries(LABELS, POINTS | FREE_FORM, max_size=4) | FREE_FORM,
    })

FORMATS = {"complex": COMPLEXES, "point": POINTS, "thread": THREADS,
           "poset": POSETS, "map": MAPS}

COMMANDS = [
    ["complex", "validate", "{complex}"],
    ["complex", "subdivide", "{complex}", "--stage", "1"],
    ["poset", "core", "{poset}"],
    ["poset", "order-complex", "{poset}"],
    ["tower", "build", "{complex}", "--depth", "1"],
    ["tower", "encode", "{complex}", "--point", "{point}", "--depth", "1"],
    ["tower", "decode", "{complex}", "--thread", "{thread}"],
    ["tower", "validate", "{complex}", "--thread", "{thread}"],
    ["tower", "verify", "{complex}", "--depth", "1"],
    ["homology", "{complex}"],
    ["approx", "--map", "{map}", "--cap", "2"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: "-".join(
    arg for arg in argv[:2] if not arg.startswith(("{", "-"))))
@given(data=st.data())
@settings(max_examples=60)
def test_no_exception_escapes_main(argv, data):
    kinds = [arg[1:-1] for arg in argv if arg.startswith("{")]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for kind in kinds:
            obj = data.draw(FORMATS[kind] | FREE_FORM, label=kind)
            path = pathlib.Path(tmp) / f"{kind}.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            paths[kind] = str(path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(**paths) for arg in argv])
    assert code in (0, 1)
    # only a failed check, not an error, exits 1 without an error line
    assert code == 0 or err.getvalue().startswith("error: ") or argv[:2] in (
        ["tower", "validate"], ["tower", "verify"])
