"""Every module of the package, the benchmark and the tests parses as Python 3.10.

``requires-python`` admits 3.10, so syntax new in a later version (such as
``except*``) must not appear even when the suite runs on a later Python.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "poset_tower").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def test_refuses_later_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parses_as_python_310(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
