"""Every row of the CLI table passes under two hash seeds, with equal digests."""

from cli_table import ROWS
from conftest import ROOT, run_python


def test_every_row_passes_with_equal_digests_under_two_seeds():
    runs = [run_python(str(ROOT / "tests" / "cli_table.py"), PYTHONHASHSEED=seed)
            for seed in ("1", "4242")]
    for run in runs:
        assert (run.returncode, run.stderr) == (0, ""), run.stderr
    assert runs[0].stdout == runs[1].stdout
    assert [line.split()[0] for line in runs[0].stdout.splitlines()] == [r.name for r in ROWS]
