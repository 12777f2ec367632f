"""Stdout of `verify --suite all` and of both `mult-table` kinds, byte for
byte against outputs stored in `tests/golden/`.

The stored files are the stdout of `python -m steintorus.cli` with these
arguments; a change to the output is a change to these files.  `verify
--suite all` at A4 is left out: the acceptance test of criterion 5 runs the
oracle at A4 already.
"""

import pathlib

import pytest

from steintorus import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

CASES = [(f"verify_all_{tag}{n}.json",
          ["verify", "--family", tag, "--rank", str(n), "--suite", "all"])
         for tag, n in (("A", 3), ("C", 2), ("C", 3))]
CASES += [(f"mult_table_{kind}_{tag}{n}.json",
           ["mult-table", "--family", tag, "--rank", str(n), "--kind", kind])
          for tag, n in (("A", 3), ("A", 4), ("C", 2), ("C", 3))
          for kind in ("solomon", "module")]


@pytest.mark.parametrize("name, argv", CASES, ids=[name[:-5] for name, _ in CASES])
def test_stdout_matches_golden(name, argv, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


def test_every_golden_file_is_checked():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(name for name, _ in CASES)
