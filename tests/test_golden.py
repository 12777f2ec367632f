"""Stdout of every subcommand, byte for byte against outputs stored in
`tests/golden/`: `verify --suite all`, both `mult-table` kinds, `enumerate`
of each object with and without a colour, `descent-table` with and without
`--affine`, one `product` and one `act` per family.

The stored files are the stdout of `python -m steintorus.cli` with these
arguments; a change to the output is a change to these files.  `verify
--suite all` at A4 is left out: the acceptance test of criterion 5 runs the
oracle at A4 already.
"""

import pathlib

import pytest

from steintorus import cli, coxfaces, descent_algebra, torusfaces
from steintorus.weyl import Family

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

CASES = [(f"verify_all_{tag}{n}.json",
          ["verify", "--family", tag, "--rank", str(n), "--suite", "all"])
         for tag, n in (("A", 3), ("C", 2), ("C", 3))]
CASES += [(f"mult_table_{kind}_{tag}{n}.json",
           ["mult-table", "--family", tag, "--rank", str(n), "--kind", kind])
          for tag, n in (("A", 3), ("A", 4), ("C", 2), ("C", 3))
          for kind in ("solomon", "module")]
CASES += [(f"enumerate_{obj}{suffix}_{tag}{n}.json",
           ["enumerate", "--family", tag, "--rank", str(n), "--object", obj, *color])
          for tag, n in (("A", 3), ("C", 2))
          for obj, suffix, color in (("faces", "", []), ("torus", "", []), ("group", "", []),
                                     ("faces", "_color1", ["--color", "[1]"]),
                                     ("torus", "_color1", ["--color", "[1]"]))]
CASES += [(f"descent_table{suffix}_{tag}{n}.json",
           ["descent-table", "--family", tag, "--rank", str(n), *affine])
          for tag, n in (("A", 3), ("C", 2))
          for suffix, affine in (("", []), ("_affine", ["--affine"]))]
CASES += [
    ("product_A3.json", ["product", "--family", "A", "--rank", "3",
                         "--left", '{"blocks":[[1,2],[3]]}', "--right", '{"blocks":[[2],[1,3]]}']),
    ("product_C2.json", ["product", "--family", "C", "--rank", "2", "--left",
                         '{"blocks":[[-2],[-1,0,1],[2]]}', "--right", '{"blocks":[[1],[-2,0,2],[-1]]}']),
    ("act_A3.json", ["act", "--family", "A", "--rank", "3", "--torus",
                     '{"blocks":[[1,3],[2]],"labels":[2,3]}', "--face", '{"blocks":[[3],[1,2]]}']),
    ("act_C2.json", ["act", "--family", "C", "--rank", "2", "--torus",
                     '{"zero_block":[0],"clockwise":[[2]],"antipodal":[-1,1]}',
                     "--face", '{"blocks":[[-1],[-2,0,2],[1]]}']),
]


@pytest.mark.parametrize("name, argv", CASES, ids=[name[:-5] for name, _ in CASES])
def test_stdout_matches_golden(name, argv, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


def test_every_golden_file_is_checked():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(name for name, _ in CASES)


def test_orbit_sums_and_tables_read_no_colour(monkeypatch, capsys):
    """Orbit sums walk their own colour's faces: with both color_set
    functions refusing, every orbit sum at A4 and C3 still equals the full
    walk filtered by colour, and both tables still match their golden files."""
    families = [Family("A", 4), Family("C", 3)]
    expected = {}
    for family in families:
        for torus, walk, color_set in ((False, coxfaces.enumerate_faces, coxfaces.color_set),
                                       (True, torusfaces.enumerate_torus_faces,
                                        torusfaces.color_set)):
            for X in walk(family):
                key = (family, torus, frozenset(color_set(X).indices))
                expected.setdefault(key, {})[X] = 1

    def refuse(X):
        raise AssertionError("color_set was called")

    monkeypatch.setattr(coxfaces, "color_set", refuse)
    monkeypatch.setattr(torusfaces, "color_set", refuse)
    for (family, torus, J), faces in expected.items():
        got = descent_algebra.orbit_sum("sigmat" if torus else "sigma", J, family)
        assert got == descent_algebra.FaceSum.from_dict(family, torus, faces), (family, J)
    for name in (f"mult_table_{kind}_{tag}.json" for kind in ("solomon", "module")
                 for tag in ("A4", "C3")):
        assert cli.main(dict(CASES)[name]) == 0
        assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
