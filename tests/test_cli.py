import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as hst

import steintorus
from steintorus import cli, coxfaces, descent_algebra, weyl
from steintorus.cli import main
from steintorus.errors import UsageError
from steintorus.weyl import Family

UNIT_A3 = '{"blocks":[[1,2,3]]}'
UNIT_C2 = '{"blocks":[[-2,-1,0,1,2]]}'


@contextlib.contextmanager
def top_level_only():
    """main with its direct route off: every argv goes through the top-level
    parser, which hands a subcommand's arguments to that subcommand's parser.
    The direct reader `cli._direct` is off too, as main tries it only on the
    direct route, so every call is answered by argparse alone."""
    parser = cli.build_parser()
    commands, parser.commands = parser.commands, {}
    try:
        yield
    finally:
        parser.commands = commands


def run(capsys, *argv):
    """(exit code, stdout, stderr) of main(argv); each is the same with the
    direct route to the subcommand's own parser off."""
    result = main(list(argv)), *capsys.readouterr()
    with top_level_only():
        assert (main(list(argv)), *capsys.readouterr()) == result
    return result


def test_enumerate_counts(capsys):
    for obj, expected in (("faces", "13"), ("torus", "18"), ("group", "6")):
        code, out, _ = run(
            capsys, "enumerate", "--family", "A", "--rank", "3",
            "--object", obj, "--count",
        )
        assert code == 0
        assert out.strip() == expected


def test_enumerate_items_revalidate(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--family", "C", "--rank", "2", "--object", "torus",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 24 and len(payload["items"]) == 24
    from steintorus import torusfaces as tf
    from steintorus.weyl import Family

    faces = [tf.from_wire(Family("C", 2), item) for item in payload["items"]]
    assert len(set(faces)) == 24


def test_enumerate_deterministic(capsys):
    args = ("enumerate", "--family", "A", "--rank", "3", "--object", "faces")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# Without --color the count is a closed form and the items a walk, so both
# the listing's count and --count are held to the number of items listed.
@pytest.mark.parametrize("family,rank", [("A", n) for n in range(2, 6)]
                         + [("C", n) for n in range(1, 4)])
@pytest.mark.parametrize("obj,coloured", [("faces", False), ("torus", False), ("group", False),
                                          ("faces", True), ("torus", True)],
                         ids=["faces", "torus", "group", "faces-coloured", "torus-coloured"])
def test_enumerate_count_matches_full_output(capsys, family, rank, obj, coloured):
    args = ("enumerate", "--family", family, "--rank", str(rank), "--object", obj)
    if coloured:  # the group takes no colour
        args += ("--color", "[1]" if family == "A" else "[0]")
    code, full, _ = run(capsys, *args)
    assert code == 0
    payload = json.loads(full)
    assert payload["count"] == len(payload["items"]) > 0
    code, count, _ = run(capsys, *args, "--count")
    assert code == 0
    assert count == f"{len(payload['items'])}\n"


# The walk is watched: by the time it hands over its k-th item, the k items
# before it are already on stdout, so no listing is held before it is written.
@pytest.mark.parametrize("argv, module, walk, length", [
    (("enumerate", "--family", "A", "--rank", "5", "--object", "faces"),
     coxfaces, "enumerate_faces", 541),
    (("descent-table", "--family", "A", "--rank", "5"), weyl, "enumerate_group", 120),
], ids=["enumerate", "descent-table"])
def test_listings_write_each_item_before_the_next_is_walked(monkeypatch, argv, module,
                                                           walk, length):
    out, real, written = io.StringIO(), getattr(module, walk), []

    def watched(*args):
        for x in real(*args):
            written.append(out.getvalue().count("\n    {"))
            yield x

    monkeypatch.setattr(module, walk, watched)
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    assert written == list(range(length))
    assert out.getvalue().count("\n    {") == length


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_leaks_nothing(capsys):
    """In one process, every call prints what it printed the first time it
    ran, whichever calls ran in between."""
    fam = ("--family", "C", "--rank", "2")
    table = ("descent-table", *fam)
    faces = ("enumerate", *fam, "--object", "faces")
    counts = ("verify", *fam, "--suite", "counts")
    bad = ("descent-table", "--family", "Z", "--rank", "2")
    sequence = [
        (*table, "--affine"), table,
        (*faces, "--color", "[1]", "--count"), (*faces, "--count"),
        (*counts, "--seed", "5"), counts,
        table, bad, (*table, "--affine"),
        ("verify", "--help"), table,
    ]
    first = {}
    # The second pass runs each call after the one that followed it before.
    for argv in sequence + sequence:
        result = run(capsys, *argv)
        assert first.setdefault(argv, result) == result
    code, out, err = first[table]
    payload = json.loads(out)
    assert code == 0 and payload["affine"] is False
    assert not any("affine_descents" in row for row in payload["rows"])
    assert first[(*faces, "--color", "[1]", "--count")][1] == "4\n"
    assert first[(*faces, "--count")][1] == "17\n"
    code, out, err = first[bad]
    assert code == 2 and out == "" and err.count("\n") == 1
    code, out, err = first[("verify", "--help")]
    assert code == 0 and out.startswith("usage: steintorus verify")
    # The subparsers' defaults are the ones they were built with.
    parse = cli.build_parser().parse_args
    assert parse(list(table)).affine is False
    assert parse(list(faces)).color is None and parse(list(faces)).count is False
    assert parse(list(counts)).seed == 0


@pytest.mark.parametrize("argv, code", [
    ((), 2),
    (("--help",), 0),
    (("frobnicate", "--family", "A", "--rank", "3"), 2),
    (("--family", "A", "verify", "--rank", "3", "--suite", "counts"), 2),
    (("verify", "--family", "A", "--rank", "3", "--suite", "counts", "--bogus", "x"), 2),
    (("verify", "--family", "A", "--rank", "3"), 2),
    (("verify", "--family", "A", "--rank", "3", "--suite", "counts", "--", "x"), 2),
    (("verify", "--help"), 0),
    (("descent-table", "--family", "A", "--rank", "6", "--affine"), 0),
    (("enumerate", "--family", "A", "--rank", "6", "--object", "faces"), 0),
], ids=["none", "help", "unknown", "option-first", "unrecognized", "missing", "dashes",
        "verify-help", "table", "faces"])
def test_subcommand_parser_answers_as_the_top_level_parser(capsys, argv, code):
    """No subcommand, an unknown one, unrecognized and missing arguments: the
    exit code, stdout and stderr match the top-level parser's (run checks)."""
    assert run(capsys, *argv)[0] == code


def test_subcommand_parser_gives_the_top_level_namespace():
    """A subcommand's own parser names the subcommand, as the top-level one does."""
    parser = cli.build_parser()
    for argv in (["verify", "--family", "C", "--rank", "2", "--suite", "psi"],
                 ["enumerate", "--family", "A", "--rank", "3", "--object", "torus"],
                 ["product", "--family", "A", "--rank", "3", f"--left={UNIT_A3}",
                  "--right", UNIT_A3]):
        args = parser.commands[argv[0]].parse_args(argv[1:])
        assert args == parser.parse_args(argv) and args.subcommand == argv[0]


# Each flag's values, None for a switch: well-formed ones, and empty ones,
# ones with a leading space, non-ASCII digits, ones outside the choices and
# ones starting with '-'.
_INTS = ["3", "0", "12", "-1", " 3", "\u0663", "", "x", "3.0"]
_TEXTS = ["[1]", UNIT_A3, "", " -x", "-x", "-1e+16", "@/nonexistent/input.json", "\u00e9"]
_FLAG_VALUES = {
    "--family": ["A", "C", "Z", "a", ""], "--rank": _INTS, "--seed": _INTS,
    "--object": ["faces", "torus", "group", "face", ""], "--kind": ["solomon", "module", "lrb"],
    "--suite": ["all", "psi", "counts", "bogus"], "--color": _TEXTS, "--left": _TEXTS,
    "--right": _TEXTS, "--torus": _TEXTS, "--face": _TEXTS, "--count": None, "--affine": None,
}
_COMMAND_FLAGS = {
    "enumerate": ["--object", "--color", "--count"], "product": ["--left", "--right"],
    "act": ["--torus", "--face"], "descent-table": ["--affine"], "mult-table": ["--kind"],
    "verify": ["--seed", "--suite"],
}


@hst.composite
def _spelled_out(draw):
    """(subcommand, the rest of argv): its flags in any order, each value a
    token of its own, a flag left out one time in ten or repeated, and now and
    then a help flag, an abbreviation, '--' or another stray token anywhere."""
    sub = draw(hst.sampled_from(sorted(_COMMAND_FLAGS)))
    flags = ["--family", "--rank", *_COMMAND_FLAGS[sub]]
    chosen = [f for f in flags if draw(hst.integers(0, 9))]
    chosen += draw(hst.lists(hst.sampled_from(flags), max_size=2))
    rest = []
    for flag in draw(hst.permutations(chosen)):
        values = _FLAG_VALUES[flag]
        rest += [flag] if values is None else [flag, draw(hst.sampled_from(values))]
    if draw(hst.integers(0, 3)) == 0:
        rest.insert(draw(hst.integers(0, len(rest))), draw(hst.sampled_from(
            ["-h", "--help", "--fam", "--", "x", "--rank=3", "-", "--bogus"])))
    return sub, rest


@settings(max_examples=400, deadline=None)
@given(_spelled_out())
@example(("verify", ["--family", "Z", "--rank", "3", "--suite", "psi"]))
@example(("verify", ["--family", "A", "--rank", "3"]))
@example(("product", ["--family", "A", "--rank", "3", "--left", "-x", "--right", UNIT_A3]))
@example(("descent-table", ["--rank", "3", "--family", "A", "--affine", "--rank", "2"]))
@example(("descent-table", ["--family", "A", "--rank", "3", "--help"]))
def test_direct_reader_equals_argparse(case):
    """Wherever the direct reader gives a namespace, the subcommand's parser
    gives the same one; wherever that parser refuses the call (exit 2) or
    prints the help, the reader gives None."""
    sub, rest = case
    own = cli.build_parser().commands[sub]
    direct = cli._direct(own, list(rest))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            parsed = own.parse_args(list(rest))
    except (UsageError, SystemExit):
        parsed = None
    assert direct is None or direct == parsed


def _calls(tag, face, other, necklace):
    fam = ("--family", tag, "--rank", "3" if tag == "A" else "2")
    return [
        ("product", *fam, "--left", face, "--right", other),
        ("act", *fam, "--torus", necklace, "--face", other),
        ("enumerate", *fam, "--object", "torus", "--count"),
        ("enumerate", *fam, "--object", "faces", "--count", "--color", "[1]"),
        ("descent-table", *fam), ("descent-table", *fam, "--affine"),
        ("verify", *fam, "--suite", "counts", "--seed", "3"),
        ("mult-table", *fam, "--kind", "module"),
    ]


class _Reached(Exception):
    pass


def test_well_formed_calls_skip_argparse(monkeypatch, capsys):
    """Every call kind of the cli-calls benchmark, and verify and mult-table,
    spelled out at A3 and C2, prints what argparse's answer prints without
    argparse parsing a word; help, --flag=value and abbreviations reach it."""
    calls = (_calls("A", UNIT_A3, '{"blocks":[[2],[1,3]]}',
                    '{"blocks":[[1,3],[2]],"labels":[2,3]}')
             + _calls("C", '{"blocks":[[-2],[-1,0,1],[2]]}', '{"blocks":[[-1],[-2,0,2],[1]]}',
                      '{"zero_block":[0],"clockwise":[[1],[-2]],"antipodal":null}'))
    expected = {}
    with top_level_only():
        for argv in calls:
            expected[argv] = main(list(argv)), capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    for argv in calls:
        assert (main(list(argv)), capsys.readouterr().out) == expected[argv]
        assert expected[argv][0] == 0
    for argv in (["verify", "--help"],
                 ["verify", "--family", "A", "--rank=3", "--suite", "counts"],
                 ["verify", "--fam", "A", "--rank", "3", "--suite", "counts"]):
        with pytest.raises(_Reached):
            main(argv)


# The table (about 160 kB) and the faces (about 970 kB) outgrow the pipe
# buffer, so a write in the middle of the output meets the closed pipe; the
# count still sits in stdout's buffer when the read end closes, so only the
# flush meets the pipe.
@pytest.mark.parametrize("argv,read", [
    (["descent-table", "--family", "A", "--rank", "6", "--affine"], 1),
    (["enumerate", "--family", "A", "--rank", "6", "--object", "faces"], 1),
    (["enumerate", "--family", "A", "--rank", "3", "--object", "faces", "--count"], 0),
], ids=["table", "faces", "count"])
def test_closed_stdout_pipe_exits_one_without_traceback(argv, read):
    src = os.path.dirname(os.path.dirname(steintorus.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "steintorus.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env,
    )
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.count("\n") == 1


def test_product(capsys):
    code, out, _ = run(
        capsys, "product", "--family", "A", "--rank", "7",
        "--left", '{"blocks":[[3,5,6,7],[4],[1,2]]}',
        "--right", '{"blocks":[[2,6],[3,5],[1,7],[4]]}',
    )
    assert code == 0
    assert json.loads(out) == {
        "blocks": [[6], [3, 5], [7], [4], [2], [1]]
    }


def test_product_with_unit_echoes(capsys):
    code, out, _ = run(
        capsys, "product", "--family", "A", "--rank", "3",
        "--left", '{"blocks":[[1,2,3]]}',
        "--right", '{"blocks":[[2],[1,3]]}',
    )
    assert code == 0
    assert json.loads(out) == {"blocks": [[2], [1, 3]]}


def test_act(capsys):
    code, out, _ = run(
        capsys, "act", "--family", "A", "--rank", "6",
        "--torus", '{"blocks":[[2],[4,6],[1,3,5]],"labels":[2,4,1]}',
        "--face", '{"blocks":[[2,5,6],[1,3],[4]]}',
    )
    assert code == 0
    assert json.loads(out) == {
        "blocks": [[1, 3], [2], [6], [4], [5]],
        "labels": [1, 2, 3, 4, 5],
    }


def test_act_from_file(tmp_path, capsys):
    face = tmp_path / "face.json"
    face.write_text('{"blocks":[[1,2,3]]}')
    code, out, _ = run(
        capsys, "act", "--family", "A", "--rank", "3",
        "--torus", '{"blocks":[[1,3],[2]],"labels":[2,3]}',
        "--face", f"@{face}",
    )
    assert code == 0
    assert json.loads(out) == {"blocks": [[1, 3], [2]], "labels": [2, 3]}


def test_descent_table(capsys):
    code, out, _ = run(
        capsys, "descent-table", "--family", "A", "--rank", "3", "--affine",
    )
    assert code == 0
    payload = json.loads(out)
    rows = {tuple(r["w"]): r["affine_descents"] for r in payload["rows"]}
    assert rows[(1, 2, 3)] == [3]
    assert rows[(2, 3, 1)] == [2]
    assert rows[(3, 2, 1)] == [1, 2]
    assert len(rows) == 6


def test_descent_table_c2_nonempty_affine(capsys):
    code, out, _ = run(
        capsys, "descent-table", "--family", "C", "--rank", "2", "--affine",
    )
    payload = json.loads(out)
    assert len(payload["rows"]) == 8
    assert all(r["affine_descents"] for r in payload["rows"])


@pytest.mark.parametrize("tag, rank", [("A", n) for n in range(2, 7)]
                         + [("C", n) for n in range(1, 5)])
def test_descent_table_rows_are_the_descent_sets(capsys, tag, rank):
    code, out, _ = run(capsys, "descent-table", "--family", tag, "--rank", str(rank),
                       "--affine")
    assert code == 0
    group = list(weyl.enumerate_group(Family(tag, rank)))
    assert json.loads(out)["rows"] == [
        {"w": list(w.values), "descents": weyl.descent_set(w).sorted(),
         "affine_descents": weyl.affine_descent_set(w).sorted()} for w in group]


def test_mult_table(capsys):
    code, out, _ = run(
        capsys, "mult-table", "--family", "A", "--rank", "3",
        "--kind", "module",
    )
    assert code == 0
    payload = json.loads(out)
    entry = next(
        e for e in payload["entries"] if e["I"] == [2] and e["J"] == [1, 2]
    )
    assert entry["coeffs"] == {"[1,2]": 1, "[1,2,3]": 1}


def test_verify_exit_zero(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "C", "--rank", "2", "--suite", "psi",
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_all_reports(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "A", "--rank", "3", "--suite", "all",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["reports"]) >= 6


def test_parse_error_exit_two(capsys):
    code, _, err = run(
        capsys, "product", "--family", "A", "--rank", "3",
        "--left", "notjson", "--right", '{"blocks":[[1,2,3]]}',
    )
    assert code == 2
    assert "parse error" in err


# Nested too deep for the decoder, and an integer past Python's digit limit.
@pytest.mark.parametrize("text", ["[" * 100000, "[" + "1" * 5000 + "]"],
                         ids=["deep", "long-int"])
def test_unparseable_json_exit_two(capsys, text):
    code, out, err = run(
        capsys, "product", "--family", "A", "--rank", "3",
        "--left", text, "--right", UNIT_A3,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("parse error") and err.count("\n") == 1


def test_validation_error_exit_one(capsys):
    code, _, err = run(
        capsys, "product", "--family", "A", "--rank", "3",
        "--left", '{"blocks":[[1,2]]}', "--right", '{"blocks":[[1,2,3]]}',
    )
    assert code == 1
    assert "validation error" in err


def test_budget_exit_three(capsys, monkeypatch):
    monkeypatch.setenv("STEINTORUS_BUDGET", "10")
    code, _, err = run(
        capsys, "enumerate", "--family", "A", "--rank", "4",
        "--object", "faces", "--count",
    )
    assert code == 3
    assert "budget" in err


def test_usage_error_exit_two(capsys):
    # A bad choice, a missing flag, a JSON value that argparse takes for an
    # option, and messages quoting a newline: one stderr line, exit 2.
    for argv in (
        ("enumerate", "--family", "Z", "--rank", "3", "--object", "faces"),
        ("enumerate", "--family", "A", "--rank", "3"),
        ("product", "--family", "A", "--rank", "3", "--left", UNIT_A3,
         "--right", "-1e+16"),
        ("enumerate", "--family", "A", "--rank", "3", "--object", "faces", "a\nb"),
        ("product", "--family", "A", "--rank", "3", "--left", "@no\nfile",
         "--right", UNIT_A3),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("parse error") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("product", "--family", "A", "--rank", "3",
     "--left", '{"blocks":5}', "--right", UNIT_A3),
    ("product", "--family", "C", "--rank", "2",
     "--left", '{"blocks":5}', "--right", UNIT_C2),
    ("product", "--family", "A", "--rank", "3",
     "--left", '{"blocks":null}', "--right", UNIT_A3),
    ("product", "--family", "C", "--rank", "2",
     "--left", '{"blocks":null}', "--right", UNIT_C2),
    ("product", "--family", "A", "--rank", "3",
     "--left", UNIT_A3, "--right", '{"blocks":[[1,"a"],[2,3]]}'),
    ("product", "--family", "C", "--rank", "2",
     "--left", '{"blocks":[[1,"a"],[2,3]]}', "--right", UNIT_C2),
    ("act", "--family", "A", "--rank", "3",
     "--torus", '{"blocks":[[1],[2],[3]],"labels":[1,"x",3]}', "--face", UNIT_A3),
    ("act", "--family", "C", "--rank", "2",
     "--torus", '{"zero_block":[0],"clockwise":5,"antipodal":null}',
     "--face", UNIT_C2),
    # bools and floats are not integers, though Python compares them equal
    ("product", "--family", "A", "--rank", "3",
     "--left", '{"blocks":[[true],[2,3]]}', "--right", UNIT_A3),
    ("product", "--family", "A", "--rank", "3",
     "--left", '{"blocks":[[1.0],[2,3]]}', "--right", UNIT_A3),
    ("act", "--family", "A", "--rank", "3",
     "--torus", '{"blocks":[[1],[2],[3]],"labels":[1,2,3.0]}', "--face", UNIT_A3),
    ("act", "--family", "C", "--rank", "2",
     "--torus", '{"zero_block":[0],"clockwise":[[1]],"antipodal":[-2,true]}',
     "--face", UNIT_C2),
])
def test_ill_typed_wire_fields_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("validation error") and err.count("\n") == 1


def test_budget_counts_the_multiplication_table(capsys, monkeypatch):
    # 24 elements fit a budget of 500, their 576 group products do not.
    monkeypatch.setattr(descent_algebra, "_group_cache", {})
    monkeypatch.setenv("STEINTORUS_BUDGET", "500")
    for suite in ("solomon", "module"):
        code, out, err = run(capsys, "verify", "--family", "A", "--rank", "4",
                             "--suite", suite)
        assert code == 3
        assert out == ""
        assert "group products" in err and err.count("\n") == 1


def test_budget_counts_a_cached_multiplication_table(capsys, monkeypatch):
    # The A4 group data and its table are built under the default budget; at
    # a budget of 100 its 576 products are refused as a fresh build would be.
    monkeypatch.setattr(descent_algebra, "_group_cache", {})
    descent_algebra._data(Family("A", 4)).mult
    monkeypatch.setenv("STEINTORUS_BUDGET", "100")
    for suite in ("solomon", "module"):
        code, out, err = run(capsys, "verify", "--family", "A", "--rank", "4",
                             "--suite", suite)
        assert code == 3
        assert out == ""
        assert "group products" in err and err.count("\n") == 1
    assert list(descent_algebra._group_cache) == [Family("A", 4)]


def test_seed_is_a_verify_flag(capsys):
    code, out, err = run(capsys, "enumerate", "--family", "A", "--rank", "3",
                         "--object", "faces", "--seed", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("parse error") and err.count("\n") == 1
    code, _, _ = run(capsys, "verify", "--family", "A", "--rank", "3",
                     "--suite", "lrb", "--seed", "1")
    assert code == 0


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_bad_budget_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("STEINTORUS_BUDGET", value)
    code, out, err = run(
        capsys, "enumerate", "--family", "A", "--rank", "4",
        "--object", "group", "--count",
    )
    assert code == 2
    assert out == ""
    assert "STEINTORUS_BUDGET" in err and err.count("\n") == 1


@pytest.mark.parametrize("obj, color, expected", [
    ("faces", "[3]", 1),  # the affine index, on a finite face
    ("faces", "[2]", 0),
    ("torus", "[]", 1),  # a torus face has a nonempty colour set
    ("torus", "[3]", 0),
    ("faces", "[true]", 2),  # bools and floats are not integers
    ("faces", "[1.0]", 2),
    ("torus", "[1, false]", 2),
])
def test_colour_filter_is_validated(capsys, obj, color, expected):
    code, out, err = run(
        capsys, "enumerate", "--family", "A", "--rank", "3", "--object", obj,
        "--color", color, "--count",
    )
    assert code == expected
    if expected:
        assert out == "" and err.count("\n") == 1
    else:
        assert int(out) > 0


@pytest.mark.parametrize("argv", [
    ("mult-table", "--family", "A", "--rank", "7", "--kind", "module"),
    ("verify", "--family", "A", "--rank", "7", "--suite", "psi"),
    ("mult-table", "--family", "A", "--rank", "7", "--kind", "solomon"),
])
def test_budget_counts_the_face_products(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "face products" in err and err.count("\n") == 1


@pytest.mark.parametrize("kind, rank, expected", [
    ("module", 5, 3), ("module", 4, 0), ("solomon", 5, 3), ("solomon", 4, 0),
], ids=["5-3", "4-0", "solomon-5-3", "solomon-4-0"])
def test_module_table_budget_edge(capsys, monkeypatch, kind, rank, expected):
    # |faces| times the number of left colours: 2^|affine indices| - 1 for
    # the module, 2^|finite indices| for solomon.  At A5, 541 * 31 = 16,771
    # and 541 * 16 = 8,656; at A4, 75 * 15 = 1,125 and 75 * 8 = 600.
    monkeypatch.setenv("STEINTORUS_BUDGET", "5000")
    code, _, _ = run(
        capsys, "mult-table", "--family", "A", "--rank", str(rank), "--kind", kind,
    )
    assert code == expected


@pytest.mark.parametrize("argv", [
    ("--family", "A", "--rank", "9", "--object", "faces", "--color", "[]"),
    ("--family", "C", "--rank", "7", "--object", "torus", "--color", "[0]"),
    ("--family", "A", "--rank", "200000", "--object", "faces", "--color", "[]"),
    ("--family", "A", "--rank", "200000", "--object", "torus", "--color", "[1]"),
    ("--family", "C", "--rank", "200000", "--object", "torus", "--color", "[0]"),
])
def test_a_colour_of_one_face_passes_where_the_family_does_not(capsys, argv):
    """The walks at A9 and C7 were refused for the family's 7,087,261 faces
    and 12,107,008 torus faces; each colour's orbit is a single face.  Its n
    entries take time linear in n: membership in a tuple made it quadratic,
    and the type A torus walk tried n tails."""
    start = time.perf_counter()
    assert run(capsys, "enumerate", *argv, "--count") == (0, "1\n", "")
    assert time.perf_counter() - start < 2.0


def test_type_a_rank_one_is_rejected(capsys):
    code, out, err = run(
        capsys, "verify", "--family", "A", "--rank", "1", "--suite", "all",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("validation error") and err.count("\n") == 1


HUGE = "100000000"


@pytest.mark.parametrize("argv, expected", [
    (("enumerate", "--family", "A", "--rank", HUGE, "--object", "group", "--count"), 3),
    (("enumerate", "--family", "C", "--rank", HUGE, "--object", "faces", "--count"), 3),
    (("enumerate", "--family", "A", "--rank", HUGE, "--object", "torus", "--count"), 3),
    (("enumerate", "--family", "C", "--rank", HUGE, "--object", "torus",
      "--color", "[5]", "--count"), 3),
    (("descent-table", "--family", "C", "--rank", HUGE), 3),
    (("verify", "--family", "A", "--rank", HUGE, "--suite", "psi"), 3),
    (("mult-table", "--family", "A", "--rank", HUGE, "--kind", "solomon"), 3),
    (("enumerate", "--family", "A", "--rank", "600", "--object", "faces", "--count"), 3),
    (("enumerate", "--family", "A", "--rank", "2000", "--object", "group", "--count"), 3),
    (("verify", "--family", "C", "--rank", "7", "--suite", "psi"), 3),
    (("product", "--family", "A", "--rank", HUGE,
      "--left", '{"blocks":[[1]]}', "--right", '{"blocks":[[1]]}'), 1),
    # Every suite's budget is checked before the first suite runs.
    (("verify", "--family", "A", "--rank", "6", "--suite", "all"), 3),
    # The work is checked before the group is built: each group fits the
    # budget, its |W|^2 table or its faces do not.
    (("verify", "--family", "A", "--rank", "9", "--suite", "solomon"), 3),
    (("verify", "--family", "C", "--rank", "7", "--suite", "module"), 3),
    (("mult-table", "--family", "A", "--rank", "9", "--kind", "solomon"), 3),
    (("verify", "--family", "A", "--rank", "9", "--suite", "counts"), 3),
    # The oracle's type rule comes before the budget.
    (("verify", "--family", "C", "--rank", "7", "--suite", "oracle"), 1),
    # An orbit of one face still holds n entries.
    (("enumerate", "--family", "A", "--rank", HUGE, "--object", "faces",
      "--color", "[]", "--count"), 3),
    # At a rank the budget admits, n faces or necklaces of n entries pass it.
    (("enumerate", "--family", "A", "--rank", "1000000", "--object", "faces",
      "--color", "[1]"), 3),
    (("enumerate", "--family", "C", "--rank", "1000000", "--object", "torus",
      "--color", "[1]"), 3),
])
def test_huge_ranks_stop_at_once(capsys, argv, expected):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == expected
    assert out == ""
    assert err.count("\n") == 1


# Fuzzed command lines: every flag name is well formed, so each call reaches
# the program or argparse's error; the values are not.  Values are passed as
# --flag=value or as a separate argument, which argparse takes for an option
# when it starts with "-" (such as -1e+16): a usage error.  The budget stays
# at most a few thousand, so no call that passes it does much work.
_json = hst.recursive(
    hst.none() | hst.booleans() | hst.integers(-5, 10**9)
    | hst.floats(allow_nan=False, allow_infinity=False) | hst.text(max_size=3),
    lambda inner: hst.lists(inner, max_size=4)
    | hst.dictionaries(hst.text(max_size=8), inner, max_size=3),
    max_leaves=10,
)
_small = hst.integers(-4, 9)
_blocks = hst.lists(hst.lists(_small, max_size=4), max_size=5)
_face = hst.one_of(hst.fixed_dictionaries({"blocks": _blocks}), _json)
_necklace = hst.one_of(
    hst.fixed_dictionaries({"blocks": _blocks,
                            "labels": hst.lists(_small, max_size=5)}),
    hst.fixed_dictionaries({"zero_block": hst.lists(_small, max_size=5),
                            "clockwise": _blocks,
                            "antipodal": hst.none() | hst.lists(_small, max_size=4)}),
    _json,
)


def _arg(values):
    return hst.one_of(values.map(json.dumps), hst.just("notjson"),
                      hst.just("@/nonexistent/input.json"))


@hst.composite
def _argv(draw):
    sub = draw(hst.sampled_from(["enumerate", "product", "act", "descent-table",
                                 "mult-table", "verify"]))
    rank = draw(hst.integers(-1, 5) | hst.integers(6, 10**8))
    flags = [("--family", draw(hst.sampled_from("AC"))), ("--rank", str(rank))]
    switches = []
    if sub == "enumerate":
        flags.append(("--object", draw(hst.sampled_from(["faces", "torus", "group"]))))
        if draw(hst.booleans()):
            flags.append(("--color", draw(_arg(hst.lists(_small, max_size=5) | _json))))
        if draw(hst.booleans()):
            switches.append("--count")
    elif sub == "product":
        flags += [("--left", draw(_arg(_face))), ("--right", draw(_arg(_face)))]
    elif sub == "act":
        flags += [("--torus", draw(_arg(_necklace))), ("--face", draw(_arg(_face)))]
    elif sub == "descent-table":
        if draw(hst.booleans()):
            switches.append("--affine")
    elif sub == "mult-table":
        flags.append(("--kind", draw(hst.sampled_from(["solomon", "module"]))))
    else:
        flags.append(("--suite", draw(hst.sampled_from(
            ["all", "solomon", "module", "psi", "oracle", "lrb", "euler", "counts"]))))
        if draw(hst.booleans()):
            flags.append(("--seed", str(draw(hst.integers(-10, 10)))))
    argv = [sub] + switches
    for flag, value in flags:
        argv += [flag + "=" + value] if draw(hst.booleans()) else [flag, value]
    budget = draw(hst.integers(-1, 3000))  # -1 stands for a non-number
    return argv, str(budget) if budget >= 0 else "abc"


@settings(max_examples=150)
@given(_argv())
def test_fuzzed_command_lines(case):
    argv, budget = case
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get("STEINTORUS_BUDGET")
    os.environ["STEINTORUS_BUDGET"] = budget
    top_out, top_err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        with contextlib.redirect_stdout(top_out), contextlib.redirect_stderr(top_err), \
                top_level_only():
            top_code = main(argv)
    finally:
        if saved is None:
            del os.environ["STEINTORUS_BUDGET"]
        else:
            os.environ["STEINTORUS_BUDGET"] = saved
    assert code in (0, 1, 2, 3)
    assert err.getvalue().count("\n") <= 1
    assert "Traceback" not in err.getvalue()
    assert (top_code, top_out.getvalue(), top_err.getvalue()) == (
        code, out.getvalue(), err.getvalue())


# JSON values for the writer: text keys with any character, ints of any
# size with bools mixed in, floats with nan and inf, and lists, tuples and
# dicts that may be empty at any depth.
_json_value = hst.recursive(
    hst.none() | hst.booleans() | hst.integers() | hst.floats() | hst.text(max_size=6)
    | hst.lists(hst.integers() | hst.booleans(), max_size=5),
    lambda inner: hst.lists(inner, max_size=4) | hst.lists(inner, max_size=4).map(tuple)
    | hst.dictionaries(hst.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


# A top-level field may also be given as an iterator, as the listings give
# theirs: each dict's list fields are fed again as iterators, empty or not.
@settings(max_examples=100, deadline=None)
@given(_json_value | hst.dictionaries(hst.text(max_size=6),
                                      _json_value | hst.lists(_json_value, max_size=4),
                                      max_size=4))
@example({"empty": [], "items": [{"a": [1, 2]}, 3], "count": 2})
@example({"rows": [], "tail": [[]]})
def test_output_is_json_dump_with_indent_two(value):
    payloads = [value]
    if isinstance(value, dict):
        payloads.append({k: iter(v) if isinstance(v, list) else v for k, v in value.items()})
    for payload in payloads:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(payload)
        assert out.getvalue() == json.dumps(value, indent=2) + "\n"
