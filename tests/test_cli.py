import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as hst

import steintorus
from steintorus import cli, descent_algebra
from steintorus.cli import main
from steintorus.weyl import Family

UNIT_A3 = '{"blocks":[[1,2,3]]}'
UNIT_C2 = '{"blocks":[[-2,-1,0,1,2]]}'


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


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


@pytest.mark.parametrize("family,rank", [("A", 4), ("C", 3)])
@pytest.mark.parametrize("obj", ["faces", "torus", "group"])
def test_enumerate_count_matches_full_output(capsys, family, rank, obj):
    args = ("enumerate", "--family", family, "--rank", str(rank), "--object", obj)
    _, full, _ = run(capsys, *args)
    code, count, _ = run(capsys, *args, "--count")
    assert code == 0
    assert count == f"{json.loads(full)['count']}\n"


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


# The table (about 160 kB) outgrows the pipe buffer; the count still sits in
# stdout's buffer when the read end closes, so only the flush meets the pipe.
@pytest.mark.parametrize("argv,read", [
    (["descent-table", "--family", "A", "--rank", "6", "--affine"], 1),
    (["enumerate", "--family", "A", "--rank", "3", "--object", "faces", "--count"], 0),
], ids=["table", "count"])
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
    # 24 elements fit a budget of 500, their 576 products do not.
    monkeypatch.setattr(descent_algebra, "_group_cache", {})
    monkeypatch.setenv("STEINTORUS_BUDGET", "500")
    code, out, err = run(
        capsys, "mult-table", "--family", "A", "--rank", "4", "--kind", "solomon",
    )
    assert code == 3
    assert out == ""
    assert "multiplication table" in err and err.count("\n") == 1


def test_budget_counts_a_cached_multiplication_table(capsys, monkeypatch):
    # The A4 table is built under the default budget; at a budget of 100 its
    # 576 entries are refused as a fresh build would be.
    monkeypatch.setattr(descent_algebra, "_group_cache", {})
    descent_algebra._data(Family("A", 4)).mult
    monkeypatch.setenv("STEINTORUS_BUDGET", "100")
    for argv in (("mult-table", "--kind", "solomon"), ("verify", "--suite", "solomon")):
        code, out, err = run(capsys, *argv, "--family", "A", "--rank", "4")
        assert code == 3
        assert out == ""
        assert "multiplication table" in err and err.count("\n") == 1


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
])
def test_budget_counts_the_face_products(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "face products" in err and err.count("\n") == 1


@pytest.mark.parametrize("rank, expected", [(5, 3), (4, 0)])
def test_module_table_budget_edge(capsys, monkeypatch, rank, expected):
    # |faces| * (2^|affine indices| - 1) is 541 * 31 at A5 and 75 * 15 at A4.
    monkeypatch.setenv("STEINTORUS_BUDGET", str(10**4))
    code, _, _ = run(
        capsys, "mult-table", "--family", "A", "--rank", str(rank),
        "--kind", "module",
    )
    assert code == expected


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
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        if saved is None:
            del os.environ["STEINTORUS_BUDGET"]
        else:
            os.environ["STEINTORUS_BUDGET"] = saved
    assert code in (0, 1, 2, 3)
    assert err.getvalue().count("\n") <= 1
    assert "Traceback" not in err.getvalue()
