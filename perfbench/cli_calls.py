"""cli-calls: short in-process `steintorus.cli.main(argv)` calls.

Argument parsing, JSON, wire validation and output do the work here, one
object at a time: the opposite use of the face layers from intertwiner.
Every round makes the same calls, in an order drawn from the seed:

* 50 `product` and 50 `act` calls, five of each at every one of A3..A8 and
  C2..C5, on faces and necklaces drawn from the seed;
* 13 `enumerate --count` calls at rank <= 4 (A) or <= 3 (C), four of them
  with a colour filter drawn from the seed;
* 9 `descent-table` calls at A2..A4 and C2..C4, four with `--affine`;
* 32 calls with malformed input drawn from the seed: truncated JSON, a
  list where an object belongs, a face missing or repeating an element, a
  necklace with a wrong label, a type C necklace whose zero block lacks 0;
* 8 calls with ill-typed wire fields, the same in every round.  These raise
  a TypeError out of `cli.main` and count as failed until that is mended.

stdout and stderr are captured inside the timed call.  Checks: `product` and
`act` output equals the benchmark's own intersection product and necklace
refinement; counts equal closed forms (Fubini numbers, parabolic orders,
torus faces counted by affine descents); descent tables equal the
benchmark's own; malformed input exits 1 or 2 with empty stdout and one
line on stderr.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random

import reference as ref
from harness import Op

NAME = "cli-calls"
PRODUCT_RANKS = [("A", n) for n in range(3, 9)] + [("C", n) for n in range(2, 6)]
QUICK_RANKS = [("A", 3), ("C", 2)]
PER_RANK = 5
# Calls slower than the parse-bound bulk (enumerations at A4 and C3, tables
# at rank 3 and 4) are kept to about one in twenty, so that the 90th
# percentile falls inside the bulk and not on the edge between the two.
COUNTS = [("A", 2, "faces", False), ("A", 3, "faces", False), ("A", 3, "torus", False),
          ("A", 3, "group", False), ("C", 2, "faces", False), ("C", 2, "torus", False),
          ("C", 2, "group", False), ("A", 4, "torus", False), ("C", 3, "torus", False),
          ("A", 3, "faces", True), ("A", 3, "torus", True), ("C", 2, "faces", True),
          ("C", 2, "torus", True)]
TABLES = [("A", 2, False), ("A", 2, True), ("A", 3, False), ("A", 3, True), ("C", 2, False),
          ("C", 2, True), ("A", 4, False), ("C", 3, False), ("C", 4, True)]
# A kind ending in -A or -C is drawn at that family only.
MALFORMED_KINDS = ("truncated-product", "truncated-act", "not-object", "missing-element-A",
                   "missing-element-C", "repeated-element", "wrong-label-A", "zero-block-C")
MALFORMED_EACH = 4
UNIT_A3 = '{"blocks":[[1,2,3]]}'
UNIT_C2 = '{"blocks":[[-2,-1,0,1,2]]}'
# Ill-typed wire fields: inputs that do not depend on the seed.
ILL_TYPED = [
    ["product", "--family", "A", "--rank", "3", "--left", '{"blocks":5}', "--right", UNIT_A3],
    ["product", "--family", "C", "--rank", "2", "--left", '{"blocks":5}', "--right", UNIT_C2],
    ["product", "--family", "A", "--rank", "3", "--left", '{"blocks":null}', "--right", UNIT_A3],
    ["product", "--family", "C", "--rank", "2", "--left", '{"blocks":null}', "--right", UNIT_C2],
    ["product", "--family", "A", "--rank", "3", "--left", UNIT_A3,
     "--right", '{"blocks":[[1,"a"],[2,3]]}'],
    ["product", "--family", "C", "--rank", "2", "--left", '{"blocks":[[1,"a"],[2,3]]}',
     "--right", UNIT_C2],
    ["act", "--family", "A", "--rank", "3",
     "--torus", '{"blocks":[[1],[2],[3]],"labels":[1,"x",3]}', "--face", UNIT_A3],
    ["act", "--family", "C", "--rank", "2",
     "--torus", '{"zero_block":[0],"clockwise":5,"antipodal":null}', "--face", UNIT_C2],
]


# ---------------------------------------------------------------------------
# random inputs


def _cut(rng, items, min_blocks=1):
    """An ordered set partition of `items` (in the given order), blocks sorted."""
    while True:
        blocks, current = [], []
        for i, x in enumerate(items):
            current.append(x)
            if i == len(items) - 1 or rng.random() < 0.5:
                blocks.append(sorted(current))
                current = []
        if len(blocks) >= min_blocks:
            return blocks


def _signed_rest(rng, n, exclude):
    rest = [x for x in range(1, n + 1) if x not in exclude]
    rng.shuffle(rest)
    return [x * rng.choice((-1, 1)) for x in rest]


def _self_negating(absolute, with_zero):
    return sorted({x for a in absolute for x in (a, -a)} | ({0} if with_zero else set()))


def face(rng, tag, n):
    """Wire form of a random face: blocks, or full symmetric blocks for type C."""
    if tag == "A":
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        return _cut(rng, perm)
    zero = [x for x in range(1, n + 1) if rng.random() < 0.25]
    right = _cut(rng, _signed_rest(rng, n, zero)) if len(zero) < n else []
    mirror = [sorted(-x for x in b) for b in reversed(right)]
    return mirror + [_self_negating(zero, True)] + right


def necklace(rng, tag, n, min_blocks=1):
    """Wire form of a random torus face, type A in a random rotation."""
    if tag == "A":
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        blocks = _cut(rng, perm, min_blocks)
        offset = rng.randrange(n)
        labels, total = [], 0
        for b in blocks:
            total += len(b)
            labels.append((offset + total - 1) % n + 1)
        r = rng.randrange(len(blocks))
        return {"blocks": blocks[r:] + blocks[:r], "labels": labels[r:] + labels[:r]}
    zero = [x for x in range(1, n + 1) if rng.random() < 0.25]
    anti = [x for x in range(1, n + 1) if x not in zero and rng.random() < 0.25]
    rest = _signed_rest(rng, n, zero + anti)
    return {
        "zero_block": _self_negating(zero, True),
        "clockwise": _cut(rng, rest) if rest else [],
        "antipodal": _self_negating(anti, False) if anti else None,
    }


def _dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


def _common(tag, n):
    return ["--family", tag, "--rank", str(n)]


# ---------------------------------------------------------------------------
# references


def product_reference(left, right):
    return {"blocks": ref.tits(left, right)}


def act_reference(tag, n, neck, g):
    if tag == "A":
        blocks, labels = ref.refine_spin(neck["blocks"], neck["labels"], g, n)
        return {"blocks": blocks, "labels": labels}
    return ref.refine_sym(neck["zero_block"], neck["clockwise"], neck["antipodal"], g)


def count_reference(tag, n, obj, colour):
    if obj == "group":
        return ref.group_order(tag, n)
    if colour is None:
        return ref.count_faces(tag, n) if obj == "faces" else ref.count_torus_faces(tag, n)
    if obj == "faces":
        return ref.x_size(tag, n, colour)
    return ref.xt_sizes(tag, n)[colour]


def table_reference(tag, n, affine):
    rows = []
    for w, des, ades in ref.descent_classes(tag, n):
        row = {"w": list(w), "descents": sorted(des)}
        if affine:
            row["affine_descents"] = sorted(ades)
        rows.append(row)
    return {"family": tag, "rank": n, "affine": affine, "rows": rows}


# ---------------------------------------------------------------------------
# the plan


def _malformed(rng, kind, ranks):
    family = kind.rsplit("-", 1)[-1]
    tag, n = rng.choice([r for r in ranks if family not in ("A", "C") or r[0] == family])
    if kind == "truncated-product":
        return ["product", *_common(tag, n), "--left", _dumps({"blocks": face(rng, tag, n)})[:-1],
                "--right", _dumps({"blocks": face(rng, tag, n)})]
    if kind == "truncated-act":
        return ["act", *_common(tag, n), "--torus", _dumps(necklace(rng, tag, n))[:-1],
                "--face", _dumps({"blocks": face(rng, tag, n)})]
    if kind == "not-object":
        return ["product", *_common(tag, n), "--left", _dumps(face(rng, tag, n)),
                "--right", _dumps({"blocks": face(rng, tag, n)})]
    if kind.startswith("missing-element"):
        blocks = face(rng, tag, n)
        b = rng.randrange(len(blocks))
        blocks[b] = blocks[b][1:]
        return ["product", *_common(tag, n), "--left", _dumps({"blocks": face(rng, tag, n)}),
                "--right", _dumps({"blocks": blocks})]
    if kind == "repeated-element":
        blocks = face(rng, tag, n)
        blocks[-1] = sorted(blocks[-1] + [blocks[0][0]])
        return ["act", *_common(tag, n), "--torus", _dumps(necklace(rng, tag, n)),
                "--face", _dumps({"blocks": blocks})]
    if kind == "wrong-label-A":
        # A one-block necklace is valid under every label, so take two or more.
        neck = necklace(rng, tag, n, min_blocks=2)
        p = rng.randrange(len(neck["labels"]))
        neck["labels"][p] = neck["labels"][p] % n + 1
        return ["act", *_common(tag, n), "--torus", _dumps(neck),
                "--face", _dumps({"blocks": face(rng, tag, n)})]
    if kind == "zero-block-C":
        neck = necklace(rng, tag, n)
        neck["zero_block"] = [x for x in neck["zero_block"] if x != 0]
        return ["act", *_common(tag, n), "--torus", _dumps(neck),
                "--face", _dumps({"blocks": face(rng, tag, n)})]
    raise ValueError(kind)


def plan(seed, quick=False):
    rng = random.Random(seed)
    ranks = QUICK_RANKS if quick else PRODUCT_RANKS
    per_rank = 1 if quick else PER_RANK
    calls = []
    for tag, n in ranks:
        for _ in range(per_rank):
            left, right = face(rng, tag, n), face(rng, tag, n)
            calls.append(("product", ["product", *_common(tag, n), "--left",
                                      _dumps({"blocks": left}), "--right",
                                      _dumps({"blocks": right})],
                          product_reference(left, right)))
            neck, g = necklace(rng, tag, n), face(rng, tag, n)
            calls.append(("act", ["act", *_common(tag, n), "--torus", _dumps(neck),
                                  "--face", _dumps({"blocks": g})],
                          act_reference(tag, n, neck, g)))
    for tag, n, obj, with_colour in COUNTS:
        if quick and n > 3:
            continue
        argv = ["enumerate", *_common(tag, n), "--object", obj, "--count"]
        colour = None
        if with_colour:
            if obj == "faces":
                colour = frozenset(x for x in ref.finite_indices(tag, n) if rng.random() < 0.5)
            else:
                colour = frozenset()
                while not colour:
                    colour = frozenset(x for x in ref.affine_indices(tag, n)
                                       if rng.random() < 0.5)
            argv += ["--color", _dumps(sorted(colour))]
        calls.append(("count", argv, count_reference(tag, n, obj, colour)))
    for tag, n, affine in TABLES:
        if quick and n > 3:
            continue
        argv = ["descent-table", *_common(tag, n)] + (["--affine"] if affine else [])
        calls.append(("descent-table", argv, table_reference(tag, n, affine)))
    for kind in MALFORMED_KINDS:
        for _ in range(1 if quick else MALFORMED_EACH):
            calls.append(("malformed " + kind, _malformed(rng, kind, ranks), None))
    calls += [("ill-typed", argv, None) for argv in ILL_TYPED]
    rng.shuffle(calls)
    return calls


# ---------------------------------------------------------------------------
# running and checking


def load():
    return {"cli": importlib.import_module("steintorus.cli")}


def prepare(mods, plan):
    """Nothing to build: every call parses its arguments afresh."""
    return mods


def check(kind, expected, out):
    code, stdout, stderr = out
    if kind.startswith("malformed") or kind == "ill-typed":
        if code not in (1, 2):
            return f"exit {code} on malformed input"
        if stdout or stderr.count("\n") != 1 or not stderr.endswith("\n"):
            return "malformed input must print one stderr line and nothing on stdout"
        return None
    if code != 0 or stderr:
        return f"exit {code}: {stderr.strip()[:120]}"
    try:
        got = int(stdout) if kind == "count" else json.loads(stdout)
    except ValueError:
        return "unreadable output"
    if got != expected:
        return "output differs from the reference"
    return None


def make_ops(plan, ctx):
    cli = ctx["cli"]
    ops = []
    for kind, argv, expected in plan:
        def call(argv=argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            return code, out.getvalue(), err.getvalue()

        ops.append(Op(f"{kind} {' '.join(argv[1:5])}", call,
                      lambda out, k=kind, e=expected: check(k, e, out)))
    return ops
