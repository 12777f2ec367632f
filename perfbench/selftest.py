"""Self-tests of the benchmark, in a few seconds.

    python3 perfbench/selftest.py

1. The references agree with the program where they overlap exactly
   (Mackey formula and closed-form counts at small rank).
2. Every check accepts the program's real output and rejects a copy with one
   deliberate corruption: a coefficient changed, a block moved, a label
   changed, a count off by one, a malformed call that succeeds.
3. A quick pass runs all three workloads at A3/C2, plain and traced, through
   the same code as `run.py`, and compares the metric names with
   BENCHMARK.json.  The traced counts must repeat exactly.

Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import cli_calls  # noqa: E402
import harness  # noqa: E402
import intertwiner  # noqa: E402
import reference as ref  # noqa: E402
import structure_constants  # noqa: E402

WORKLOADS = (structure_constants, intertwiner, cli_calls)
COUNT_SUFFIXES = (".calls", ".pairs", ".objects", ".kept_ratio")


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def outputs(workload, seed=1):
    """The plan, program modules and (entry, op, output) of a quick round."""
    plan = workload.plan(seed, quick=True)
    ctx = workload.prepare(workload.load(), plan)
    ops = workload.make_ops(plan, ctx)
    results = []
    for entry, op in zip(plan, ops):
        try:
            out = op.call()
        except Exception:
            continue
        expect(op.check(out) is None, f"check rejects a correct output: {op.kind}")
        results.append((entry, op, out))
    return ctx, results


def test_references_match_program():
    da = structure_constants.load()["da"]
    weyl = structure_constants.load()["weyl"]
    for n in (3, 4, 5):
        fam = weyl.Family("A", n)
        for I in ref.subsets(ref.finite_indices("A", n)):
            for J in ref.subsets(ref.finite_indices("A", n)):
                product = da.multiply(da.basis_element("x", I, fam), da.basis_element("x", J, fam))
                expect(dict(da.express_in_basis(product, "x")) == ref.mackey(I, J, n),
                       f"Mackey formula disagrees at A{n}, I={sorted(I)}, J={sorted(J)}")
    from steintorus import coxfaces, torusfaces
    for tag, n in (("A", 3), ("A", 4), ("C", 2), ("C", 3)):
        fam = weyl.Family(tag, n)
        expect(coxfaces.count_faces(fam) == ref.count_faces(tag, n), f"face count {tag}{n}")
        expect(torusfaces.count_torus_faces(fam) == ref.count_torus_faces(tag, n),
               f"torus face count {tag}{n}")
        for K in ref.subsets(ref.finite_indices(tag, n)):
            expect(ref.x_size(tag, n, K) == len(ref.class_sum(tag, n, K)),
                   f"parabolic order disagrees with the descent count at {tag}{n}")


def test_structure_constants_checks():
    ctx, results = outputs(structure_constants)
    GroupRingElement = type(results[0][2][0])
    seen = set()
    for entry, op, (product, expansion, evaluated) in results:
        seen.add((entry["suite"], entry["tag"]))
        K = next(iter(expansion))
        changed = dict(expansion)
        changed[K] += 1
        expect(structure_constants.check(entry, (product, changed, evaluated)),
               f"a changed coefficient passes: {op.kind}")
        coeffs = product.as_dict()
        w = next(iter(coeffs))
        coeffs[w] += 1
        bad = GroupRingElement.from_dict(product.family, coeffs)
        expect(structure_constants.check(entry, (bad, expansion, evaluated)),
               f"a changed product passes: {op.kind}")
    expect(len(seen) == 4, "the quick plan covers both suites in both families")


def test_intertwiner_checks():
    ctx, results = outputs(intertwiner)
    GroupRingElement = type(results[0][2])
    for entry, op, out in results:
        coeffs = out.as_dict()
        w = next(iter(coeffs))
        coeffs[w] += 1
        bad = GroupRingElement.from_dict(out.family, coeffs)
        expect(intertwiner.check(entry, bad), f"a changed coefficient passes: {op.kind}")


def _corrupt_cli(kind, stdout):
    if kind == "count":
        return str(int(stdout) + 1) + "\n"
    data = json.loads(stdout)
    if kind == "descent-table":
        row = data["rows"][-1]
        row["descents"] = row["descents"][1:] if row["descents"] else [1]
    elif kind == "act" and "labels" in data and len(data["labels"]) > 1:
        data["labels"][0], data["labels"][-1] = data["labels"][-1], data["labels"][0]
    else:
        key = "blocks" if "blocks" in data else "clockwise"
        blocks = data[key]
        if len(blocks) > 1:
            blocks.append(blocks.pop(0))  # move one block
        elif key == "clockwise" and blocks:
            data["clockwise"], data["antipodal"] = [], blocks[0]
        else:
            return None  # a one-block face has no block to move
    return json.dumps(data)


def test_cli_checks():
    ctx, results = outputs(cli_calls)
    corrupted = 0
    for (kind, argv, expected), op, (code, stdout, stderr) in results:
        if kind.startswith("malformed"):
            expect(cli_calls.check(kind, expected, (0, "", stderr)), "a malformed call may not exit 0")
            expect(cli_calls.check(kind, expected, (code, "", stderr * 2)),
                   "a malformed call prints one stderr line")
            continue
        bad = _corrupt_cli(kind, stdout)
        if bad is None:
            continue
        corrupted += 1
        expect(cli_calls.check(kind, expected, (code, bad, stderr)),
               f"a corrupted output passes: {op.kind}")
    expect(corrupted >= 10, "enough outputs were corrupted")


def test_quick_pass():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    out_dir = os.path.join(HERE, "out")
    for workload in WORKLOADS:
        plan = workload.plan(7, quick=True)
        plain = harness.run(workload, plan, 7, 0, False, out_dir)
        expected_failed = len(cli_calls.ILL_TYPED) if workload is cli_calls else 0
        expect(plain["correct"], f"{workload.NAME}: quick pass incorrect")
        expect(plain["failed"] == expected_failed, f"{workload.NAME}: failed {plain['failed']}")
        expect(set(plain["metrics"]) == end_to_end, f"{workload.NAME}: end-to-end metric names")
        counts = []
        for _ in range(2):
            harness.purge_program()
            traced = harness.run(workload, plan, 7, 0, True, out_dir)
            expect(traced["correct"], f"{workload.NAME}: traced quick pass incorrect")
            expect(set(traced["metrics"]) == per_layer, f"{workload.NAME}: per-layer metric names")
            counts.append({k: v["value"] for k, v in traced["metrics"].items()
                           if k.endswith(COUNT_SUFFIXES)})
        expect(counts[0] == counts[1], f"{workload.NAME}: traced counts differ between runs")
        harness.purge_program()


def main():
    tests = [test_references_match_program, test_structure_constants_checks,
             test_intertwiner_checks, test_cli_checks, test_quick_pass]
    for test in tests:
        harness.purge_program()
        try:
            test()
        except AssertionError as exc:
            print(f"FAIL {test.__name__}: {exc}")
            return 1
        print(f"ok   {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
