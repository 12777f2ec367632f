"""intertwiner: instances of the psi identities at A5 and C3.

Each op is `psi(face_sum_product(sigma_J, sigma_K))` (finite side) or
`psi(face_sum_product(sigma~_K, sigma_J))` (module side), on orbit sums
built by `orbit_sum` in set-up.  Tits products, the necklace action,
face-sum canonicalisation and psi's W-invariance test do the work; no
convolution is timed.

An op costs about |sigma_J|*|sigma_K| face products.  As in
structure-constants, the instances of each (side, family) are sorted by that
product and cut into strata of two, and the seed draws one from each.

Check: psi of the product equals x_K*x_J (finite side) or x_J*x~_K (module
side), computed by the benchmark's own permutation arithmetic and descent
sets.
"""

from __future__ import annotations

import importlib
import random

import reference as ref
from harness import Op, stratified

NAME = "intertwiner"
FAMILIES = (("A", 5), ("C", 3))
QUICK_FAMILIES = (("A", 3), ("C", 2))
STRATUM = 2  # instances per stratum; the seed keeps one of each
QUICK_PER_GROUP = 6


def plan(seed, quick=False):
    rng = random.Random(seed)
    entries = []
    for tag, n in QUICK_FAMILIES if quick else FAMILIES:
        finite = ref.subsets(ref.finite_indices(tag, n))
        torus = ref.subsets(ref.affine_indices(tag, n), nonempty=True)
        xt = ref.xt_sizes(tag, n)
        groups = {
            "finite": [(ref.x_size(tag, n, J) * ref.x_size(tag, n, K), sorted(J), sorted(K), J, K)
                       for J in finite for K in finite],
            "module": [(xt[K] * ref.x_size(tag, n, J), sorted(K), sorted(J), K, J)
                       for K in torus for J in finite],
        }
        for side, rows in groups.items():
            rows.sort(key=lambda row: row[:3])
            count = QUICK_PER_GROUP if quick else len(rows) // STRATUM
            for _, _, _, left, right in stratified(rows, count, rng):
                entries.append({"side": side, "tag": tag, "n": n, "left": left, "right": right})
    for e in entries:
        tag, n = e["tag"], e["n"]
        if e["side"] == "finite":  # psi(sigma_J sigma_K) = x_K x_J
            J, K = e["left"], e["right"]
            e["expected"] = ref.ring_product(ref.class_sum(tag, n, K), ref.class_sum(tag, n, J))
        else:  # psi(sigma~_K sigma_J) = x_J x~_K
            K, J = e["left"], e["right"]
            e["expected"] = ref.ring_product(ref.class_sum(tag, n, J),
                                             ref.class_sum(tag, n, K, affine=True))
    rng.shuffle(entries)
    return entries


def load():
    return {
        "weyl": importlib.import_module("steintorus.weyl"),
        "da": importlib.import_module("steintorus.descent_algebra"),
    }


def prepare(mods, plan):
    """Every orbit sum sigma_J and sigma~_K of the plan's families."""
    da, weyl = mods["da"], mods["weyl"]
    sums = {}
    for tag, n in sorted({(e["tag"], e["n"]) for e in plan}):
        fam = weyl.Family(tag, n)
        for J in ref.subsets(ref.finite_indices(tag, n)):
            sums[(tag, n, "sigma", J)] = da.orbit_sum("sigma", J, fam)
        for K in ref.subsets(ref.affine_indices(tag, n), nonempty=True):
            sums[(tag, n, "sigmat", K)] = da.orbit_sum("sigmat", K, fam)
    return {"da": da, "sums": sums}


def check(entry, out):
    got = {w.values: c for w, c in out.coeffs}
    if got != entry["expected"]:
        return "psi of the face-sum product differs from the group-ring product"
    return None


def make_ops(plan, ctx):
    da, sums = ctx["da"], ctx["sums"]
    ops = []
    for e in plan:
        key = (e["tag"], e["n"])
        left_kind = "sigma" if e["side"] == "finite" else "sigmat"
        left = sums[key + (left_kind, e["left"])]
        right = sums[key + ("sigma", e["right"])]

        def call(left=left, right=right):
            return da.psi(da.face_sum_product(left, right))

        label = f"{e['side']} {e['tag']}{e['n']} {sorted(e['left'])}*{sorted(e['right'])}"
        ops.append(Op(label, call, lambda out, e=e: check(e, out)))
    return ops
