"""structure-constants: entries of the solomon and module suites.

Each op computes x_I * x_J (solomon) or x_I * x~_J (module) with
`basis_element` and `multiply`, expands it with `express_in_basis` and
re-evaluates the expansion with `evaluate_expansion`, at A6 and C4.  The
group-ring convolution and the |W|^2 multiplication table do nearly all the
work; the face layers sit idle.

The cost of an entry grows with |x_I|*|x_J|, over five orders of magnitude.
So that latency quantiles do not hinge on a few draws, the entries of each
(suite, family) are sorted by that product and cut into equal strata, and the
seed draws one entry from each stratum.

Checks, from `reference` alone: the product's coefficients sum to
|x_I|*|x_J|; a type A solomon expansion equals Solomon's Mackey formula; any
other expansion has nonzero integer coefficients (positive in the solomon
suite) on legal index sets, whose mass sum_K c_K*|x_K| equals |x_I|*|x_J|;
the re-evaluated expansion equals the product.
"""

from __future__ import annotations

import importlib
import random

import reference as ref
from harness import Op, stratified

NAME = "structure-constants"
FAMILIES = (("A", 6), ("C", 4))
QUICK_FAMILIES = (("A", 3), ("C", 2))
# Entries per round for each (suite, family tag); the populations are
# 1024, 2016, 256 and 496 entries at A6 and C4.
PER_ROUND = {("solomon", "A"): 120, ("module", "A"): 200,
             ("solomon", "C"): 60, ("module", "C"): 100}
QUICK_PER_ROUND = 6


def _size_of(tag, n, kind):
    if kind == "x":
        return lambda K: ref.x_size(tag, n, K)
    return ref.xt_sizes(tag, n).__getitem__


def plan(seed, quick=False):
    rng = random.Random(seed)
    entries = []
    for tag, n in QUICK_FAMILIES if quick else FAMILIES:
        for suite, kind in (("solomon", "x"), ("module", "xt")):
            x_size = _size_of(tag, n, "x")
            right_size = _size_of(tag, n, kind)
            rights = (ref.subsets(ref.finite_indices(tag, n)) if kind == "x"
                      else ref.subsets(ref.affine_indices(tag, n), nonempty=True))
            rows = sorted(
                ((x_size(I) * right_size(J), sorted(I), sorted(J), I, J)
                 for I in ref.subsets(ref.finite_indices(tag, n))
                 for J in rights),
                key=lambda row: row[:3],
            )
            count = QUICK_PER_ROUND if quick else PER_ROUND[(suite, tag)]
            for mass, _, _, I, J in stratified(rows, count, rng):
                entries.append({
                    "suite": suite, "kind": kind, "tag": tag, "n": n, "I": I, "J": J,
                    "mass": mass,
                    "sizes": right_size,
                    "universe": frozenset(ref.finite_indices(tag, n) if kind == "x"
                                          else ref.affine_indices(tag, n)),
                    "mackey": ref.mackey(I, J, n) if (suite, tag) == ("solomon", "A") else None,
                })
    rng.shuffle(entries)
    return entries


def load():
    return {
        "weyl": importlib.import_module("steintorus.weyl"),
        "da": importlib.import_module("steintorus.descent_algebra"),
    }


def prepare(mods, plan):
    """Group data and multiplication table of every family in the plan."""
    da, weyl = mods["da"], mods["weyl"]
    families = {}
    for e in plan:
        key = (e["tag"], e["n"])
        if key not in families:
            fam = families[key] = weyl.Family(*key)
            unit = da.basis_element("x", (), fam)
            da.multiply(unit, unit)
    return {"da": da, "families": families}


def check(entry, out):
    product, expansion, evaluated = out
    coeffs = [c for _, c in product.coeffs]
    if any(c <= 0 for c in coeffs) or sum(coeffs) != entry["mass"]:
        return f"product mass {sum(coeffs)} != {entry['mass']}"
    if entry["mackey"] is not None:
        if dict(expansion) != entry["mackey"]:
            return "expansion differs from the Mackey formula"
    else:
        # x is a basis, so Solomon's structure constants are nonnegative.  The
        # x~ family only spans (y~ of the full affine set is empty), and the
        # module expansion returned is one of several; its signs are free.
        lowest = 1 if entry["suite"] == "solomon" else None
        for K, c in expansion.items():
            if not isinstance(c, int) or c == 0 or (lowest and c < lowest):
                return f"coefficient {c!r} of {sorted(K)} is not allowed"
            if not K <= entry["universe"] or (entry["kind"] == "xt" and not K):
                return f"index set {sorted(K)} outside {sorted(entry['universe'])}"
        size = entry["sizes"]
        mass = sum(c * size(frozenset(K)) for K, c in expansion.items())
        if mass != entry["mass"]:
            return f"expansion mass {mass} != {entry['mass']}"
    if evaluated != product:
        return "re-evaluated expansion differs from the product"
    return None


def make_ops(plan, ctx):
    da = ctx["da"]
    ops = []
    for e in plan:
        fam = ctx["families"][(e["tag"], e["n"])]

        def call(e=e, fam=fam):
            product = da.multiply(da.basis_element("x", e["I"], fam),
                                  da.basis_element(e["kind"], e["J"], fam))
            expansion = da.express_in_basis(product, e["kind"])
            return product, expansion, da.evaluate_expansion(expansion, e["kind"], fam)

        label = f"{e['suite']} {e['tag']}{e['n']} I={sorted(e['I'])} J={sorted(e['J'])}"
        ops.append(Op(label, call, lambda out, e=e: check(e, out)))
    return ops
