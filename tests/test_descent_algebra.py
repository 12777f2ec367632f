import itertools
import json
import math
import pathlib
import random
import re
from collections import Counter
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from steintorus.errors import (
    BudgetExceededError,
    FamilyMismatchError,
    NotInSpanError,
    ValidationError,
)
from steintorus.weyl import (
    ColorSet,
    Family,
    WeylElement,
    affine_descent_set,
    descent_set,
    enumerate_group,
    identity,
    inverse,
)
from steintorus import affine_oracle as ao
from steintorus import coxfaces as cf
from steintorus import descent_algebra as da
from steintorus import torusfaces as tf
from steintorus.cli import main

A3 = Family("A", 3)
C2 = Family("C", 2)
A4 = Family("A", 4)
C3 = Family("C", 3)


def test_basis_element_supports():
    # x_J sums the elements whose descent set is contained in J
    x = da.basis_element("x", [2], A3)
    assert {w.values for w, c in x.coeffs} == {(1, 2, 3), (1, 3, 2), (2, 3, 1)}
    assert all(c == 1 for _, c in x.coeffs)
    y = da.basis_element("y", [2], A3)
    assert {w.values for w, c in y.coeffs} == {(1, 3, 2), (2, 3, 1)}


@pytest.mark.parametrize("fam", [Family("A", n) for n in range(2, 6)]
                         + [Family("C", n) for n in range(1, 5)], ids=lambda f: f"{f.tag}{f.rank}")
def test_basis_element_matches_its_one_term_expansion(fam):
    """Each basis element, built from its own index set's masks, equals the
    one-term expansion, which runs the subset transform, for every legal J."""
    for kind in ("x", "y", "xt", "yt"):
        universe = fam.finite_indices() if kind in ("x", "y") else fam.affine_indices()
        for J in da._subsets(universe, nonempty=kind in ("xt", "yt")):
            if kind != "yt" or len(J) < len(universe):
                assert da.basis_element(kind, J, fam) == da.evaluate_expansion({J: 1}, kind, fam)


def test_basis_index_validation():
    with pytest.raises(ValidationError):
        da.basis_element("x", [3], A3)  # affine index not allowed for x
    with pytest.raises(ValidationError):
        da.basis_element("xt", [], A3)
    with pytest.raises(ValidationError):
        da.basis_element("yt", [1, 2, 3], A3)  # the full affine class is empty
    # 1.0 and True once meant the index 1, and a bare int raised a TypeError
    for bad in ([1.0], [True], [1, True], 5):
        with pytest.raises(ValidationError):
            da.basis_element("x", bad, A3)
    # ... but the full x~ sum is legal (it is the sum of all group elements)
    full = da.basis_element("xt", [1, 2, 3], A3)
    assert len(full.coeffs) == 6


def test_x_is_sum_of_y_over_subsets():
    for fam in (A3, C2):
        universe = sorted(fam.finite_indices())
        for r in range(len(universe) + 1):
            for J in itertools.combinations(universe, r):
                total = da.GroupRingElement.from_dict(fam, {})
                for s in range(len(J) + 1):
                    for I in itertools.combinations(J, s):
                        total = total + da.basis_element("y", I, fam)
                assert total == da.basis_element("x", J, fam)


def test_finite_class_splits_into_two_affine_classes():
    for fam in (A3, C2):
        n = fam.affine_index
        universe = sorted(fam.finite_indices())
        for r in range(len(universe) + 1):
            for J in itertools.combinations(universe, r):
                lhs = da.basis_element("y", J, fam)
                parts = da.GroupRingElement.from_dict(fam, {})
                affine = set(fam.affine_indices())
                for K in (set(J), set(J) | {n}):
                    # the empty and the full affine class are empty sums
                    if K and K != affine:
                        parts = parts + da.basis_element("yt", K, fam)
                assert lhs == parts


@pytest.mark.parametrize("fam", [Family("A", r) for r in range(2, 7)]
                         + [Family("C", r) for r in range(1, 5)],
                         ids=lambda fam: f"{fam.tag}{fam.rank}")
def test_each_element_keeps_its_descent_mask_and_its_class_first(fam):
    data = da._data(fam)
    for kind, descents, universe in (("x", descent_set, fam.finite_indices()),
                                     ("y", descent_set, fam.finite_indices()),
                                     ("xt", affine_descent_set, fam.affine_indices()),
                                     ("yt", affine_descent_set, fam.affine_indices())):
        masks = [sum(1 << (i - universe.start) for i in descents(w).indices)
                 for w in data.elements]
        assert data.mask_of[kind] == masks
        assert data.first_of[kind] == [masks.index(m) for m in masks]


@pytest.mark.parametrize("fam, counts", [(Family("A", 4), 33), (Family("C", 3), 33)],
                         ids=["A4", "C3"])
def test_suites_read_descent_classes_off_the_group_data(monkeypatch, fam, counts):
    """Once the group data is built, the solomon, module and counts suites
    recompute no descent set; they once did for every element and inverse."""
    def refuse(w):
        raise AssertionError("a descent set was recomputed")

    da._data(fam)
    monkeypatch.setattr(da, "descent_set", refuse)
    monkeypatch.setattr(da, "affine_descent_set", refuse)
    for suite, checks in (("solomon", 64), ("module", 120), ("counts", counts)):
        assert da.verify(suite, fam) == {"suite": suite, "family": fam.tag, "rank": fam.rank,
                                         "checks": checks, "failures": [], "pass": True}


def test_ring_identity():
    e = da.GroupRingElement.from_dict(A3, {identity(A3): 1})
    x = da.basis_element("x", [1, 2], A3)
    assert da.multiply(e, x) == x == da.multiply(x, e)


def test_express_in_basis_roundtrip():
    for I in (frozenset(), frozenset({1}), frozenset({1, 2})):
        for J in (frozenset({2}), frozenset({1, 2})):
            p = da.multiply(
                da.basis_element("x", I, A3), da.basis_element("x", J, A3)
            )
            exp = da.express_in_basis(p, "x")
            assert da.evaluate_expansion(exp, "x", A3) == p


def test_express_in_basis_witness():
    lone = da.GroupRingElement.from_dict(
        A3, {WeylElement(A3, (2, 1, 3)): 1}
    )
    with pytest.raises(NotInSpanError) as exc:
        da.express_in_basis(lone, "x")
    u, v = exc.value.witness
    assert descent_set(u).indices == descent_set(v).indices


def test_worked_rank_three_identity():
    # x_{2} * x~_{1,2} = x~_{1,2} + x~_{1,2,3}
    lhs = da.multiply(
        da.basis_element("x", [2], A3), da.basis_element("xt", [1, 2], A3)
    )
    rhs = da.basis_element("xt", [1, 2], A3) + da.basis_element(
        "xt", [1, 2, 3], A3
    )
    assert lhs == rhs


def test_orbit_sums_and_psi():
    s = da.orbit_sum("sigma", [2], A3)
    assert da.psi(s) == da.basis_element("x", [2], A3)
    st = da.orbit_sum("sigmat", [1, 2], A3)
    assert da.psi(st) == da.basis_element("xt", [1, 2], A3)
    with pytest.raises(ValidationError):
        da.orbit_sum("sigmat", [], A3)
    for bad in ([1.0], [True], 5):  # both lists once meant the colour {1}
        with pytest.raises(ValidationError):
            da.orbit_sum("sigma", bad, A3)


def test_psi_rejects_non_invariant_sums():
    from steintorus import coxfaces as cf

    F = cf.SetComposition(A3, ((1,), (2, 3)))
    s = da.FaceSum.from_dict(A3, False, {F: 1})
    with pytest.raises(ValidationError):
        da.psi(s)


def test_psi_reverses_products():
    for J in (frozenset({1}), frozenset({1, 2})):
        for K in (frozenset({2}), frozenset()):
            sJ = da.orbit_sum("sigma", J, A3)
            sK = da.orbit_sum("sigma", K, A3)
            lhs = da.psi(da.face_sum_product(sJ, sK))
            rhs = da.multiply(
                da.basis_element("x", K, A3), da.basis_element("x", J, A3)
            )
            assert lhs == rhs


def test_face_side_module_identity():
    # sigma~_{1,2} * sigma_{2} = sigma~_{1,2} + sigma~_{1,2,3}
    lhs = da.face_sum_product(
        da.orbit_sum("sigmat", [1, 2], A3), da.orbit_sum("sigma", [2], A3)
    )
    rhs = da.orbit_sum("sigmat", [1, 2], A3) + da.orbit_sum(
        "sigmat", [1, 2, 3], A3
    )
    assert lhs == rhs


def test_module_table_entry():
    table = da.module_table(A3)
    assert table["kind"] == "module"
    entry = next(
        e for e in table["entries"] if e["I"] == [2] and e["J"] == [1, 2]
    )
    assert entry["coeffs"] == {"[1,2]": 1, "[1,2,3]": 1}
    for e in table["entries"]:
        if e["I"] == []:
            key = "[" + ",".join(map(str, e["J"])) + "]"
            assert e["coeffs"] == {key: 1}


def test_solomon_table_against_convolution():
    table = da.solomon_table(A3)
    for e in table["entries"]:
        lhs = da.multiply(
            da.basis_element("x", e["I"], A3),
            da.basis_element("x", e["J"], A3),
        )
        rhs = da.GroupRingElement.from_dict(A3, {})
        import json

        for key, c in e["coeffs"].items():
            term = da.basis_element("x", json.loads(key), A3)
            rhs = rhs + da.GroupRingElement.from_dict(
                A3, {w: c * k for w, k in term.coeffs}
            )
        assert lhs == rhs


def test_descent_table_rank_three():
    # the full affine descent table of the six permutations
    expected = {
        (1, 2, 3): [3],
        (2, 1, 3): [1, 3],
        (1, 3, 2): [2, 3],
        (2, 3, 1): [2],
        (3, 1, 2): [1],
        (3, 2, 1): [1, 2],
    }
    got = {
        w.values: affine_descent_set(w).sorted() for w in enumerate_group(A3)
    }
    assert got == expected


@pytest.mark.parametrize("suite", ["solomon", "module", "psi", "lrb",
                                   "euler", "counts"])
@pytest.mark.parametrize("fam", [A3, C2], ids=["A3", "C2"])
def test_suites_pass(suite, fam):
    report = da.verify(suite, fam)
    assert report["pass"], report["failures"][:3]
    assert report["checks"] > 0


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("fam", [Family("A", 4), Family("C", 3)], ids=["A4", "C3"])
def test_product_suites_store_no_table(monkeypatch, fam):
    """The solomon and module suites once read every product off the stored
    |W|^2 table through multiply, express_in_basis and evaluate_expansion."""
    def refuse(*args):
        raise AssertionError("the table or the ring route was used")

    # One check per entry (I, J).  A4 and C3 both have 3 finite and 4 affine
    # indices, so the stored C3 counts hold for both.
    golden = {r["suite"]: r["checks"] for r in json.loads(
        (GOLDEN / "verify_all_C3.json").read_text())["reports"]}
    checks = {"solomon": 2 ** 3 * 2 ** 3, "module": 2 ** 3 * (2 ** 4 - 1)}
    assert checks == {suite: golden[suite] for suite in checks}
    monkeypatch.setattr(da, "_group_cache", {})
    monkeypatch.setattr(da._GroupData, "mult", property(refuse))
    for name in ("multiply", "express_in_basis", "evaluate_expansion"):
        monkeypatch.setattr(da, name, refuse)
    for suite, expected in checks.items():
        report = da.verify(suite, fam)
        assert report["pass"] and report["checks"] == expected


def _compose(w, v):
    """w v in one-line notation: x goes to w(v(x))."""
    return WeylElement(w.family, tuple(w(x) for x in v.values))


def _signless_inverse(u):
    """A type C inverse that drops the signs; type A is unaffected."""
    out = [0] * u.family.rank
    for i in range(1, u.family.rank + 1):
        out[abs(u(i)) - 1] = i
    return WeylElement(u.family, tuple(out))


def _histogram_failures(fam, kind, compose, invert):
    """The failures due from the solomon ('x') or module ('xt') suite, in
    group order: each element whose histogram of (Des(w v), D(v^-1)) over all
    v, counted on WeylElements, differs from its D-class's first element's,
    at the least (A, B) in the order of their bit masks."""
    descents = descent_set if kind == "x" else affine_descent_set
    start = fam.affine_indices().start
    elements = list(enumerate_group(fam))

    def mask(color):
        return sum(1 << (i - start) for i in color.indices)

    firsts, failures = {}, []
    for w in elements:
        h = Counter((mask(descent_set(compose(w, v))), mask(descents(invert(v))))
                    for v in elements)
        first, h_first = firsts.setdefault(descents(w).indices, (w, h))
        if h != h_first:
            key = min(k for k in h.keys() | h_first.keys() if h[k] != h_first[k])
            A, B = ([i for i in fam.affine_indices() if m >> (i - start) & 1] for m in key)
            failures.append({"class": descents(w).sorted(),
                             "elements": [list(first.values), list(w.values)],
                             "A": A, "B": B})
    return failures


def _reversed_rows(data, start):
    """start read at the products v u where rows gives it read at u v."""
    for u in data.elements:
        yield [start[data.index_of[_compose(v, u).values]] for v in data.elements]


ROW_FAMILIES = [Family(tag, n) for tag, ns in (("A", range(2, 6)), ("C", range(1, 5)))
                for n in ns]


@pytest.mark.parametrize("fam", ROW_FAMILIES, ids=lambda f: f"{f.tag}{f.rank}")
def test_rows_are_the_direct_products(fam):
    """Each row, read off the previous one through a step row, is the row of
    products w v composed directly, in index order; mult lists the rows.  Any
    other sequence over the elements is read through the same rows."""
    data = da._GroupData(fam)
    index_of = data.index_of
    expected = [[index_of[tuple(map(w, v.values))] for v in data.elements]
                for w in data.elements]
    assert [list(row) for row in data.rows(range(len(data.elements)))] == expected
    assert data.mult == list(data.rows(range(len(data.elements))))
    labels = [f"{w.values}" for w in data.elements]
    assert [list(row) for row in data.rows(labels)] == [
        [labels[i] for i in row] for row in expected]


@pytest.mark.parametrize("fam", [Family("A", 6), Family("C", 4), Family("C", 5)],
                         ids=["A6", "C4", "C5"])
def test_rows_read_few_rows_directly(monkeypatch, fam):
    """One walk of rows() reads at most 1 + n^2 rows directly (16, 17 and 26
    at A6, C4 and C5), a direct read calling each of the |W| getters
    itemgetter(0, *v) once; each row is one call of a step row."""
    calls = Counter()

    def counted(*items):
        get = itemgetter(*items)

        def call(seq):
            calls[len(items)] += 1
            return get(seq)
        return call

    monkeypatch.setattr(da, "itemgetter", counted)
    order = fam.group_order()
    assert sum(1 for _ in da._GroupData(fam).rows(range(order))) == order
    assert calls[fam.rank + 1] <= (1 + fam.rank ** 2) * order
    assert calls[order] == order


@pytest.mark.parametrize("fam", [Family("A", 4), Family("C", 3)], ids=["A4", "C3"])
def test_module_suite_catches_reversed_products(monkeypatch, fam):
    """With every row read as v w in place of w v, the module suite fails and
    names each element whose histogram leaves its class's."""
    passing = da.verify("module", fam)
    monkeypatch.setattr(da._GroupData, "rows", _reversed_rows)
    report = da.verify("module", fam)
    expected = _histogram_failures(fam, "xt", lambda w, v: _compose(v, w), inverse)
    assert expected and report["failures"] == expected
    assert report["checks"] == passing["checks"]


@pytest.mark.parametrize("suite, kind", [("solomon", "x"), ("module", "xt")])
def test_product_suites_catch_an_unsigned_inverse(monkeypatch, suite, kind):
    """A type C inverse that drops its signs fails both suites at C3."""
    fam = Family("C", 3)
    passing = da.verify(suite, fam)
    assert passing["pass"]
    monkeypatch.setattr(da, "inverse", _signless_inverse)
    report = da.verify(suite, fam)
    expected = _histogram_failures(fam, kind, _compose, _signless_inverse)
    assert expected and report["failures"] == expected
    assert report["checks"] == passing["checks"]


@pytest.mark.parametrize("suite", ["solomon", "module"])
@pytest.mark.parametrize("fam", [Family("A", 4), Family("C", 3)], ids=["A4", "C3"])
def test_histograms_compare_as_plain_dicts(monkeypatch, suite, fam):
    """The histograms hold no zero counts, so the suites compare them as
    dicts: with Counter's Python-level comparison refused, each report is
    the one the Counter comparison gave."""
    def refuse(self, other):
        raise AssertionError("Counter comparison")

    monkeypatch.setattr(Counter, "__eq__", refuse)
    monkeypatch.setattr(Counter, "__ne__", refuse)
    checks = {"solomon": 2 ** 3 * 2 ** 3, "module": 2 ** 3 * (2 ** 4 - 1)}[suite]
    assert da.verify(suite, fam) == {"suite": suite, "family": fam.tag, "rank": fam.rank,
                                     "checks": checks, "failures": [], "pass": True}


@pytest.mark.parametrize("fam", [A3, C2], ids=["A3", "C2"])
def test_lrb_catches_a_broken_kernel(monkeypatch, fam):
    # A product that returns its right factor keeps idempotence and
    # associativity, and breaks every other law.
    passing = da.verify("lrb", fam)
    monkeypatch.setattr(cf, "_by_key", lambda p, qs, anchor, kept: (list(qs), {q: q for q in qs}))
    report = da.verify("lrb", fam)
    assert not report["pass"]
    assert {f["law"] for f in report["failures"]} == {
        "xyx=xy", "chamber absorption", "unit", "sign composition"}
    assert report["checks"] == passing["checks"]


@pytest.mark.parametrize("fam", [A3, C2], ids=["A3", "C2"])
def test_psi_suite_checks_every_product_is_invariant(monkeypatch, fam):
    # An invariance test that accepts single-colour sums alone passes the
    # orbit sums and rejects exactly the products of more than one colour.
    def one_colour(s):
        color = tf.color_set if s.torus else cf.color_set
        return len({color(F).indices for F, _ in s.coeffs}) <= 1

    sigma, sigmat = da._orbit_sums(fam, False), da._orbit_sums(fam, True)
    expected = sorted(
        [("psi(sigma_J sigma_K) = x_K x_J", sorted(J), sorted(K))
         for J, sJ in sigma.items() for K, sK in sigma.items()
         if not one_colour(da.face_sum_product(sJ, sK))]
        + [("psi(sigma~_K sigma_J) = x_J x~_K", sorted(J), sorted(K))
           for K, sK in sigmat.items() for J, sJ in sigma.items()
           if not one_colour(da.face_sum_product(sK, sJ))])
    assert expected
    passing = da.verify("psi", fam)
    monkeypatch.setattr(da, "is_invariant", one_colour)
    report = da.verify("psi", fam)
    assert sorted((f["identity"], f["I"], f["J"]) for f in report["failures"]) == expected
    assert report["checks"] == passing["checks"]


def test_oracle_suite_type_a_only():
    assert da.verify("oracle", A3)["pass"]
    with pytest.raises(ValidationError):
        da.verify("oracle", C2)


def test_oracle_reports_every_failure(monkeypatch):
    # A module action that leaves every necklace fixed is wrong exactly
    # where the oracle moves the necklace; each such pair is one failure.
    expected = sum(
        ao.project(ao.oracle_act(ao.lift(N), G)) != N
        for N in tf.enumerate_torus_faces(A3)
        for G in cf.enumerate_faces(A3)
    )
    assert expected > 6
    monkeypatch.setattr(cf, "_by_key", lambda p, qs, anchor, kept: ([0] * len(qs), {0: p}))
    report = da.verify("oracle", A3)
    failures = [f for f in report["failures"] if f["check"] == "action equivalence"]
    assert len(failures) == expected
    assert not report["pass"]


def test_the_oracle_projects_each_acted_vector_once(monkeypatch):
    """Each of the 8,093 projections at A4 was made for its own pair; then
    434 projections of 328 vectors, each lift projected again to locate it."""
    calls, project = Counter(), ao.project

    def counted(V):
        calls[V] += 1
        return project(V)

    monkeypatch.setattr(ao, "project", counted)
    assert da.verify("oracle", Family("A", 4)) == {
        "suite": "oracle", "family": "A", "rank": 4, "checks": 11493, "failures": [],
        "pass": True}
    assert sum(calls.values()) == len(calls) == 328


def test_the_cached_projection_hides_no_failure(monkeypatch):
    """A projection wrong for one acted vector fails every pair that acts to
    it, each once, and nothing else."""
    fam = Family("A", 4)
    necklaces, faces = list(tf.enumerate_torus_faces(fam)), list(cf.enumerate_faces(fam))
    lifts = [ao.lift(N) for N in necklaces]
    acted = Counter(ao.oracle_act(V, G) for V in lifts for G in faces)
    target, expected = next((V, k) for V, k in acted.most_common() if V not in lifts)
    assert expected > 1
    project = ao.project
    wrong = next(N for N in necklaces if N != project(target))
    monkeypatch.setattr(ao, "project", lambda V: wrong if V == target else project(V))
    report = da.verify("oracle", fam)
    assert [f["check"] for f in report["failures"]] == ["action equivalence"] * expected
    assert report["checks"] == 11493


def test_a_product_that_is_no_face_fails_the_laws_that_read_it(monkeypatch):
    """A product code outside the enumeration, which only a kernel defect
    makes, is reported as failures with witnesses, not raised."""
    faces, necklaces = list(cf.enumerate_faces(A3)), list(tf.enumerate_torus_faces(A3))
    passing = [da.verify(suite, A3)["checks"] for suite in ("lrb", "oracle")]
    monkeypatch.setattr(cf, "_by_key",
                        lambda p, qs, anchor, kept: ([0] * len(qs), {0: (*p, 0)}))
    lrb, oracle = da.verify("lrb", A3), da.verify("oracle", A3)
    laws = Counter(f["law"] for f in lrb["failures"])
    assert set(laws) == {"idempotent", "unit", "chamber absorption", "xyx=xy",
                         "associativity", "sign composition"}
    assert laws["sign composition"] == len(faces) ** 2
    assert [f["check"] for f in oracle["failures"]] == (
        ["action equivalence"] * (len(necklaces) * len(faces)))
    assert [lrb["checks"], oracle["checks"]] == passing


@pytest.mark.parametrize("suite, fam", [("lrb", Family("A", 4)), ("lrb", Family("C", 3)),
                                        ("oracle", Family("A", 4))],
                         ids=["lrb-A4", "lrb-C3", "oracle-A4"])
def test_suites_take_each_faces_signs_once(monkeypatch, suite, fam):
    """The oracle once read a face's signs for every (necklace, face) pair."""
    calls, sign_vector = Counter(), cf.sign_vector

    def counted(F):
        calls[F] += 1
        return sign_vector(F)

    monkeypatch.setattr(cf, "sign_vector", counted)
    monkeypatch.setattr(ao, "sign_vector", counted)
    assert da.verify(suite, fam)["pass"]
    assert calls == Counter(cf.enumerate_faces(fam))


def test_oracle_side_drives_the_verdict(monkeypatch):
    """Signs with + and - swapped break the action equivalence, and only it:
    the oracle side reads each face through its signs and no code."""
    passing, sign_vector = da.verify("oracle", A3), cf.sign_vector

    def swapped(F):
        return cf.FiniteSignVector(F.family, tuple(
            {"+": "-", "-": "+"}.get(s, s) for s in sign_vector(F).signs))

    monkeypatch.setattr(cf, "sign_vector", swapped)
    monkeypatch.setattr(ao, "sign_vector", swapped)
    report = da.verify("oracle", A3)
    assert {f["check"] for f in report["failures"]} == {"action equivalence"}
    assert report["checks"] == passing["checks"]


@pytest.mark.parametrize("fam, failed", [(A3, 19), (C2, 27)], ids=["A3", "C2"])
def test_psi_catches_a_broken_kernel(monkeypatch, fam, failed):
    """Face-sum products reach the one kernel: a kernel that refines p by p itself
    wherever the true result has more than two distinct values fails the psi suite,
    which the tables and the CLI share."""
    passing, refine = da.verify("psi", fam), cf._refine

    def coarse_kernel(p, q, anchor=None):
        r = refine(p, q, anchor)
        return refine(p, p, anchor) if len(set(r)) > 2 else r

    monkeypatch.setattr(cf, "_refine", coarse_kernel)
    report = da.verify("psi", fam)
    assert passing["pass"] and len(report["failures"]) == failed
    assert report["checks"] == passing["checks"] == 55


@pytest.mark.parametrize("fam", [A3, C2, A4, C3], ids=["A3", "C2", "A4", "C3"])
@pytest.mark.parametrize("torus", [False, True], ids=["faces", "necklaces"])
def test_a_reversing_kernel_changes_non_invariant_products(monkeypatch, fam, torus):
    """Reversing a code's positions is the action of the longest element, so a kernel
    that reverses every result with more than two distinct values leaves each invariant
    product as it was.  A chamber (or maximal necklace) times sigma_K is not invariant:
    under that kernel each such product differs from the pairs taken one at a time
    before, so the products do read the kernel's results as they come."""
    refine = cf._refine
    sigma = da._orbit_sums(fam, False)
    lefts = [da.FaceSum.from_dict(fam, torus, {X: 1}) for X, _ in
             list(da._orbit_sums(fam, torus).values())[-1].coeffs[:3]]
    pairs = [(s, t) for s in lefts for t in sigma.values()]
    expected = [_double_loop(s, t) for s, t in pairs]

    def reversed_kernel(p, q, anchor=None):
        r = refine(p, q, anchor)
        return r[::-1] if len(set(r)) > 2 else r

    monkeypatch.setattr(cf, "_refine", reversed_kernel)
    got = [da.face_sum_product(_fresh(s), _fresh(t))._codes for s, t in pairs]
    assert all(map(dict.__ne__, got, expected))


@pytest.mark.parametrize("fam", [A3, C2], ids=["A3", "C2"])
def test_psi_reports_an_orbit_sum_missing_a_face(monkeypatch, fam):
    """sigma_{1} without its first face is not invariant: the psi suite reports its own
    identity and every product that reads it, and raises nothing."""
    passing, one = da.verify("psi", fam), frozenset({1})
    _replacing_one_face(monkeypatch, False, one)
    report = da.verify("psi", fam)
    finite = list(da._subsets(fam.finite_indices()))
    affine = list(da._subsets(fam.affine_indices(), nonempty=True))
    expected = ([("psi(sigma_J) = x_J", [1], [1])]
                + [("psi(sigma_J sigma_K) = x_K x_J", sorted(J), sorted(K))
                   for J in finite for K in finite if one in (J, K)]
                + [("psi(sigma~_K sigma_J) = x_J x~_K", [1], sorted(K)) for K in affine])
    assert sorted((f["identity"], f["I"], f["J"]) for f in report["failures"]) == sorted(
        expected)
    assert report["checks"] == passing["checks"]


def test_psi_reports_a_product_that_is_no_face(monkeypatch):
    """A batched kernel whose every result is its left code with one more entry, which
    only a defect makes: at C2 those codes move to no code, so each product identity
    fails, as a report, and nothing is raised."""
    passing = da.verify("psi", C2)
    monkeypatch.setattr(cf, "_by_key",
                        lambda p, qs, anchor, kept: ([0] * len(qs), {0: (*p, 0)}))
    report = da.verify("psi", C2)
    assert {f["identity"] for f in report["failures"]} == {
        "psi(sigma_J sigma_K) = x_K x_J", "psi(sigma~_K sigma_J) = x_J x~_K"}
    assert len(report["failures"]) == 11 * 4 and report["checks"] == passing["checks"]


@pytest.mark.parametrize("fam", [A3, C2], ids=["A3", "C2"])
def test_psi_reports_a_wrong_image_of_an_orbit_sum(monkeypatch, fam):
    """An element map wrong on the one-block face alone: psi(sigma_J) is not x_J at the
    empty J, whose one face that is."""
    unit, w_of_code = cf._face_code(cf.unit_face(fam)), cf._w_of_code
    monkeypatch.setattr(da, "_element_cache", {})
    monkeypatch.setattr(cf, "_w_of_code", lambda family, code: (
        w_of_code(family, code)[::-1] if code == unit else w_of_code(family, code)))
    report = da.verify("psi", fam)
    assert {"identity": "psi(sigma_J) = x_J", "I": [], "J": []} in report["failures"]


def _replacing_one_face(monkeypatch, torus, J, by=()):
    """Orbit sums whose colour-J sum (of torus faces if torus) has its first face
    replaced by the faces in ``by``, by none unless given."""
    orbit_sums = da._orbit_sums

    def replaced(family, t):
        sums = orbit_sums(family, t)
        if t == torus:
            sums[J] = da.FaceSum(family, t, tuple((F, 1) for F in by) + sums[J].coeffs[1:])
        return sums

    monkeypatch.setattr(da, "_orbit_sums", replaced)


@pytest.mark.parametrize("fam", [A3, C2], ids=["A3", "C2"])
@pytest.mark.parametrize("torus, check", [(False, "chamber count"),
                                          (True, "maximal torus faces")],
                         ids=["chambers", "maximal"])
def test_counts_reports_a_missing_chamber_or_maximal_torus_face(monkeypatch, fam, torus,
                                                                check):
    _replacing_one_face(monkeypatch, torus,
                        frozenset(fam.affine_indices() if torus else fam.finite_indices()))
    report = da.verify("counts", fam)
    want = fam.group_order()
    assert {"check": check, "want": want, "got": want - 1} in report["failures"]


@pytest.mark.parametrize("fam", [A3, C2], ids=["A3", "C2"])
def test_counts_reports_an_orbit_of_the_wrong_size(monkeypatch, fam):
    """sigma_{1} without its first face: the orbit sizes are checked in both types."""
    _replacing_one_face(monkeypatch, False, frozenset({1}))
    report = da.verify("counts", fam)
    assert report["failures"] == [{"check": "finite descent bijection", "J": [1]},
                                  {"check": "orbit size", "J": [1]}]


@pytest.mark.parametrize("fam", [A3, C2], ids=["A3", "C2"])
def test_counts_reports_a_broken_descent_bijection(monkeypatch, fam):
    """sigma_{1} with its first face swapped for the last chamber, whose element has a
    descent outside {1}: the orbit keeps its size, and only the finite bijection fails."""
    last_chamber = max(cf.enumerate_faces(fam, ColorSet(fam, fam.finite_indices())))
    _replacing_one_face(monkeypatch, False, frozenset({1}), by=[last_chamber])
    report = da.verify("counts", fam)
    assert report["failures"] == [{"check": "finite descent bijection", "J": [1]}]


def _oracle_failures(monkeypatch, name, broken):
    monkeypatch.setattr(ao, name, broken)
    report = da.verify("oracle", A3)
    assert report["checks"] == 1049
    return Counter(f["check"] for f in report["failures"]), report["failures"]


def _necklace_not_sampled_first():
    """A necklace of A3 that the oracle's seeded sample does not draw first."""
    necklaces = list(tf.enumerate_torus_faces(A3))
    first = random.Random(0).choice(necklaces)
    return next(N for N in necklaces if N != first and N != necklaces[0]), necklaces[0]


def test_oracle_reports_a_lift_that_projects_elsewhere(monkeypatch):
    N0, N1 = _necklace_not_sampled_first()
    lift = ao.lift
    checks, failures = _oracle_failures(
        monkeypatch, "lift", lambda N: lift(N1) if N == N0 else lift(N))
    assert {"check": "project(lift(N)) = N", "N": str(N0)} in failures
    assert checks["project(lift(N)) = N"] == 1


def test_oracle_reports_a_lift_off_its_canonical_place(monkeypatch):
    """A lift of one necklace moved by a coroot the first time it is asked, so that
    ``_locate`` measures it against the canonical lift: only the location fails."""
    N0, _ = _necklace_not_sampled_first()
    lift, moved = ao.lift, []

    def drifting(N):
        if N == N0 and not moved:
            moved.append(N)
            return ao.translate(lift(N), ao.CorootVector((1, 0, -1)))
        return lift(N)

    checks, failures = _oracle_failures(monkeypatch, "lift", drifting)
    assert failures == [{"check": "locate canonical lift", "N": str(N0)}]


def test_oracle_reports_every_lift_moved_by_one_coroot(monkeypatch):
    """A lift moved by the same coroot translate on every call still projects to its
    necklace and locates at 0 against itself; only the comparison with the point read
    off the split necklace sees it, once per necklace."""
    lift = ao.lift
    checks, _ = _oracle_failures(
        monkeypatch, "lift", lambda N: ao.translate(lift(N), ao.CorootVector((1, 0, -1))))
    assert checks == {"locate canonical lift": len(list(tf.enumerate_torus_faces(A3)))}


def test_oracle_reports_a_translation_that_does_not_commute_with_the_action(monkeypatch):
    """A translation that moves canonical lifts only: the action of a face takes most
    lifts off the canonical ones, so translating before and after it differ."""
    lifts = {ao.lift(N) for N in tf.enumerate_torus_faces(A3)}
    translate = ao.translate
    checks, _ = _oracle_failures(
        monkeypatch, "translate", lambda V, mu: translate(V, mu) if V in lifts else V)
    assert set(checks) == {"translation equivariance"}


def test_oracle_reports_a_translation_that_moves_nothing(monkeypatch):
    """A translation that is a no-op commutes with the action but is located at 0:
    each of the 18 nonzero coroot vectors fails once."""
    checks, _ = _oracle_failures(monkeypatch, "translate", lambda V, mu: V)
    assert checks == {"locate translate": 18}


def test_verify_all():
    report = da.verify("all", A3)
    assert report["pass"]
    assert len(report["reports"]) >= 6


KERNEL_FAMILIES = [Family("A", 3), Family("A", 4), Family("C", 2), Family("C", 3)]


def _check_same(u, v):
    if u.family != v.family:
        raise FamilyMismatchError(f"family mismatch: {u.family} vs {v.family}")


def _compose(u, v):
    """(uv)(i) = u(v(i)), built through the validating constructor."""
    _check_same(u, v)
    return WeylElement(u.family, tuple(u(v(i)) for i in range(1, u.family.rank + 1)))


def _naive_multiply(a, b):
    acc = {}
    for u, cu in a.coeffs:
        for v, cv in b.coeffs:
            w = _compose(u, v)
            acc[w] = acc.get(w, 0) + cu * cv
    return da.GroupRingElement.from_dict(a.family, acc)


def _legal_sets(kind, fam):
    universe = sorted(fam.finite_indices() if kind in ("x", "y")
                      else fam.affine_indices())
    sets = [frozenset(c) for r in range(len(universe) + 1)
            for c in itertools.combinations(universe, r)]
    if kind in ("xt", "yt"):
        sets = [J for J in sets if J]
    if kind == "yt":
        sets = [J for J in sets if J != frozenset(universe)]
    return sets


@st.composite
def _kernel_case(draw):
    fam = draw(st.sampled_from(KERNEL_FAMILIES))
    elements = list(enumerate_group(fam))
    coeff = st.integers(-3, 3)  # zeros drop out; signs make products cancel

    def sparse():
        mapping = draw(st.dictionaries(st.sampled_from(elements), coeff,
                                       max_size=12))
        return da.GroupRingElement.from_dict(fam, mapping)

    kind = draw(st.sampled_from(["x", "y", "xt", "yt"]))
    expansion = draw(st.dictionaries(st.sampled_from(_legal_sets(kind, fam)),
                                     coeff, max_size=6))
    return fam, sparse(), sparse(), kind, expansion


def _ordered(g):
    return g.coeffs == da.GroupRingElement.from_dict(g.family, g.as_dict()).coeffs


@given(_kernel_case())
def test_index_kernel_matches_naive_route(case):
    fam, a, b, kind, expansion = case
    product = da.multiply(a, b)
    assert product == _naive_multiply(a, b)
    evaluated = da.evaluate_expansion(expansion, kind, fam)
    total = da.GroupRingElement.from_dict(fam, {})
    for I, c in expansion.items():
        term = da.basis_element(kind, I, fam)
        assert _ordered(term)
        total = total + da.GroupRingElement.from_dict(
            fam, {w: c * k for w, k in term.coeffs}
        )
    assert evaluated == total
    assert _ordered(product) and _ordered(evaluated)


@pytest.mark.parametrize("call", [
    lambda family: da.basis_element("x", [1], family),
    lambda family: da.evaluate_expansion({frozenset({1}): 1}, "x", family),
    lambda family: da.evaluate_expansion({}, "x", family),
    lambda family: da.orbit_sum("sigma", [1], family),
], ids=["basis_element", "evaluate_expansion", "empty evaluate_expansion", "orbit_sum"])
def test_index_sets_refuse_a_family_that_is_not_a_family(call):
    """The first three once leaked AttributeError for a family of None."""
    for family in (None, "A3"):
        with pytest.raises(ValidationError, match="is not a Family"):
            call(family)


def test_evaluate_expansion_rejects_illegal_index_sets():
    for fam in KERNEL_FAMILIES:
        with pytest.raises(ValidationError):
            da.evaluate_expansion({frozenset(): 1}, "xt", fam)
    for bad in (frozenset([1.0]), frozenset([True]), 1):  # frozenset([1.0]) once meant {1}
        with pytest.raises(ValidationError):
            da.evaluate_expansion({bad: 1}, "x", A3)
    # The sets are checked together; a True beside another set's 1 is still a bool.
    for kind, expansion in (("x", {frozenset({1}): 1, frozenset({True, 2}): 1}),
                            ("x", {frozenset({1}): 1, frozenset({2, 3}): 1}),
                            ("xt", {frozenset({1}): 1, frozenset(): 1}),
                            ("yt", {frozenset({1}): 1, frozenset({1, 2, 3}): 1})):
        with pytest.raises(ValidationError):
            da.evaluate_expansion(expansion, kind, A3)


def test_evaluate_expansion_checks_before_the_group_is_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("a group was built")

    monkeypatch.setattr(da, "_group_cache", {})
    monkeypatch.setattr(da, "enumerate_group", refuse)
    for expansion in ({frozenset({99}): 1}, {frozenset({1}): 1, frozenset({12}): 1},
                      {frozenset({1}): 1.5}):
        with pytest.raises(ValidationError):
            da.evaluate_expansion(expansion, "x", Family("A", 12))


def test_a_colour_set_of_another_family_is_refused_as_an_index_set():
    """Each of these once read the foreign colour's indices as A3's or C2's."""
    A5 = Family("A", 5)
    with pytest.raises(FamilyMismatchError):
        da.basis_element("x", ColorSet(A5, frozenset({1})), A3)
    with pytest.raises(FamilyMismatchError):
        da.evaluate_expansion({ColorSet(A5, frozenset({2})): 1}, "x", A3)
    with pytest.raises(FamilyMismatchError):
        da.orbit_sum("sigma", ColorSet(Family("C", 3), frozenset({0})), C2)
    # A colour set built from a set hashes (it once raised TypeError here).
    with pytest.raises(FamilyMismatchError):
        da.evaluate_expansion({ColorSet(A5, {2}): 1}, "x", A3)
    own = ColorSet(A3, frozenset({1}))
    assert da.basis_element("x", own, A3) == da.basis_element("x", [1], A3)


# ---------------------------------------------------------------------------
# face-sum products: the kernel only in tallies, one tally per block set, kept with the
# right factor


def _products(fam):
    """sigma_J * sigma_K and sigma~_K * sigma_J for every colour pair, and every
    orbit sum times a right factor whose coefficients take seven values."""
    sigma, sigmat = da._orbit_sums(fam, False), da._orbit_sums(fam, True)
    faces = list(cf.enumerate_faces(fam))
    rights = [*sigma.values(), da.FaceSum.from_dict(
        fam, False, dict(zip(faces, itertools.cycle([1, -1, 2, -2, 3, -3, 4]))))]
    return [(s, t) for s in [*sigma.values(), *sigmat.values()] for t in rights]


def _block_set(p):
    """The positions of each block of code p with two or more elements."""
    return frozenset(frozenset(x for x in range(len(p)) if p[x] == v)
                     for v in set(p) if p.count(v) > 1)


def _double_loop(s, t):
    """The codes of s * t, the kernel's result summed over every pair of codes."""
    anchor, acc = tf._anchor(s.family) if s.torus else None, {}
    for p, cp in s._codes.items():
        for q, cq in t._codes.items():
            r = cf._refine(p, q, anchor)
            acc[r] = acc.get(r, 0) + cp * cq
    return {r: c for r, c in acc.items() if c}


def _order(q, blocks):
    """Code q's order, ties included, on each pair of positions within one of the blocks."""
    return tuple((q[x] > q[y]) - (q[x] < q[y])
                 for b in blocks for x, y in itertools.combinations(sorted(b), 2))


@pytest.mark.parametrize("fam", [A4, C3], ids=["A4", "C3"])
def test_face_sum_products_call_the_kernel_only_to_tally(monkeypatch, fam):
    """Every product of ``_products`` equals the double loop.  Products call the kernel
    only while tallying, with no anchor, once per (right factor, block set, distinct
    order of the right codes on those blocks), faces and necklaces alike; a second pass
    over the same products calls it not at all."""
    products = _products(fam)
    expected = [_double_loop(s, t) for s, t in products]
    tally, refine, tallying, made = cf._tally, cf._refine, [], Counter()

    def counted_tally(blocks, qs, kept):
        tallying.append(id(kept))
        try:
            return tally(blocks, qs, kept)
        finally:
            tallying.pop()

    def counted_refine(p, q, anchor=None):
        assert tallying, "a face-sum product called the kernel outside a tally"
        assert anchor is None, "a tally refined with an anchor"
        made[tallying[-1], _block_set(p)] += 1
        return refine(p, q, anchor)

    monkeypatch.setattr(cf, "_tally", counted_tally)
    monkeypatch.setattr(cf, "_refine", counted_refine)
    met = Counter()
    for s, t in products:
        for blocks in map(_block_set, s._codes):
            met[id(t._tallies), blocks] = len({_order(q, blocks) for q in t._codes})
    for _ in range(2):
        assert [da.face_sum_product(s, t)._codes for s, t in products] == expected
        assert made == met


@pytest.mark.parametrize("fam", [A4, C3], ids=["A4", "C3"])
def test_right_factor_tallies_once_per_block_set(monkeypatch, fam):
    """Over a right factor's life its codes are tallied exactly once per set of left
    blocks that its products meet, whether faces or necklaces meet it, fewer times
    than the (anchor, set of blocks) pairs met and than the left codes; a second pass
    over the same products tallies nothing."""
    products = _products(fam)
    tally, built = cf._tally, Counter()

    def counted(blocks, qs, kept):
        built[id(kept), _block_set(blocks)] += 1
        return tally(blocks, qs, kept)

    monkeypatch.setattr(cf, "_tally", counted)
    met = Counter({(id(t._tallies), _block_set(p)): 1 for s, t in products for p in s._codes})
    for _ in range(2):
        for s, t in products:
            da.face_sum_product(s, t)
        assert built == met
    anchored = {(id(t._tallies), s.torus, _block_set(p)) for s, t in products for p in s._codes}
    assert len(met) < len(anchored) < sum(len(s._codes) for s, _ in products)


@pytest.mark.parametrize("fam", [A4, C3], ids=["A4", "C3"])
def test_kept_tallies_depend_on_the_right_factor_alone(fam):
    """One right factor, whose codes come in the order of a product, kept and
    used again against every sigma_J and sigma~_J in shuffled order, gives the
    products that a fresh equal copy of it gives (its codes in face order) and
    that the double loop over the faces gives."""
    from test_codes import naive_action, naive_product

    faces = list(cf.enumerate_faces(fam))
    u = da.FaceSum.from_dict(fam, False, {faces[-1]: 2, faces[len(faces) // 2]: -1, faces[1]: 3})
    t = da.face_sum_product(u, da.orbit_sum("sigma", [2], fam))
    assert list(t._codes) != list(da.FaceSum.from_dict(fam, False, t.as_dict())._codes)
    lefts = [*da._orbit_sums(fam, False).values(), *da._orbit_sums(fam, True).values()]
    random.Random(3).shuffle(lefts)
    for s in lefts:
        op, acc = naive_action if s.torus else naive_product, {}
        for X, cx in s.coeffs:
            for G, cg in t.coeffs:
                acc[op(X, G)] = acc.get(op(X, G), 0) + cx * cg
        fresh = da.FaceSum.from_dict(fam, False, t.as_dict())
        assert da.face_sum_product(s, t) == da.face_sum_product(s, fresh) == da.FaceSum.from_dict(
            fam, s.torus, acc)


@pytest.mark.parametrize("fam", [C2, C3], ids=["C2", "C3"])
@pytest.mark.parametrize("necklaces_first", [False, True], ids=["faces-first", "necklaces-first"])
def test_one_right_factor_serves_faces_and_necklaces(fam, necklaces_first):
    """One right factor against every sigma_J (faces, no anchor) and then every
    sigma~_J (necklaces, anchored), or in the reverse order, gives the double
    loop's product each time: one tally serves both, each anchor's lead read off its
    results."""
    faces = list(cf.enumerate_faces(fam))
    t = da.FaceSum.from_dict(fam, False, {G: 1 + i % 3 for i, G in enumerate(faces)})
    passes = [da._orbit_sums(fam, False).values(), da._orbit_sums(fam, True).values()]
    for s in itertools.chain(*(passes[::-1] if necklaces_first else passes)):
        assert da.face_sum_product(s, t)._codes == _double_loop(s, t)


@pytest.mark.parametrize("fam", [A3, C2], ids=["A3", "C2"])
def test_offsets_are_interned_per_right_factor(monkeypatch, fam):
    """A right factor holds each distinct tallied result once, however many of its
    tallies hold it; two equal right factors share no result object, so a
    factor's results are freed with it, not held by a table across factors."""
    tally, built = cf._tally, {}

    def recording(blocks, qs, kept):
        weights, results = tally(blocks, qs, kept)
        built.setdefault(id(kept), []).extend(results)
        return weights, results

    monkeypatch.setattr(cf, "_tally", recording)
    first = da.orbit_sum("sigma", fam.finite_indices(), fam)  # the chambers
    rights = [first, da.FaceSum.from_dict(fam, False, first.as_dict())]
    lefts = [*da._orbit_sums(fam, False).values(), *da._orbit_sums(fam, True).values()]
    for t in rights:
        for s in lefts:
            da.face_sum_product(s, t)
    held = [built[id(t._tallies)] for t in rights]
    for results in held:
        assert len(results) > len(set(results)) == len(set(map(id, results)))
    assert set(held[0]) == set(held[1])
    assert not set(map(id, held[0])) & set(map(id, held[1]))


def _fresh(s):
    """An equal copy of the face sum s, with none of its kept dicts."""
    return da.FaceSum.from_dict(s.family, s.torus, s.as_dict())


def _frames_built():
    """How many frames ``coxfaces._frames`` holds, over every anchor."""
    return sum(map(len, cf._frames.values()))


def _tables_built():
    """How many translate tables the frames of ``coxfaces._frames`` hold."""
    return sum(len(tables) for frames in cf._frames.values() for _, _, tables in frames.values())


@pytest.mark.parametrize("fam", [A4, C3], ids=["A4", "C3"])
def test_frames_hold_one_table_per_lead_interned_by_value(monkeypatch, fam):
    """Every s_J * sigma_K: a face's frame holds the one table of lead 0, a type C
    necklace's frame one table per lead its results met; each table is 256 bytes
    that take value v to v - lead rotated by the offset of v's block, and equal tables
    are one object, also across frames."""
    monkeypatch.setattr(cf, "_frames", {})
    sigma = da._orbit_sums(fam, False)
    for s in [*sigma.values(), *da._orbit_sums(fam, True).values()]:
        for t in sigma.values():
            da.face_sum_product(s, t)
    tables = []
    for anchor, frames in cf._frames.items():
        for p, (blocks, offsets, by_lead) in frames.items():
            assert blocks == tuple(map(p.index, p)) and len(offsets) == len(p)
            assert anchor is not None or list(by_lead) == [0]
            for lead, table in by_lead.items():
                assert type(table) is bytes and len(table) == 256
                assert [table[v] for v in range(1, len(p) + 1)] == [
                    (v - lead + o - 1) % len(p) + 1 for v, o in enumerate(offsets, 1)]
                tables.append(table)
    assert any(len(frame[2]) > 1 for frame in cf._frames[tf._anchor(fam)].values()) == (
        fam.tag == "C")
    assert len(set(map(id, tables))) == len(set(tables)) < len(tables)


@pytest.mark.parametrize("fam", [A4, C3], ids=["A4", "C3"])
def test_left_factor_builds_each_frame_once(monkeypatch, fam):
    """Against right factors whose tallies are warm, with no frame built yet, each left
    factor builds the frames of its codes that no earlier one built for its anchor, in
    that anchor's dict (type A faces and necklaces share anchor None and codes); a
    second pass over the same sums, and a pass over fresh equal copies of them, build
    nothing: each frame stays the same object."""
    sigma = da._orbit_sums(fam, False)
    lefts = [*sigma.values(), *da._orbit_sums(fam, True).values()]
    for s in lefts:
        for t in sigma.values():
            da.face_sum_product(s, t)
    monkeypatch.setattr(cf, "_frames", {})
    held = {}
    for i, sums in enumerate([lefts, lefts, list(map(_fresh, lefts))]):
        for s in sums:
            anchor = tf._anchor(fam) if s.torus else None
            new = [p for p in s._codes if (anchor, p) not in held]
            before = _frames_built()
            for t in sigma.values():
                da.face_sum_product(s, t)
            assert _frames_built() - before == len(new) and not (i and new)
            frames = cf._frames[anchor]
            assert all(frames[p] is held.setdefault((anchor, p), frames[p]) for p in s._codes)
    assert cf._frames.keys() == {None, tf._anchor(fam)}
    assert sum(map(len, cf._frames.values())) == len(held)
    assert len(held) == len({(tf._anchor(fam) if s.torus else None, p)
                             for s in lefts for p in s._codes})


@pytest.mark.parametrize("fam", [A3, C2], ids=["A3", "C2"])
@pytest.mark.parametrize("torus", [False, True], ids=["faces", "necklaces"])
def test_two_sums_of_one_code_build_its_frame_once(monkeypatch, fam, torus):
    """Two distinct left sums that hold one code, one after the other against right
    factors whose tallies are warm: the first builds each of its codes' frames, and
    the second none, nor a table, and both give the double loop's products."""
    sigma = da._orbit_sums(fam, False)
    s = list(da._orbit_sums(fam, torus).values())[-1]
    u = da.FaceSum.from_dict(fam, torus, {s.coeffs[0][0]: -2})
    assert u != s and u._codes.keys() <= s._codes.keys()
    expected = {(id(left), id(t)): _double_loop(left, t)
                for left in (s, u) for t in sigma.values()}
    for t in sigma.values():
        da.face_sum_product(_fresh(s), t)
    monkeypatch.setattr(cf, "_frames", {})
    for left, built in ((s, len(s._codes)), (u, 0)):
        frames, tables = _frames_built(), _tables_built()
        for t in sigma.values():
            assert da.face_sum_product(left, t)._codes == expected[id(left), id(t)]
        assert _frames_built() - frames == built and (built or _tables_built() == tables)


@pytest.mark.parametrize("fam", [A3, A4, C2, C3], ids=["A3", "A4", "C2", "C3"])
def test_warm_frames_give_the_products_of_fresh_copies(fam):
    """Every s_J * sigma_K, finite side then module side, twice over the same sums (so
    each sigma_K serves both anchors, as left and as right factor, and every frame and
    tally is warm the second time), equals the product of fresh equal copies of both."""
    sigma = da._orbit_sums(fam, False)
    products = [(s, t) for s in [*sigma.values(), *da._orbit_sums(fam, True).values()]
                for t in sigma.values()]
    for _ in range(2):
        for s, t in products:
            assert da.face_sum_product(s, t) == da.face_sum_product(_fresh(s), _fresh(t))


@pytest.mark.parametrize("fam", [A3, C2], ids=["A3", "C2"])
def test_a_right_factor_used_as_a_left_one_keeps_its_dicts_apart(monkeypatch, fam):
    """A sum used first as a right factor holds tallies, and its codes have no frames;
    used then as a left factor it gives the double loop's products, its codes get one
    frame each in the dict of the finite side, apart from its tallies, which stay as
    they were, and the tallies are still the only dict it keeps beside its codes."""
    monkeypatch.setattr(cf, "_frames", {})
    sigma = da._orbit_sums(fam, False)
    t = da.orbit_sum("sigma", [1], fam)
    for s in [*sigma.values(), *da._orbit_sums(fam, True).values()]:
        if t._codes.keys().isdisjoint(s._codes):
            da.face_sum_product(s, t)
    tallies = dict(t._tallies)
    assert tallies and not t._codes.keys() & cf._frames[None].keys()
    for u in sigma.values():
        assert da.face_sum_product(t, u)._codes == _double_loop(t, u)
    assert t._tallies == tallies and all(t._tallies[k] is v for k, v in tallies.items())
    assert t._codes.keys() <= cf._frames[None].keys() and cf._frames[None] is not t._tallies
    assert [k for k, v in vars(t).items() if isinstance(v, dict)] == ["_codes", "_tallies"]


@pytest.mark.parametrize("fam", [Family("C", 1), C2], ids=["C1", "C2"])
def test_a_necklace_sum_and_a_face_sum_of_one_code_keep_their_frames_apart(monkeypatch, fam):
    """Type C face and necklace codes share the one-block code.  A face sum and a
    necklace sum of it, used in turn as left factors against every sigma_K, each give
    the double loop's products, and each anchor's dict holds its own frame of the code:
    its block pattern and offsets that start at max(code) for a face, at 0 for a
    necklace; the face's frame holds the one table of lead 0."""
    monkeypatch.setattr(cf, "_frames", {})
    shared = ({cf._face_code(F) for F in cf.enumerate_faces(fam)}
              & {tf._necklace_code(N) for N in tf.enumerate_torus_faces(fam)})
    assert shared
    for code in shared:
        face = da.FaceSum.from_dict(fam, False, {cf._from_code(fam, code): 2})
        necklace = da.FaceSum.from_dict(fam, True, {tf._from_code(fam, code): 3})
        for t in da._orbit_sums(fam, False).values():
            for s in (face, necklace, face):
                assert da.face_sum_product(s, t)._codes == _double_loop(s, t)
        blocks = tuple(map(code.index, code))
        face, necklace = cf._frames[None][code], cf._frames[tf._anchor(fam)][code]
        assert face[:2] == (blocks, [len(code)] * len(code)) and list(face[2]) == [0]
        assert necklace[:2] == (blocks, [0] * len(code))


@pytest.mark.parametrize("fam", [A3, C2], ids=["A3", "C2"])
@pytest.mark.parametrize("torus", [False, True], ids=["faces", "necklaces"])
def test_cancelling_products_keep_no_zero(fam, torus):
    """Seeded signs on every face (or necklace) times the first chamber minus the last:
    some results cancel, none is kept with a zero coefficient, and the product is the
    sum of the products taken one pair at a time."""
    objects = list(tf.enumerate_torus_faces(fam) if torus else cf.enumerate_faces(fam))
    rng = random.Random(f"{fam.tag}{fam.rank}{torus}")
    s = da.FaceSum.from_dict(fam, torus, {X: rng.choice((-1, 1)) for X in objects})
    chambers = list(cf.enumerate_faces(fam, ColorSet(fam, fam.finite_indices())))
    t = da.FaceSum.from_dict(fam, False, {chambers[0]: 1, chambers[-1]: -1})
    anchor = tf._anchor(fam) if torus else None
    assert 0 in cf._refine_sums(s._codes, t._codes, anchor, {}).values()
    product = da.face_sum_product(s, t)
    assert product._codes and 0 not in product._codes.values()
    pairwise = da.FaceSum.from_dict(fam, torus, {})
    for X, cx in s.coeffs:
        for G, cg in t.coeffs:
            one = da.face_sum_product(da.FaceSum.from_dict(fam, torus, {X: cx}),
                                      da.FaceSum.from_dict(fam, False, {G: cg}))
            pairwise = pairwise + one
    assert product == pairwise


@pytest.mark.parametrize("torus", [False, True], ids=["faces", "necklaces"])
def test_a_public_face_sum_decodes_coeffs_on_first_read(torus):
    """A face sum's state is its codes alone: the constructor keeps no coeffs,
    which decode, sorted by face, when first read."""
    orbit = da.orbit_sum("sigmat" if torus else "sigma", [1], A3)
    s = da.FaceSum.from_dict(A3, torus, dict(reversed(orbit.coeffs)))
    assert "coeffs" not in s.__dict__ and s._codes == orbit._codes
    assert s.coeffs == orbit.coeffs and "coeffs" in s.__dict__


def test_face_sum_repr_shows_faces():
    """A face sum's repr lists its faces with their coefficients, as a ring
    element's does, not its position codes."""
    s = da.orbit_sum("sigma", [1], A3)
    assert repr(s) == f"FaceSum(family={A3!r}, torus=False, coeffs={s.coeffs!r})"
    assert "SetComposition" in repr(s) and "_codes" not in repr(s)


# ---------------------------------------------------------------------------
# the counted convolution against the pairwise route

BIG = 10**30


@st.composite
def _wide_factors(draw):
    """Two factors over A4 or C3 with coefficients near +-10^30, of mixed
    signs and many distinct values."""
    fam = draw(st.sampled_from([A4, C3]))
    elements = list(enumerate_group(fam))
    coeff = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6),
                      st.integers(BIG - 5, BIG + 5), st.integers(-BIG - 5, -BIG + 5))

    def factor():
        mapping = draw(st.dictionaries(st.sampled_from(elements), coeff,
                                       max_size=len(elements)))
        return da.GroupRingElement.from_dict(fam, mapping)

    return factor(), factor()


# Values of _WALK_FROM that force each path of multiply: the walk, the rows.
PATHS = (0, 10**9)
C3_ELEMENTS = list(enumerate_group(C3))
C3_REFLECTION = da._generators(C3)[1]


def _c3(mapping):
    return da.GroupRingElement.from_dict(C3, mapping)


# Coefficient groups of both signs on either side.
@example((_c3({w: (-2, 1, 5)[i % 3] for i, w in enumerate(C3_ELEMENTS)}),
          _c3({w: (3, -1)[i % 2] for i, w in enumerate(C3_ELEMENTS[:40])})))
# (e - s)(e + s) = e - s^2 cancels to zero for a simple reflection s.
@example((_c3({identity(C3): 1, C3_REFLECTION: -1}), _c3({identity(C3): 1, C3_REFLECTION: 1})))
# All 48 elements times _WALK_FROM of them, one group each: exactly at the
# threshold, where multiply walks.
@example((da.basis_element("x", [0, 1, 2], C3),
          _c3(dict.fromkeys(C3_ELEMENTS[:da._WALK_FROM], 1))))
@given(_wide_factors())
def test_counted_convolution_is_exact(pair):
    """On the path the threshold picks, and on each path forced."""
    a, b = pair
    expected = _naive_multiply(a, b)
    for walk_from in (da._WALK_FROM, *PATHS):
        with mock.patch.object(da, "_WALK_FROM", walk_from):
            product = da.multiply(a, b)
        assert product == expected
        assert _ordered(product) and all(type(c) is int for _, c in product.coeffs)


@pytest.mark.parametrize("fam", [A4, C3], ids=["A4", "C3"])
def test_counted_convolution_edge_cases(fam):
    elements = list(enumerate_group(fam))
    zero = da.GroupRingElement.from_dict(fam, {})
    lone = da.GroupRingElement.from_dict(fam, {elements[5]: -BIG})
    pair = da.GroupRingElement.from_dict(fam, {elements[0]: 1, elements[5]: -1})
    x = da.basis_element("x", [2], fam)
    cases = [zero, lone, pair, x]
    for a in cases:
        for b in cases:
            assert da.multiply(a, b) == _naive_multiply(a, b)
    assert da.multiply(zero, x).is_zero() and da.multiply(x, zero).is_zero()
    # (e_0 - e_5) * (e_0 + e_5) cancels to e_0^2 - e_5^2 exactly.
    plus = da.GroupRingElement.from_dict(fam, {elements[0]: 1, elements[5]: 1})
    assert da.multiply(pair, plus) == _naive_multiply(pair, plus)


@pytest.mark.parametrize("fam", [Family("A", 5), Family("C", 4), Family("C", 5)],
                         ids=["A5", "C4", "C5"])
def test_a_zero_factor_does_not_walk(monkeypatch, fam):
    """multiply(x_I, 0) once walked the Cayley graph once per coefficient group
    of x_I: 0 pairs passed the threshold, which is 0 for a zero right factor.
    At C5, past the default budget's table, it once read the refused table."""
    def refuse(self):
        raise AssertionError("the walk was taken")

    monkeypatch.delenv("STEINTORUS_BUDGET", raising=False)
    monkeypatch.setattr(da._GroupData, "walk", property(refuse))
    zeros = (da.GroupRingElement.from_dict(fam, {}), da.evaluate_expansion({}, "x", fam))
    for I in _legal_sets("x", fam):
        xI = da.basis_element("x", I, fam)
        for zero in zeros:
            assert da.multiply(xI, zero).is_zero() and da.multiply(zero, xI).is_zero()


def _by_descents(kind, J, fam):
    """x_J, y_J, x~_J or y~_J through the constructor, from each element's descents."""
    descents = descent_set if kind in ("x", "y") else affine_descent_set
    return da.GroupRingElement.from_dict(fam, {
        w: 1 for w in enumerate_group(fam)
        if descents(w).indices == J or kind in ("x", "xt") and descents(w).indices <= J})


@pytest.mark.parametrize("fam", KERNEL_FAMILIES, ids=["A3", "A4", "C2", "C3"])
def test_computed_and_constructed_elements_agree(fam):
    """An element the program computes keeps its dense coefficients and decodes
    coeffs on first read; the constructor keeps coeffs.  Each reading of a fresh
    computed element equals that of the same element built by the constructor."""
    e, s = identity(fam), da._generators(fam)[-1]
    top, full = frozenset(fam.finite_indices()), frozenset(fam.affine_indices())
    minus = da.GroupRingElement.from_dict(fam, {e: 1, s: -1})
    plus = da.GroupRingElement.from_dict(fam, {e: 1, s: 1})
    everything = _by_descents("x", top, fam).as_dict()
    cases = [  # (a computation, the same element through the constructor)
        (lambda: da.multiply(minus, plus), {}),  # e - s^2 cancels
        (lambda: da.evaluate_expansion({}, "x", fam), {}),
        (lambda: da.multiply(minus, minus), {e: 2, s: -2}),
        (lambda: da.evaluate_expansion({frozenset(): -3, top: 2}, "x", fam),
         {**dict.fromkeys(everything, 2), e: -1}),
        (lambda: da.basis_element("x", [], fam), {e: 1}),
        *((lambda kind=kind, J=J: da.basis_element(kind, J, fam),
           _by_descents(kind, J, fam).as_dict())
          for kind in ("x", "y", "xt", "yt") for J in _legal_sets(kind, fam)),
        (lambda: da.basis_element("xt", full, fam), everything),
    ]
    cases = [(make, da.GroupRingElement.from_dict(fam, mapping)) for make, mapping in cases]
    readings = (lambda g: g.coeffs, lambda g: g.as_dict(), repr, hash, lambda g: g.is_zero(),
                lambda g: g + minus, lambda g: minus + g, lambda g: g - minus,
                lambda g: minus - g, lambda g: g + g, lambda g: g - g)
    for make, reference in cases:
        assert make() == reference and reference == make()
        for read in readings:
            assert read(make()) == read(reference)
    computed = [make() for make, _ in cases]
    for (g, (_, h)), (g2, (_, h2)) in itertools.product(zip(computed, cases), repeat=2):
        assert (g == g2) == (h.coeffs == h2.coeffs)


@pytest.mark.parametrize("fam", KERNEL_FAMILIES, ids=["A3", "A4", "C2", "C3"])
def test_dense_coefficients_have_one_type(fam):
    """Equal elements keep equal dense coefficients, of one type, by every route:
    the walk and the rows of multiply, a basis element, an expansion evaluated,
    psi of a face-sum product and the constructor; the psi suite compares them."""
    finite = list(fam.finite_indices())
    I, J = finite[:1], finite[1:]
    xI, xJ, e = da.basis_element("x", I, fam), da.basis_element("x", J, fam), identity(fam)
    one = da.GroupRingElement.from_dict(fam, {e: 1})
    for route in PATHS:
        with mock.patch.object(da, "_WALK_FROM", route):
            products, units = da.multiply(xI, xJ), da.multiply(one, xJ)
        sigma = da._orbit_sums(fam, False)
        for equal in ([products, da.psi(da.face_sum_product(sigma[frozenset(J)],
                                                              sigma[frozenset(I)])),
                       da.evaluate_expansion(da.express_in_basis(products, "x"), "x", fam),
                       da.GroupRingElement.from_dict(fam, products.as_dict())],
                      [units, xJ, da.GroupRingElement.from_dict(fam, xJ.as_dict())]):
            assert {type(g._dense) for g in equal} == {tuple}
            assert all(g._dense == equal[0]._dense for g in equal)


@pytest.mark.parametrize("fam", [Family("A", 5), C3], ids=["A5", "C3"])
def test_a_suite_entry_decodes_no_coeffs(monkeypatch, fam):
    """One solomon and one module entry, on both paths of multiply, read the dense
    coefficients of the elements they compute and decode no coeffs."""
    def refuse(self):
        raise AssertionError("coeffs were decoded")

    finite, affine = list(fam.finite_indices()), list(fam.affine_indices())
    entries = [("x", finite[:1], finite[1:]), ("xt", finite[-1:], [affine[0], affine[-1]])]
    monkeypatch.setattr(da.GroupRingElement, "coeffs", property(refuse))
    results = []
    for walk_from in PATHS:
        monkeypatch.setattr(da, "_WALK_FROM", walk_from)
        for kind, I, J in entries:
            factors = da.basis_element("x", I, fam), da.basis_element(kind, J, fam)
            product = da.multiply(*factors)
            expansion = da.express_in_basis(product, kind)
            results.append((factors, product, da.evaluate_expansion(expansion, kind, fam)))
    monkeypatch.undo()
    for factors, product, evaluated in results:
        assert evaluated == product == _naive_multiply(*factors)


@pytest.mark.parametrize("fam", [A4, C3], ids=["A4", "C3"])
def test_every_module_product_matches_naive_route(monkeypatch, fam):
    """Every x_I * x_J and x_I * x~_J, on both paths of multiply."""
    for kind in ("x", "xt"):
        for I in _legal_sets("x", fam):
            xI = da.basis_element("x", I, fam)
            for J in _legal_sets(kind, fam):
                right = da.basis_element(kind, J, fam)
                expected = _naive_multiply(xI, right)
                for walk_from in PATHS:
                    monkeypatch.setattr(da, "_WALK_FROM", walk_from)
                    assert da.multiply(xI, right) == expected


@pytest.mark.parametrize("fam", [Family("A", 5), Family("C", 4)], ids=["A5", "C4"])
def test_the_walk_reads_no_row(monkeypatch, fam):
    """Once the walk is built, a product at the threshold reads nothing of the
    table, and one below it reads the rows: the whole group times _WALK_FROM
    elements, then times one element fewer."""
    da._data(fam).walk
    elements = list(enumerate_group(fam))

    def refuse(self):
        raise AssertionError("the rows were read")

    monkeypatch.setattr(da._GroupData, "mult", property(refuse))
    group = da.basis_element("x", fam.finite_indices(), fam)
    assert len(group.coeffs) == len(elements)
    at = da.GroupRingElement.from_dict(fam, dict.fromkeys(elements[-da._WALK_FROM:], 1))
    assert da.multiply(group, at) == _naive_multiply(group, at)
    below = da.GroupRingElement.from_dict(fam, dict.fromkeys(elements[1 - da._WALK_FROM:], 1))
    with pytest.raises(AssertionError, match="rows were read"):
        da.multiply(group, below)


C5 = Family("C", 5)


def test_multiply_walks_past_the_default_table_at_C5(monkeypatch):
    """Under the default budget the |W|^2 table of C5 (14,745,600 products) is
    refused, and a walk read off that table was refused with it.  x_{0123} x_{1234}
    walks on composed columns, builds no table, and is the psi image of its solomon
    table entry."""
    monkeypatch.delenv("STEINTORUS_BUDGET", raising=False)
    monkeypatch.setattr(da, "_group_cache", {})
    I, J = [0, 1, 2, 3], [1, 2, 3, 4]
    product = da.multiply(da.basis_element("x", I, C5), da.basis_element("x", J, C5))
    assert "mult" not in da._data(C5).__dict__
    entry = next(e for e in da.solomon_table(C5)["entries"] if e["I"] == I and e["J"] == J)
    expansion = {frozenset(json.loads(K)): c for K, c in entry["coeffs"].items()}
    assert product == da.evaluate_expansion(expansion, "x", C5)


def test_the_path_of_multiply_is_chosen_by_the_default_budget(monkeypatch):
    """A raised budget admits the C5 table, but multiply past the default budget
    walks whatever the budget: x_{} x_{} builds no table."""
    monkeypatch.setenv("STEINTORUS_BUDGET", "100000000")
    monkeypatch.setattr(da, "_group_cache", {})
    x = da.basis_element("x", [], C5)
    assert da.multiply(x, x) == x
    assert "walk" in da._data(C5).__dict__ and "mult" not in da._data(C5).__dict__


def test_the_walk_refuses_A8_before_any_mask(monkeypatch):
    """The walk's masks at A8 are 40320^2 / 64 words: refused under the default
    budget before any generator's column is composed."""
    def refuse(family):
        raise AssertionError("a column was composed")

    monkeypatch.delenv("STEINTORUS_BUDGET", raising=False)
    monkeypatch.setattr(da, "_group_cache", {})
    monkeypatch.setattr(da, "_generators", refuse)
    x = da.basis_element("x", [], Family("A", 8))
    with pytest.raises(BudgetExceededError, match="mask words of the Cayley walk of .*: 25401600 "):
        da.multiply(x, x)


@pytest.mark.parametrize("fam", [A4, C3], ids=["A4", "C3"])
def test_the_walk_composes_the_columns_of_the_table(fam):
    """Each batch of the walk moves its parents by one simple generator: its
    classes and its children are those of that generator's column of mult."""
    data = da._GroupData(fam)
    inverse_of, batches, by_index = data.walk
    assert "mult" not in data.__dict__
    size = len(data.elements)
    order = sorted(range(size), key=by_index(range(size)).__getitem__)  # walk order
    columns = [[row[data.index_of[s.values]] for row in data.mult] for s in da._generators(fam)]
    moves = [{d: sum(1 << x for x, y in enumerate(column) if y - x == d)
              for d in {y - x for x, y in enumerate(column)}} for column in columns]
    child = 1
    for parents, classes in batches:
        column = columns[moves.index(classes)]
        for p in parents:
            assert order[child] == column[order[p]]
            child += 1
    assert order[0] == data.index_of[identity(fam).values] and child == size
    assert inverse_of == [data.index_of[inverse(w).values] for w in data.elements]


# ---------------------------------------------------------------------------
# the subset transform against the per-subset Moebius sum


def _naive_express(a, kind):
    """Walk the group in order, class by descent set, then invert by one
    signed sum over the classes above each index set."""
    family = a.family
    descents = descent_set if kind == "x" else affine_descent_set
    coeffs = a.as_dict()
    class_value, class_rep = {}, {}
    for w in enumerate_group(family):
        D = frozenset(descents(w).indices)
        v = coeffs.get(w, 0)
        if D not in class_value:
            class_value[D], class_rep[D] = v, w
        elif class_value[D] != v:
            raise NotInSpanError(f"not constant on the descent class {sorted(D)}",
                                 witness=(class_rep[D], w))
    expansion = {}
    for I in _legal_sets(kind, family):
        e = sum((-1) ** (len(J) - len(I)) * v
                for J, v in class_value.items() if I <= J)
        if e:
            expansion[I] = e
    return expansion


def _outcome(express, a, kind):
    try:
        return express(a, kind)
    except NotInSpanError as exc:
        return str(exc), exc.witness


@st.composite
def _class_constant_case(draw):
    """A class-constant element from a random expansion, and one or two
    coefficient changes."""
    fam = draw(st.sampled_from(KERNEL_FAMILIES))
    kind = draw(st.sampled_from(["x", "xt"]))
    expansion = draw(st.dictionaries(st.sampled_from(_legal_sets(kind, fam)),
                                     st.integers(-5, 5), max_size=8))
    a = da.evaluate_expansion(expansion, kind, fam)
    changes = draw(st.lists(st.tuples(st.sampled_from(list(enumerate_group(fam))),
                                      st.integers(-3, 3).filter(bool)),
                            min_size=1, max_size=2))
    return kind, a, changes


@given(_class_constant_case())
def test_subset_transform_matches_naive_inversion(case):
    kind, a, changes = case
    got = da.express_in_basis(a, kind)
    expected = _naive_express(a, kind)
    assert got == expected and list(got) == list(expected)
    assert da.evaluate_expansion(got, kind, a.family) == a
    coeffs = a.as_dict()
    for w, delta in changes:
        coeffs[w] = coeffs.get(w, 0) + delta
    perturbed = da.GroupRingElement.from_dict(a.family, coeffs)
    assert (_outcome(da.express_in_basis, perturbed, kind)
            == _outcome(_naive_express, perturbed, kind))


TABLES = {"module": (da.module_table, "xt"), "solomon": (da.solomon_table, "x")}


def _both_tables(families):
    """Parametrize over (kind, fam) for both tables; a module case is named
    by its family alone, a solomon case by 'solomon-' and its family."""
    cases = [(kind, fam) for kind in TABLES for fam in families]
    return pytest.mark.parametrize("kind, fam", cases, ids=[
        ("" if kind == "module" else f"{kind}-") + f"{fam.tag}{fam.rank}"
        for kind, fam in cases])


@_both_tables(KERNEL_FAMILIES)
def test_module_table_matches_the_ring(kind, fam):
    """Each entry's coefficients, evaluated over x (solomon) or x~ (module),
    give x_I * x_J or x_I * x~_J; the ring's own expansion of the product
    re-evaluates to it, and over the x basis it is the table's."""
    table, basis = TABLES[kind]
    for e in table(fam)["entries"]:
        expansion = {frozenset(json.loads(K)): c for K, c in e["coeffs"].items()}
        product = da.multiply(da.basis_element("x", e["I"], fam),
                              da.basis_element(basis, e["J"], fam))
        assert da.evaluate_expansion(expansion, basis, fam) == product, (e["I"], e["J"])
        ring = da.express_in_basis(product, basis)
        assert da.evaluate_expansion(ring, basis, fam) == product, (e["I"], e["J"])
        if kind == "solomon":
            assert ring == expansion, (e["I"], e["J"])


def _all_pairs_entries(kind, fam):
    """The table's entries from every product of a face of s_J with a face of
    sigma_I, s being sigma~ (module) or sigma (solomon), each orbit of s
    checked to be hit uniformly."""
    torus = kind == "module"
    sigma = da._orbit_sums(fam, False)
    lefts = da._orbit_sums(fam, True) if torus else sigma
    anchor = tf._anchor(fam) if torus else None
    entries = []
    for I in da._subsets(fam.finite_indices()):
        right = sigma[I]._codes
        for J in da._subsets(fam.affine_indices() if torus else fam.finite_indices(),
                             nonempty=torus):
            counts, kept = Counter(), {}
            for p in lefts[J]._codes:
                keys, results = cf._by_key(p, right, anchor, kept)
                counts.update(map(results.__getitem__, keys))
            expansion = {}
            for K, orbit in lefts.items():
                values = {counts[r] for r in orbit._codes}
                assert len(values) == 1, (sorted(I), sorted(J), sorted(K))
                if values != {0}:
                    expansion[K] = values.pop()
            entries.append({"I": sorted(I), "J": sorted(J), "coeffs": da._keyed(expansion)})
    return entries


@_both_tables([Family("A", r) for r in (2, 3, 4, 5)] + [Family("C", r) for r in (1, 2, 3)])
def test_module_table_matches_all_pairs(kind, fam):
    """One face per colour, scaled by the orbit sizes, gives the
    coefficients of the product over every pair of faces."""
    assert TABLES[kind][0](fam)["entries"] == _all_pairs_entries(kind, fam)


@pytest.mark.parametrize("kind, fam, calls", [("module", A4, 383), ("solomon", C3, 196)],
                         ids=["module-A4", "solomon-C3"])
def test_tables_refine_each_first_code_once_per_order(monkeypatch, kind, fam, calls):
    """One pass refines each left colour's first code against every face code, so the
    kernel runs once per distinct order, ties included, of the face codes on that code's
    blocks: 383 and 196 calls, where a pass per sigma_I made 680 and 377."""
    faces = [cf._face_code(G) for G in cf.enumerate_faces(fam)]
    expected = {}
    for s_J in da._orbit_sums(fam, kind == "module").values():
        p = next(iter(s_J._codes))
        pairs = [(x, y) for x, y in itertools.combinations(range(len(p)), 2) if p[x] == p[y]]
        expected[p] = len({tuple((q[x] > q[y]) - (q[x] < q[y]) for x, y in pairs)
                           for q in faces})
    refine, made = cf._refine, Counter()

    def counted(p, q, anchor=None):
        made[p] += 1
        return refine(p, q, anchor)

    monkeypatch.setattr(cf, "_refine", counted)
    TABLES[kind][0](fam)
    assert made == expected and sum(made.values()) == calls


@pytest.mark.parametrize("kind", ["solomon", "module"])
def test_a_table_refuses_an_orbit_hit_a_fractional_number_of_times(monkeypatch, capsys, kind):
    """A kernel whose first result lands in the largest left orbit breaks transitivity
    within a colour: the table raises, and `mult-table` exits 1 with one stderr line."""
    lefts = da._orbit_sums(A3, kind == "module")
    stray = next(iter(max(lefts.values(), key=lambda s: len(s._codes))._codes))
    by_key = cf._by_key

    def broken(p, qs, anchor, kept):
        first = not kept  # a table's first call finds its kept dict empty
        keys, results = by_key(p, qs, anchor, kept)
        if first:
            keys[0], results["stray"] = "stray", stray
        return keys, results

    monkeypatch.setattr(cf, "_by_key", broken)
    with pytest.raises(ValidationError, match="not hit a whole number of times"):
        TABLES[kind][0](A3)
    assert main(["mult-table", "--family", "A", "--rank", "3", "--kind", kind]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("validation error") and err.count("\n") == 1


def test_solomon_table_builds_no_group(monkeypatch):
    """With no group cached and the group walk refused, the A4 table is
    still the stored stdout of `mult-table --kind solomon`."""
    def refuse(*args):
        raise AssertionError("a group was built")

    monkeypatch.setattr(da, "_group_cache", {})
    monkeypatch.setattr(da, "enumerate_group", refuse)
    golden = pathlib.Path(__file__).resolve().parent / "golden" / "mult_table_solomon_A4.json"
    assert da.solomon_table(A4) == json.loads(golden.read_text())
    assert da._group_cache == {}


# ---------------------------------------------------------------------------
# sums are checked and canonical from their public constructors


def test_repeated_keys_are_read_one_way():
    """A repeated key adds up: as_dict, +, multiply and psi all read 3."""
    e = identity(A3)
    g = da.GroupRingElement(A3, ((e, 1), (e, 2)))
    assert g.as_dict() == {e: 3}
    assert (g + da.GroupRingElement(A3, ())).as_dict() == {e: 3}
    assert da.multiply(g, da.GroupRingElement.from_dict(A3, {e: 1})).as_dict() == {e: 3}
    U = cf.unit_face(A3)
    s = da.FaceSum(A3, False, ((U, 1), (U, 2)))
    assert s.as_dict() == {U: 3}
    assert (s + da.FaceSum(A3, False, ())).as_dict() == {U: 3}
    assert da.psi(s).as_dict() == {e: 3}


def test_sums_are_canonical():
    """Zeros drop out and keys sort, whatever order they come in."""
    elements = list(enumerate_group(A3))
    g = da.GroupRingElement(A3, ((elements[5], 2), (elements[1], 0), (elements[0], -1)))
    assert g.coeffs == ((elements[0], -1), (elements[5], 2))
    assert g == da.GroupRingElement.from_dict(A3, {elements[5]: 2, elements[0]: -1})
    assert g - g == da.GroupRingElement(A3, ())
    faces = list(cf.enumerate_faces(A3))
    s = da.FaceSum(A3, False, ((faces[3], 1), (faces[0], 4), (faces[2], 0)))
    assert s.coeffs == tuple(sorted(((faces[3], 1), (faces[0], 4))))


def test_ring_element_rejects_an_element_of_another_family():
    """A signed C3 element once reached multiply and express_in_basis as a
    KeyError, and the C3 identity was read as the A3 identity."""
    C3 = Family("C", 3)
    for w in (WeylElement(C3, (-1, 2, 3)), identity(C3)):
        with pytest.raises(FamilyMismatchError):
            da.GroupRingElement(A3, ((w, 1),))
    with pytest.raises(FamilyMismatchError):
        da.GroupRingElement.from_dict(A3, {identity(Family("A", 4)): 1})


def test_face_sum_rejects_a_face_of_another_type():
    """Once reached face_sum_product as an IndexError."""
    with pytest.raises(FamilyMismatchError):
        da.FaceSum(A3, False, ((cf.unit_face(Family("C", 3)), 1),))


def test_face_sum_rejects_a_key_of_the_wrong_kind():
    """A necklace in a finite sum once raised AttributeError."""
    N = next(tf.enumerate_torus_faces(A3))
    with pytest.raises(FamilyMismatchError):
        da.FaceSum(A3, False, ((N, 1),))
    with pytest.raises(FamilyMismatchError):
        da.FaceSum.from_dict(A3, True, {cf.unit_face(A3): 1})


def test_face_sum_rejects_a_face_of_another_rank():
    """psi once returned a 4-letter element for an A4 face in an A3 sum."""
    with pytest.raises(FamilyMismatchError):
        da.FaceSum(A3, False, ((cf.unit_face(Family("A", 4)), 1),))
    with pytest.raises(FamilyMismatchError):
        da.FaceSum(A3, True, ((next(tf.enumerate_torus_faces(Family("A", 4))), 1),))


@pytest.mark.parametrize("c", [1.5, True, "1", None], ids=repr)
@pytest.mark.parametrize("build", [
    lambda c: da.GroupRingElement(A3, ((identity(A3), c),)),
    lambda c: da.FaceSum(A3, False, ((cf.unit_face(A3), c),)),
    lambda c: da.FaceSum.from_dict(A3, True, {next(tf.enumerate_torus_faces(A3)): c}),
    lambda c: da.evaluate_expansion({frozenset(): c}, "x", A3),
], ids=["GroupRingElement", "FaceSum", "torus FaceSum", "evaluate_expansion"])
def test_coefficients_must_be_integers(build, c):
    """1.5 and True were once kept as coefficients, and "1" and None raised
    a bare TypeError; like a wire field, a coefficient must be an int."""
    with pytest.raises(ValidationError):
        build(c)


def test_face_sums_and_ring_elements_do_not_add():
    """FaceSum + GroupRingElement, and a ring element plus or minus 1 or
    None, once raised AttributeError; each is refused as a family mismatch."""
    s = da.orbit_sum("sigma", [1], A3)
    g = da.basis_element("x", [1], A3)
    for combine in (lambda: s + g, lambda: g + s, lambda: g + 1, lambda: g - 1,
                    lambda: g + None, lambda: g - None, lambda: s + 1):
        with pytest.raises(FamilyMismatchError):
            combine()


@pytest.mark.parametrize("call", [
    lambda s, x: da.multiply(x, s),
    lambda s, x: da.multiply(s, x),
    lambda s, x: da.face_sum_product(s, x),
    lambda s, x: da.face_sum_product(x, s),
    lambda s, x: da.psi(x),
    lambda s, x: da.express_in_basis(s, "x"),
], ids=["multiply(x, s)", "multiply(s, x)", "face_sum_product(s, x)",
        "face_sum_product(x, s)", "psi(x)", "express_in_basis(s)"])
def test_mixed_kinds_are_a_family_mismatch(call):
    """A face sum where a ring element belongs, or the reverse, once raised
    AttributeError; like FaceSum + GroupRingElement, it is a family mismatch."""
    with pytest.raises(FamilyMismatchError):
        call(da.orbit_sum("sigma", [1], A3), da.basis_element("x", [1], A3))


@pytest.mark.parametrize("call", [
    lambda F, N, w: cf.tits_product(F, N),
    lambda F, N, w: cf.tits_product(N, F),
    lambda F, N, w: tf.module_action(F, F),
    lambda F, N, w: tf.module_action(N, N),
    lambda F, N, w: cf.act(w, N),
    lambda F, N, w: tf.act(w, F),
], ids=["tits_product(F, N)", "tits_product(N, F)", "module_action(F, F)",
        "module_action(N, N)", "coxfaces.act(w, N)", "torusfaces.act(w, F)"])
def test_mixed_faces_and_necklaces_are_a_family_mismatch(call):
    """A necklace where a face belongs, or the reverse, once raised
    AttributeError in the Tits product, the module action and both actions."""
    with pytest.raises(FamilyMismatchError):
        call(cf.unit_face(A3), next(tf.enumerate_torus_faces(A3)), identity(A3))


@pytest.mark.parametrize("torus", [False, True], ids=["faces", "necklaces"])
def test_face_sums_add_on_codes(monkeypatch, torus):
    """+ adds the code dicts: no face is decoded, and opposite terms cancel."""
    s = da.face_sum_product(da.orbit_sum("sigmat" if torus else "sigma", [1], A3),
                            da.orbit_sum("sigma", [2], A3))
    double = da.FaceSum.from_dict(A3, torus, {F: 2 * c for F, c in s.coeffs})
    negated = da.FaceSum.from_dict(A3, torus, {F: -c for F, c in s.coeffs})
    zero = da.FaceSum(A3, torus, ())

    def refuse(family, code):
        raise AssertionError("a face was decoded")

    monkeypatch.setattr(cf, "_from_code", refuse)
    monkeypatch.setattr(tf, "_from_code", refuse)
    assert s + s == double and hash(s + s) == hash(double)
    assert s + negated == zero and hash(s + negated) == hash(zero)
    assert s + zero == s


def test_every_suite_and_table_has_its_work():
    """One registry row per suite and per table: a runner, a unit, a work
    formula in (g, f, t, c), and a refusal for each family tag it does not cover."""
    assert list(da._SUITES) == ["solomon", "module", "psi", "oracle", "lrb", "euler", "counts"]
    assert list(da._TABLES) == ["solomon", "module"]
    for row in (*da._SUITES.values(), *da._TABLES.values()):
        assert callable(row.run) and isinstance(row.unit, str)
        assert type(row.work(24, 75, 104, 15)) is int
        assert set(row.refuses) <= {"A", "C"}
        assert all(isinstance(refusal, str) for refusal in row.refuses.values())


# Each suite's and table's row, by the name its budget message gives it.
ROWS = {**{name: (da._SUITES, name) for name in da._SUITES},
        **{f"{name} table": (da._TABLES, name) for name in da._TABLES}}


@pytest.mark.parametrize("name", sorted(ROWS))
def test_work_is_checked_before_any_work(monkeypatch, name):
    """With the budget one below its work, a suite or table stops before it
    enumerates anything, and a cached group does not let it through."""
    da._data(A4).mult  # cached under the default budget
    rows, key = ROWS[name]
    row = rows[key]
    sizes = (A4.group_order(), cf.count_faces(A4), tf.count_torus_faces(A4),
             2 ** len(A4.affine_indices()) - 1)
    monkeypatch.setenv("STEINTORUS_BUDGET", str(row.work(*sizes) - 1))

    def refuse(*args):
        raise AssertionError("work started")

    for module, walk in ((da, "enumerate_group"), (cf, "enumerate_faces"),
                         (tf, "enumerate_torus_faces")):
        monkeypatch.setattr(module, walk, refuse)
    run = row.run if rows is da._TABLES else lambda family: da.verify(key, family)
    with pytest.raises(BudgetExceededError, match=row.unit):
        run(A4)


# The work of each suite and table from the README's formulas, with |W|, f, t
# and c = 24, 75, 104 and 15 at A4, and 48, 147, 208 and 15 at C3.  The oracle
# refuses C3 before it reads the budget.
WORK = [
    ("solomon", "group products", 576, 2304),
    ("module", "group products", 576, 2304),
    ("psi", "face products", 13425, 52185),
    ("oracle", "face products", 7800, None),
    ("lrb", "face products", 11250, 43218),
    ("euler", "torus faces", 104, 208),
    ("counts", "faces and torus faces", 104, 208),
    ("solomon table", "face products", 600, 1176),
    ("module table", "face products", 1125, 2205),
]


@pytest.mark.parametrize("name, family, unit, work", [
    pytest.param(name, family, unit, work, id=f"{name}-{family.tag}{family.rank}")
    for name, unit, *works in WORK for family, work in zip((A4, C3), works) if work])
def test_each_suite_and_table_reports_its_work(monkeypatch, name, family, unit, work):
    """A budget of n! lets the exact work be computed and refused; its message
    names the unit and the count, pinned here without reading the registry."""
    monkeypatch.setenv("STEINTORUS_BUDGET", str(math.factorial(family.rank)))
    kind = name.removesuffix(" table")
    run = TABLES[kind][0] if kind != name else lambda family: da.verify(name, family)
    what = f"{unit} of the {name}{'' if kind != name else ' suite'} for {family}: {work} "
    with pytest.raises(BudgetExceededError, match=re.escape(what)):
        run(family)


def test_a_suite_that_does_not_cover_the_family_is_refused_before_the_budget(monkeypatch):
    monkeypatch.setenv("STEINTORUS_BUDGET", "1")
    with pytest.raises(ValidationError, match="covers type A only"):
        da.verify("oracle", C2)


def test_verify_all_runs_every_suite_that_covers_the_family_in_order():
    report = da.verify("all", C3)
    assert [r["suite"] for r in report["reports"]] == [
        "solomon", "module", "psi", "lrb", "euler", "counts"]
    assert report["pass"]


# ---------------------------------------------------------------------------
# psi: each code's group element read once per family, without the group


def _all_codes(fam):
    """{code: one-line values} over every face and necklace of fam."""
    return {r: cf._w_of_code(fam, r) for torus in (False, True)
            for s in da._orbit_sums(fam, torus).values() for r in s._codes}


def test_psi_keeps_each_familys_elements_apart(monkeypatch):
    """A3 and C1 share codes that name different elements, so a memo keyed
    by the code alone would hand C1 an element of A3, or A3 one of C1."""
    C1 = Family("C", 1)
    a3, c1 = _all_codes(A3), _all_codes(C1)
    shared = a3.keys() & c1.keys()
    assert cf._pack((3, 3, 3)) in shared and cf._pack((3, 1, 3)) in shared
    assert all(a3[r] != c1[r] for r in shared)
    monkeypatch.setattr(da, "_element_cache", {})
    for fam in (A3, C1, A3):
        for kind, basis in (("sigma", "x"), ("sigmat", "xt")):
            for J, s in da._orbit_sums(fam, kind == "sigmat").items():
                assert da.psi(s) == da.basis_element(basis, J, fam)


def test_psi_reads_each_codes_element_once(monkeypatch):
    """Over every finite and module product at A4 and C3, run twice, psi
    reads each distinct code's element once, and none on the second pass."""
    products = []
    for fam in (A4, C3):
        sigma, sigmat = da._orbit_sums(fam, False), da._orbit_sums(fam, True)
        products += [(s, t) for s in (*sigma.values(), *sigmat.values())
                     for t in sigma.values()]
    w_of_code, calls = cf._w_of_code, Counter()

    def counted(family, code):
        calls[family, code] += 1
        return w_of_code(family, code)

    monkeypatch.setattr(da, "_element_cache", {})
    monkeypatch.setattr(cf, "_w_of_code", counted)
    distinct = set()
    for s, t in products:
        product = da.face_sum_product(s, t)
        distinct.update((s.family, r) for r in product._codes)
        da.psi(product)
    assert set(calls) == distinct and set(calls.values()) == {1}
    calls.clear()
    for s, t in products:
        da.psi(da.face_sum_product(s, t))
    assert not calls


@pytest.mark.parametrize("fam", [A3, A4, C2, C3], ids=["A3", "A4", "C2", "C3"])
@pytest.mark.parametrize("torus", [False, True], ids=["faces", "necklaces"])
def test_psi_is_exact_and_canonical_without_the_group(monkeypatch, fam, torus):
    """Signed sums of orbit sums, a * s_J - b * s_K for J inside K, cancel on
    the elements that both colours reach; psi of each is the sum of the
    faces' elements through the checked constructor, with no zero left."""
    def refuse(*args):
        raise AssertionError("a group was built")

    monkeypatch.setattr(da, "_group_cache", {})
    monkeypatch.setattr(da, "_element_cache", {})
    monkeypatch.setattr(da, "enumerate_group", refuse)
    w_of = tf.w_of_torus_face if torus else cf.w_of_face
    sums = {J: s.as_dict() for J, s in da._orbit_sums(fam, torus).items()}
    cancelled = 0
    for (J, faces_J), (K, faces_K) in itertools.product(sums.items(), repeat=2):
        if not J <= K:
            continue
        for a, b in ((1, 1), (2, 2), (3, 1)):
            mapping = {F: a for F in faces_J}
            for F in faces_K:
                mapping[F] = mapping.get(F, 0) - b
            s = da.FaceSum.from_dict(fam, torus, mapping)
            reference = da.GroupRingElement(fam, tuple((w_of(F), c) for F, c in s.coeffs))
            got = da.psi(s)
            assert got == reference and hash(got) == hash(reference)
            assert got.coeffs == reference.coeffs and all(c for _, c in got.coeffs)
            cancelled += len({w_of(F) for F in s.as_dict()}) > len(got.coeffs)
    assert cancelled
    assert da._group_cache == {}


def test_psi_of_a_lone_face_at_high_rank_builds_no_group(monkeypatch):
    def refuse(*args):
        raise AssertionError("a group was built")

    monkeypatch.setattr(da, "_group_cache", {})
    monkeypatch.setattr(da, "enumerate_group", refuse)
    for kind, J, fam in (("sigma", [], Family("A", 12)), ("sigmat", [9], Family("C", 9))):
        assert da.psi(da.orbit_sum(kind, J, fam)).as_dict() == {identity(fam): 1}
    assert da._group_cache == {}
