import itertools
import json
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from steintorus.errors import (
    BudgetExceededError,
    FamilyMismatchError,
    NotInSpanError,
    ValidationError,
)
from steintorus.weyl import (
    Family,
    WeylElement,
    affine_descent_set,
    descent_set,
    enumerate_group,
    identity,
)
from steintorus import affine_oracle as ao
from steintorus import coxfaces as cf
from steintorus import descent_algebra as da
from steintorus import torusfaces as tf

A3 = Family("A", 3)
C2 = Family("C", 2)


def test_basis_element_supports():
    # x_J sums the elements whose descent set is contained in J
    x = da.basis_element("x", [2], A3)
    assert {w.values for w, c in x.coeffs} == {(1, 2, 3), (1, 3, 2), (2, 3, 1)}
    assert all(c == 1 for _, c in x.coeffs)
    y = da.basis_element("y", [2], A3)
    assert {w.values for w, c in y.coeffs} == {(1, 3, 2), (2, 3, 1)}


def test_basis_index_validation():
    with pytest.raises(ValidationError):
        da.basis_element("x", [3], A3)  # affine index not allowed for x
    with pytest.raises(ValidationError):
        da.basis_element("xt", [], A3)
    with pytest.raises(ValidationError):
        da.basis_element("yt", [1, 2, 3], A3)  # the full affine class is empty
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


@pytest.mark.parametrize("fam", [A3, C2], ids=["A3", "C2"])
def test_lrb_catches_a_broken_kernel(monkeypatch, fam):
    # A kernel that returns its right factor keeps idempotence and
    # associativity, and breaks every other law.
    passing = da.verify("lrb", fam)
    monkeypatch.setattr(cf, "_refine", lambda p, q, anchor=None: q)
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

    sigma, sigmat = da._orbit_sums(fam)
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
    monkeypatch.setattr(tf, "module_action", lambda N, G: N)
    report = da.verify("oracle", A3)
    failures = [f for f in report["failures"] if f["check"] == "action equivalence"]
    assert len(failures) == expected
    assert not report["pass"]


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


def test_evaluate_expansion_rejects_illegal_index_sets():
    for fam in KERNEL_FAMILIES:
        with pytest.raises(ValidationError):
            da.evaluate_expansion({frozenset(): 1}, "xt", fam)


# ---------------------------------------------------------------------------
# the counted convolution against the pairwise route

A4 = Family("A", 4)
C3 = Family("C", 3)
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


@given(_wide_factors())
def test_counted_convolution_is_exact(pair):
    a, b = pair
    product = da.multiply(a, b)
    assert product == _naive_multiply(a, b)
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


@pytest.mark.parametrize("fam", [A4, C3], ids=["A4", "C3"])
def test_every_module_product_matches_naive_route(fam):
    for I in _legal_sets("x", fam):
        xI = da.basis_element("x", I, fam)
        for J in _legal_sets("xt", fam):
            xtJ = da.basis_element("xt", J, fam)
            assert da.multiply(xI, xtJ) == _naive_multiply(xI, xtJ)


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


@pytest.mark.parametrize("fam", KERNEL_FAMILIES, ids=lambda f: f"{f.tag}{f.rank}")
def test_module_table_matches_the_ring(fam):
    """Each entry's coefficients, evaluated over x~, give x_I * x~_J."""
    for e in da.module_table(fam)["entries"]:
        expansion = {frozenset(json.loads(K)): c for K, c in e["coeffs"].items()}
        product = da.multiply(da.basis_element("x", e["I"], fam),
                              da.basis_element("xt", e["J"], fam))
        assert da.evaluate_expansion(expansion, "xt", fam) == product, (e["I"], e["J"])


def _all_pairs_module_entries(fam):
    """The module table's entries from every product of a face of sigma~_J
    with a face of sigma_I, each torus orbit checked to be hit uniformly."""
    sigma, sigmat = da._orbit_sums(fam)
    anchor = tf._anchor(fam)
    entries = []
    for I in da._subsets(fam.finite_indices()):
        right = sigma[I]._codes
        for J in da._subsets(fam.affine_indices(), nonempty=True):
            counts = Counter(r for p in sigmat[J]._codes
                             for r in cf._refine_all(p, right, anchor))
            expansion = {}
            for K, orbit in sigmat.items():
                values = {counts[r] for r in orbit._codes}
                assert len(values) == 1, (sorted(I), sorted(J), sorted(K))
                if values != {0}:
                    expansion[K] = values.pop()
            entries.append({"I": sorted(I), "J": sorted(J), "coeffs": da._keyed(expansion)})
    return entries


@pytest.mark.parametrize("fam", [Family("A", r) for r in (2, 3, 4, 5)]
                         + [Family("C", r) for r in (1, 2, 3)],
                         ids=lambda f: f"{f.tag}{f.rank}")
def test_module_table_matches_all_pairs(fam):
    """One torus face per colour, scaled by the orbit sizes, gives the
    coefficients of the product over every pair of faces."""
    assert da.module_table(fam)["entries"] == _all_pairs_module_entries(fam)


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
    assert set(da._WORK) == set(da._SUITES) | {"solomon table", "module table"}


@pytest.mark.parametrize("name", sorted(da._WORK))
def test_work_is_checked_before_any_work(monkeypatch, name):
    """With the budget one below its work, a suite or table stops before it
    enumerates anything, and a cached group does not let it through."""
    da._data(A4).mult  # cached under the default budget
    unit, work = da._WORK[name]
    sizes = (A4.group_order(), cf.count_faces(A4), tf.count_torus_faces(A4),
             2 ** len(A4.affine_indices()) - 1)
    monkeypatch.setenv("STEINTORUS_BUDGET", str(work(*sizes) - 1))

    def refuse(*args):
        raise AssertionError("work started")

    for module, walk in ((da, "enumerate_group"), (cf, "enumerate_faces"),
                         (tf, "enumerate_torus_faces")):
        monkeypatch.setattr(module, walk, refuse)
    run = {"solomon table": da.solomon_table, "module table": da.module_table}.get(
        name, lambda family: da.verify(name, family))
    with pytest.raises(BudgetExceededError, match=unit):
        run(A4)
