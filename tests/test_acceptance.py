"""Acceptance checks, one test (and one pass/fail line under -v) per criterion.

Ranks use the symmetric-group convention: family A with rank n is the
symmetric group on n letters.
"""

import time

from steintorus.weyl import Family
from steintorus import coxfaces as cf
from steintorus import descent_algebra as da
from steintorus import torusfaces as tf


def _line(num, ok, note):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {note}")
    assert ok, note


def test_criterion_1_worked_examples():
    ok = True
    # (a) finite product on seven elements
    A7 = Family("A", 7)
    F = cf.SetComposition(A7, ((3, 5, 6, 7), (4,), (1, 2)))
    G = cf.SetComposition(A7, ((2, 6), (3, 5), (1, 7), (4,)))
    expected = cf.SetComposition(A7, ((6,), (3, 5), (7,), (4,), (2,), (1,)))
    ok &= cf.tits_product(F, G) == expected
    # (b) necklace action on six elements
    A6 = Family("A", 6)
    N = tf.make_spin(A6, [(2,), (4, 6), (1, 3, 5)], [2, 4, 1])
    H = cf.SetComposition(A6, ((2, 5, 6), (1, 3), (4,)))
    R = tf.module_action(N, H)
    ok &= R.blocks == ((1, 3), (2,), (6,), (4,), (5,))
    ok &= R.labels == (1, 2, 3, 4, 5)
    # (c) type C product and necklace action
    C5 = Family("C", 5)
    Fc = cf.SymComposition.from_full(
        C5, [(-2, 1, 3, 5), (-4, 0, 4), (-5, -3, -1, 2)]
    )
    Gc = cf.SymComposition.from_full(
        C5, [(-3, 1, 5), (-4, -2, 0, 2, 4), (-5, -1, 3)]
    )
    ok &= cf.tits_product(Fc, Gc) == cf.SymComposition.from_full(
        C5, [(1, 5), (-2,), (3,), (-4, 0, 4), (-3,), (2,), (-5, -1)]
    )
    Nc = tf.SymNecklace(C5, (-2, 0, 2), ((4,), (-3, 1, 5)), None)
    Hc = cf.SymComposition.from_full(
        C5, [(-5, 3), (-4, 1), (-2, 0, 2), (-1, 4), (-3, 5)]
    )
    Rc = tf.module_action(Nc, Hc)
    ok &= Rc == tf.SymNecklace(C5, (-2, 0, 2), ((4,), (1,), (-3, 5)), None)
    # (d) splits and w-values of the two six-element spins
    N1 = tf.make_spin(A6, [(4, 6), (1, 3, 5), (2,)], [4, 1, 2])
    N2 = tf.make_spin(A6, [(4, 6), (1, 3, 5), (2,)], [3, 6, 1])
    s1, s2 = tf.split(N1), tf.split(N2)
    ok &= s1.blocks == ((5,), (2,), (4, 6)) and s1.tail == (1, 3)
    ok &= s2.blocks == ((2,), (4, 6), (1, 3, 5)) and s2.tail is None
    ok &= tf.w_of_torus_face(N1).values == (5, 2, 4, 6, 1, 3)
    ok &= tf.w_of_torus_face(N2).values == (2, 4, 6, 1, 3, 5)
    # (e) type C torus face invariants.  The color set here is {1, 2, 5}:
    # block sizes from the positive center are 1, 1, 3, so the running sums
    # are 1, 2, 5 and the descent set {2, 5} of w must be contained in it.
    ok &= tf.w_of_torus_face(Nc).values == (2, 4, -3, 1, 5)
    ok &= tf.color_set(Nc).sorted() == [1, 2, 5]
    _line(1, ok, "worked examples reproduce exactly")


def test_criterion_2_rank_three_end_to_end():
    A3 = Family("A", 3)
    face_lhs = da.face_sum_product(
        da.orbit_sum("sigmat", [1, 2], A3), da.orbit_sum("sigma", [2], A3)
    )
    face_rhs = da.orbit_sum("sigmat", [1, 2], A3) + da.orbit_sum(
        "sigmat", [1, 2, 3], A3
    )
    ring_lhs = da.multiply(
        da.basis_element("x", [2], A3), da.basis_element("xt", [1, 2], A3)
    )
    ring_rhs = da.basis_element("xt", [1, 2], A3) + da.basis_element(
        "xt", [1, 2, 3], A3
    )
    ok = (
        face_lhs == face_rhs
        and ring_lhs == ring_rhs
        and da.psi(face_lhs) == ring_lhs
    )
    _line(2, ok, "rank-3 module identity on faces, in the ring, and under psi")


def test_criterion_3_structure_constants():
    t0 = time.process_time()
    ok = True
    for fam in [Family("A", n) for n in range(2, 6)] + [
        Family("C", n) for n in range(1, 4)
    ]:
        for suite in ("solomon", "module"):
            report = da.verify(suite, fam)
            ok &= report["pass"]
    elapsed = time.process_time() - t0
    ok &= elapsed < 60
    _line(3, ok, f"solomon+module exhaustive at all ranks in {elapsed:.1f}s")


def test_criterion_4_psi_intertwiner():
    t0 = time.process_time()
    ok = True
    for fam in [Family("A", n) for n in range(2, 6)] + [
        Family("C", n) for n in range(1, 4)
    ]:
        ok &= da.verify("psi", fam)["pass"]
    elapsed = time.process_time() - t0
    ok &= elapsed < 60
    _line(4, ok, f"psi intertwiner exhaustive at all ranks in {elapsed:.1f}s")


def test_criterion_5_oracle_equivalence():
    t0 = time.process_time()
    ok = True
    for n in (2, 3, 4):
        ok &= da.verify("oracle", Family("A", n))["pass"]
    elapsed = time.process_time() - t0
    ok &= elapsed < 30
    _line(5, ok, f"sign-vector oracle agrees exhaustively in {elapsed:.1f}s")


def test_criterion_6_structural_counts():
    ok = True
    for fam in [Family("A", n) for n in range(2, 5)] + [
        Family("C", n) for n in range(1, 4)
    ]:
        ok &= da.verify("lrb", fam)["pass"]
        ok &= da.verify("counts", fam)["pass"]
    for fam in [Family("A", n) for n in range(2, 7)] + [
        Family("C", n) for n in range(1, 5)
    ]:
        ok &= da.verify("euler", fam)["pass"]
    by_dim = {}
    for N in tf.enumerate_torus_faces(Family("A", 3)):
        by_dim[len(N.blocks)] = by_dim.get(len(N.blocks), 0) + 1
    ok &= by_dim == {1: 3, 2: 9, 3: 6}
    ok &= cf.count_faces(Family("A", 3)) == 13
    _line(6, ok, "band laws, counts, Euler characteristic, censuses")


def test_criterion_7_scope():
    # No quantitative claims beyond the small-rank examples exist; the
    # property suites above stand in for the general geometric statements.
    # Each registry row covers every family tag its row does not refuse.
    covered = {tag: {name for name, row in da._SUITES.items() if tag not in row.refuses}
               for tag in "AC"}
    ok = covered["A"] == {"solomon", "module", "psi", "oracle", "lrb", "euler", "counts"}
    ok &= covered["C"] == covered["A"] - {"oracle"}
    _line(7, ok, "general-type scope covered by the property suites")
