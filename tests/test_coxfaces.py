import itertools

import pytest
from hypothesis import given, strategies as hst

from steintorus.errors import BudgetExceededError, FamilyMismatchError, ValidationError
from steintorus.weyl import ColorSet, Family, WeylElement
from steintorus import coxfaces as cf
from steintorus import torusfaces as tf

A7 = Family("A", 7)
C5 = Family("C", 5)


def sc(fam, *blocks):
    return cf.SetComposition(fam, tuple(tuple(sorted(b)) for b in blocks))


def is_subface(F, G):
    """True iff F is obtained from G by merging consecutive blocks (F <= G)."""
    assert F.family == G.family
    fblocks, gblocks = F.full_blocks(), G.full_blocks()
    gi = 0
    for target in fblocks:
        remaining = set(target)
        while remaining:
            if gi >= len(gblocks) or not set(gblocks[gi]) <= remaining:
                return False
            remaining -= set(gblocks[gi])
            gi += 1
    return gi == len(gblocks)


def test_seven_element_product():
    F = sc(A7, (3, 5, 6, 7), (4,), (1, 2))
    G = sc(A7, (2, 6), (3, 5), (1, 7), (4,))
    got = cf.tits_product(F, G)
    assert got == sc(A7, (6,), (3, 5), (7,), (4,), (2,), (1,))


def test_unit_face():
    fam = Family("A", 4)
    u = cf.unit_face(fam)
    for F in cf.enumerate_faces(fam):
        assert cf.tits_product(u, F) == F
        assert cf.tits_product(F, u) == F


def test_type_c_product():
    F = cf.SymComposition.from_full(
        C5, [(-2, 1, 3, 5), (-4, 0, 4), (-5, -3, -1, 2)]
    )
    G = cf.SymComposition.from_full(
        C5, [(-3, 1, 5), (-4, -2, 0, 2, 4), (-5, -1, 3)]
    )
    expected = cf.SymComposition.from_full(
        C5,
        [(1, 5), (-2,), (3,), (-4, 0, 4), (-3,), (2,), (-5, -1)],
    )
    assert cf.tits_product(F, G) == expected


def test_symcomposition_validation():
    with pytest.raises(ValidationError):
        cf.SymComposition(C5, (1, 2), ())  # central block must contain 0
    with pytest.raises(ValidationError):
        cf.SymComposition.from_full(C5, [(-1, 0, 1), (2, 3), (4, 5)])


def test_w_of_face():
    F = sc(Family("A", 5), (1, 3, 4), (5,), (2,))
    assert cf.w_of_face(F).values == (1, 3, 4, 5, 2)
    G = cf.SymComposition(
        Family("C", 3), (-2, 0, 2), ((-3, 1),)
    )
    assert cf.w_of_face(G).values == (2, -3, 1)


def test_color_set():
    F = sc(Family("A", 5), (1, 3, 4), (5,), (2,))
    assert cf.color_set(F).sorted() == [3, 4]
    # type C: count the positive part of the central block, then accumulate,
    # excluding the final boundary
    G = cf.SymComposition.from_full(
        C5, [(-2, 1, 3, 5), (-4, 0, 4), (-5, -3, -1, 2)]
    )
    assert cf.color_set(G).sorted() == [1]
    chamber = cf.SymComposition(
        Family("C", 2), (0,), ((1,), (2,))
    )
    assert cf.color_set(chamber).sorted() == [0, 1]


def test_counts():
    assert cf.count_faces(Family("A", 3)) == 13
    assert cf.count_faces(Family("C", 2)) == 17
    assert sum(1 for _ in cf.enumerate_faces(Family("A", 4))) == 75
    assert cf.count_faces(Family("A", 4)) == 75


# Families whose every colour's walk is compared with the full walk.
BY_COLOR = [Family("A", n) for n in range(2, 7)] + [Family("C", n) for n in range(1, 5)]


def test_enumerate_by_color():
    """A colour's walk is the full walk filtered by color_set, order included."""
    for fam in BY_COLOR:
        full = [(F, cf.color_set(F)) for F in cf.enumerate_faces(fam)]
        indices = fam.finite_indices()
        for J in itertools.chain.from_iterable(
                itertools.combinations(indices, r) for r in range(len(indices) + 1)):
            color = ColorSet(fam, frozenset(J))
            expected = [F for F, c in full if c == color]
            assert list(cf.enumerate_faces(fam, color)) == expected, (fam, J)


def test_a_colour_walk_is_budgeted_by_its_own_orbit(monkeypatch):
    """A coloured walk was budgeted by every face of the family.  It passes at
    a budget of the entries it builds, its length times the n entries of one
    face, and stops one below, naming that exact number."""
    for fam in BY_COLOR:
        for walk, indices, nonempty in ((cf.enumerate_faces, fam.finite_indices(), 0),
                                        (tf.enumerate_torus_faces, fam.affine_indices(), 1)):
            for J in itertools.chain.from_iterable(itertools.combinations(indices, r)
                                                   for r in range(nonempty, len(indices) + 1)):
                color = ColorSet(fam, frozenset(J))
                entries = sum(1 for _ in walk(fam, color)) * fam.rank
                monkeypatch.setenv("STEINTORUS_BUDGET", str(entries))
                next(walk(fam, color))
                if entries > 1:
                    monkeypatch.setenv("STEINTORUS_BUDGET", str(entries - 1))
                    with pytest.raises(BudgetExceededError, match=f"least {entries} entries"):
                        next(walk(fam, color))
                monkeypatch.delenv("STEINTORUS_BUDGET")


def test_enumerated_faces_pass_the_constructor():
    """The walk builds its faces unchecked; each equals its rebuild through
    the checked constructor."""
    for fam in BY_COLOR:
        for F in cf.enumerate_faces(fam):
            rebuilt = (cf.SetComposition(fam, F.blocks) if fam.tag == "A"
                       else cf.SymComposition(fam, F.zero_block, F.right))
            assert F == rebuilt and hash(F) == hash(rebuilt)


def test_enumerate_refuses_foreign_and_non_integer_colors():
    """A colour of another family once gave faces of this one, and 1.0 or
    True once stood for the index 1."""
    A3 = Family("A", 3)
    with pytest.raises(FamilyMismatchError):
        next(cf.enumerate_faces(A3, ColorSet(Family("A", 5), frozenset({1}))))
    for bad in (1.0, True):
        with pytest.raises(ValidationError):
            next(cf.enumerate_faces(A3, ColorSet(A3, frozenset({bad}))))


def test_is_subface():
    G = sc(Family("A", 4), (2,), (4,), (1, 3))
    F = sc(Family("A", 4), (2, 4), (1, 3))
    assert is_subface(F, G)
    assert not is_subface(G, F)
    assert is_subface(cf.unit_face(Family("A", 4)), G)


def test_group_action_permutes_blocks():
    w = WeylElement(Family("A", 4), (2, 3, 4, 1))
    F = sc(Family("A", 4), (1, 2), (3,), (4,))
    assert cf.act(w, F) == sc(Family("A", 4), (2, 3), (4,), (1,))


def test_sign_vector_roundtrip_a():
    fam = Family("A", 3)
    seen = set()
    for F in cf.enumerate_faces(fam):
        v = cf.sign_vector(F)
        assert v not in seen  # faces are separated by their sign vectors
        seen.add(v)


def compose_signs(f, g):
    """Componentwise sign composition: take f's entry unless it is zero."""
    assert f.family == g.family
    return cf.FiniteSignVector(
        f.family, tuple(a if a != "0" else b for a, b in zip(f.signs, g.signs))
    )


def test_sign_vector_composition_matches_product():
    fam = Family("C", 2)
    faces = list(cf.enumerate_faces(fam))
    for F, G in itertools.product(faces, repeat=2):
        lhs = cf.sign_vector(cf.tits_product(F, G))
        rhs = compose_signs(cf.sign_vector(F), cf.sign_vector(G))
        assert lhs == rhs


def test_wire_roundtrip():
    F = sc(A7, (3, 5, 6, 7), (4,), (1, 2))
    assert cf.from_wire(A7, cf.to_wire(F)) == F
    G = cf.SymComposition.from_full(
        C5, [(-2, 1, 3, 5), (-4, 0, 4), (-5, -3, -1, 2)]
    )
    assert cf.from_wire(C5, cf.to_wire(G)) == G
    with pytest.raises(ValidationError):
        cf.from_wire(A7, {"nope": 1})


@hst.composite
def faces_a(draw, n=4):
    items = list(range(1, n + 1))
    order = draw(hst.permutations(items))
    cuts = draw(hst.sets(hst.integers(min_value=1, max_value=n - 1)))
    bounds = [0] + sorted(cuts) + [n]
    blocks = [
        tuple(sorted(order[a:b])) for a, b in zip(bounds, bounds[1:])
    ]
    return cf.SetComposition(Family("A", n), tuple(blocks))


@given(faces_a(), faces_a())
def test_left_regular_band_laws(F, G):
    FG = cf.tits_product(F, G)
    assert cf.tits_product(F, F) == F
    assert cf.tits_product(FG, F) == FG


@given(faces_a(), faces_a(), faces_a())
def test_associativity(F, G, H):
    assert cf.tits_product(cf.tits_product(F, G), H) == cf.tits_product(
        F, cf.tits_product(G, H)
    )


@given(faces_a(), faces_a())
def test_product_refines_left_factor(F, G):
    assert is_subface(F, cf.tits_product(F, G))
