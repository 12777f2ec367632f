import itertools

import pytest
from hypothesis import given, strategies as hst

from steintorus.errors import ValidationError
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
from steintorus import descent_algebra as da

A5 = Family("A", 5)
C5 = Family("C", 5)


def test_family_validation():
    # A_0 (type A, rank 1) is the empty root system.
    for tag, rank in [("B", 3), ("A", 0), ("A", 1)]:
        with pytest.raises(ValidationError):
            Family(tag, rank)


def test_family_refuses_a_rank_that_is_not_an_int():
    """2.5 and 1.0 were once accepted, so that group_order raised TypeError;
    True was taken as rank 1; "3" and None leaked TypeError."""
    for tag, rank in [("A", 2.5), ("C", 1.0), ("C", True), ("A", "3"), ("C", None)]:
        with pytest.raises(ValidationError):
            Family(tag, rank)


def test_group_element_refuses_values_that_are_not_ints():
    """At A3, (1.0, 2, 3), (True, 2, 3) and the unhashable list [1, 2, 3] were
    once accepted; at C2, ("a", "b") leaked TypeError from abs."""
    A3, C2 = Family("A", 3), Family("C", 2)
    for fam, values in [(A3, (1.0, 2, 3)), (A3, (True, 2, 3)), (A3, [1, 2, 3]),
                        (C2, ("a", "b")), (A3, (-1, 2, 3)), (A3, (1, 2)), (C2, (2, 2))]:
        with pytest.raises(ValidationError):
            WeylElement(fam, values)
    assert WeylElement(C2, (-2, 1))(-1) == 2 and WeylElement(A3, (3, 1, 2))(1) == 3


def test_index_ranges():
    assert list(Family("A", 4).finite_indices()) == [1, 2, 3]
    assert list(Family("A", 4).affine_indices()) == [1, 2, 3, 4]
    assert list(Family("C", 4).finite_indices()) == [0, 1, 2, 3]
    assert list(Family("C", 4).affine_indices()) == [0, 1, 2, 3, 4]
    assert Family("A", 4).affine_index == 4
    assert Family("C", 4).affine_index == 4


def test_group_orders():
    assert Family("A", 4).group_order() == 24
    assert Family("C", 3).group_order() == 48
    assert len(list(enumerate_group(Family("C", 2)))) == 8


@pytest.mark.parametrize("tag, rank", [("A", n) for n in range(2, 6)]
                         + [("C", n) for n in range(1, 6)])
def test_group_is_every_signed_permutation_in_lexicographic_order(tag, rank):
    """Type C's walk holds only the shorter rank's values, yet it yields the
    sorted list of every signed permutation, as a sort of all of them would."""
    signs = [(1,)] * rank if tag == "A" else [(-1, 1)] * rank
    expected = sorted(tuple(s * p for s, p in zip(sign, perm))
                      for perm in itertools.permutations(range(1, rank + 1))
                      for sign in itertools.product(*signs))
    assert [w.values for w in enumerate_group(Family(tag, rank))] == expected


def test_descents_type_a():
    w = WeylElement(A5, (2, 5, 4, 1, 3))
    assert descent_set(w).sorted() == [2, 3]
    assert affine_descent_set(w).sorted() == [2, 3, 5]


def test_descents_type_c():
    # positive-half one-line notation; w_0 = 0 and the affine test is w_n > 0
    w = WeylElement(C5, (2, 5, -1, -4, 3))
    assert descent_set(w).sorted() == [2, 3]
    assert affine_descent_set(w).sorted() == [2, 3, 5]
    v = WeylElement(C5, (-2, 5, -1, -4, 3))
    assert affine_descent_set(v).sorted() == [0, 2, 3, 5]


def test_identity_descents():
    for fam in (Family("A", 3), Family("C", 3)):
        e = identity(fam)
        assert descent_set(e).sorted() == []
    # for A with n >= 2 the identity has the single affine descent at n
    assert affine_descent_set(identity(Family("A", 3))).sorted() == [3]
    # for C the identity has w_n = n > 0
    assert affine_descent_set(identity(Family("C", 3))).sorted() == [3]


def test_signed_application():
    w = WeylElement(Family("C", 3), (-2, 3, -1))
    assert w(1) == -2
    assert w(-1) == 2
    assert w(0) == 0
    assert w(-3) == 1


def multiply(u, v):
    """u * v through the group ring's multiplication table."""
    one = da.multiply(da.GroupRingElement.from_dict(u.family, {u: 1}),
                      da.GroupRingElement.from_dict(v.family, {v: 1}))
    ((w, c),) = one.coeffs
    assert c == 1
    return w


def test_multiply_inverse():
    u = WeylElement(Family("C", 3), (-2, 3, -1))
    assert multiply(u, inverse(u)) == identity(u.family)
    assert multiply(inverse(u), u) == identity(u.family)


GROUP_FAMILIES = [Family("A", n) for n in range(2, 7)] + [Family("C", n) for n in range(1, 5)]


def test_computed_elements_and_descents_pass_the_constructors():
    """The group layer builds its results unchecked; each equals, and hashes
    like, its rebuild through the checked constructor."""
    for fam in GROUP_FAMILIES:
        for w in enumerate_group(fam):
            for v in (w, inverse(w)):
                rebuilt = WeylElement(fam, v.values)
                assert v == rebuilt and hash(v) == hash(rebuilt)
            for D in (descent_set(w), affine_descent_set(w)):
                rebuilt = ColorSet(fam, D.indices)
                assert D == rebuilt and hash(D) == hash(rebuilt)
        assert identity(fam) == WeylElement(fam, tuple(range(1, fam.rank + 1)))
    with pytest.raises(ValidationError):
        WeylElement(Family("A", 3), (1, 1, 2))


@pytest.mark.parametrize("fam", [Family("A", 4), Family("C", 3)], ids=["A4", "C3"])
def test_the_group_layer_checks_nothing_it_computes(monkeypatch, fam):
    def refuse(self):
        raise AssertionError(f"{type(self).__name__} re-checked")

    monkeypatch.setattr(WeylElement, "__post_init__", refuse)
    monkeypatch.setattr(ColorSet, "__post_init__", refuse)
    elements = list(enumerate_group(fam))
    assert len(elements) == fam.group_order()
    assert identity(fam).values == tuple(range(1, fam.rank + 1))
    for w in elements:
        assert inverse(inverse(w)) == w
        assert descent_set(w).indices <= affine_descent_set(w).indices
    assert len(da._generators(fam)) == len(fam.finite_indices())


def test_colorset_range():
    with pytest.raises(ValidationError):
        ColorSet(Family("A", 3), frozenset({4}))
    for bad in (1.0, True, None, "1"):  # 1.0 and True once meant the index 1
        with pytest.raises(ValidationError):
            ColorSet(Family("A", 3), frozenset({2, bad}))
    assert 2 in ColorSet(Family("A", 3), frozenset({2, 3}))


def test_colorset_keeps_any_collection_as_a_frozenset():
    """A set or a list is stored as a frozenset, so the colour set hashes
    like its frozenset twin (a set or a list once made it unhashable); a
    non-collection is refused."""
    A3 = Family("A", 3)
    for indices in ({1}, [1, 2], (2, 1, 2), frozenset({3})):
        color, twin = ColorSet(A3, indices), ColorSet(A3, frozenset(indices))
        assert type(color.indices) is frozenset
        assert color == twin and hash(color) == hash(twin)
    for bad in (5, None, 1.5):
        with pytest.raises(ValidationError):
            ColorSet(A3, bad)


def test_colorset_checks_each_index_before_the_frozenset_merges_them():
    """[1, True] was once accepted, as the frozenset merges True into 1, while
    [True] and the index set [1, True] of basis_element were refused."""
    A3 = Family("A", 3)
    for bad in ([1, True], (True, 1), [2, 2.0], [True]):
        with pytest.raises(ValidationError):
            ColorSet(A3, bad)
    with pytest.raises(ValidationError):
        da.basis_element("x", [1, True], A3)


@hst.composite
def elements(draw, fam):
    perm = draw(hst.permutations(list(range(1, fam.rank + 1))))
    if fam.tag == "C":
        signs = draw(hst.lists(hst.sampled_from([-1, 1]),
                               min_size=fam.rank, max_size=fam.rank))
        perm = [s * p for s, p in zip(signs, perm)]
    return WeylElement(fam, tuple(perm))


@given(elements(Family("A", 4)))
def test_affine_descents_proper_a(w):
    D = set(descent_set(w).indices)
    Dt = set(affine_descent_set(w).indices)
    assert D <= Dt
    assert Dt and Dt != set(w.family.affine_indices())


@given(elements(Family("C", 3)))
def test_affine_descents_proper_c(w):
    D = set(descent_set(w).indices)
    Dt = set(affine_descent_set(w).indices)
    assert D <= Dt
    assert Dt and Dt != set(w.family.affine_indices())


@given(elements(Family("C", 3)), elements(Family("C", 3)))
def test_multiply_is_composition(u, v):
    w = multiply(u, v)
    for i in range(1, 4):
        assert w(i) == u(v(i))
