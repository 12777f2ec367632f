import functools
import itertools

import pytest
from hypothesis import given, strategies as hst

from steintorus.errors import FamilyMismatchError, ValidationError
from steintorus.weyl import (
    ColorSet,
    Family,
    WeylElement,
    affine_descent_set,
    enumerate_group,
)
from steintorus import coxfaces as cf
from steintorus import descent_algebra as da
from steintorus import torusfaces as tf

A6 = Family("A", 6)
C5 = Family("C", 5)


# The two six-element necklaces used throughout: same blocks, different spins.
def spin_a():
    return tf.make_spin(A6, [(4, 6), (1, 3, 5), (2,)], [4, 1, 2])


def spin_b():
    return tf.make_spin(A6, [(4, 6), (1, 3, 5), (2,)], [3, 6, 1])


def test_clasp_and_canonical_storage():
    N = spin_a()
    assert tf.clasp(N) == (1, 3, 5)
    assert N.labels[0] == min(N.labels) and N.labels[-1] == max(N.labels)
    M = spin_b()
    assert tf.clasp(M) == (2,)


def test_split_and_w():
    s = tf.split(spin_a())
    assert s.blocks == ((5,), (2,), (4, 6)) and s.tail == (1, 3)
    assert tf.w_of_torus_face(spin_a()).values == (5, 2, 4, 6, 1, 3)
    t = tf.split(spin_b())
    assert t.blocks == ((2,), (4, 6), (1, 3, 5)) and t.tail is None
    assert tf.w_of_torus_face(spin_b()).values == (2, 4, 6, 1, 3, 5)


def from_split(S):
    """The spin necklace of a split necklace: the inverse of tf.split."""
    tail = S.tail or ()
    clasp_block = tuple(sorted(tail + S.blocks[0]))
    blocks = (clasp_block,) + S.blocks[1:]
    labels = tuple(itertools.accumulate(len(b) for b in S.blocks))
    return tf.SpinNecklace(S.family, blocks, labels)


def test_split_roundtrip():
    for N in tf.enumerate_torus_faces(Family("A", 4)):
        assert from_split(tf.split(N)) == N


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_type_a_enumeration_matches_split_route(n):
    # The reference route: a tail and a composition of the rest whose first
    # block follows the tail, as a validated split necklace.
    family = Family("A", n)
    universe = tuple(range(1, n + 1))
    reference = [
        from_split(tf.SplitNecklace(family, comp, tail if tail else None))
        for ts in range(n)
        for tail in itertools.combinations(universe, ts)
        for comp in cf._ordered_partitions(tuple(x for x in universe if x not in tail))
        if min(comp[0]) > (max(tail) if tail else 0)
    ]
    assert list(tf.enumerate_torus_faces(family)) == reference


def test_label_wrap_validation():
    with pytest.raises(ValidationError):
        tf.SpinNecklace(A6, ((4, 6), (1, 3, 5), (2,)), (4, 2, 1))
    with pytest.raises(ValidationError):
        # valid labels but not clasp-first storage
        tf.SpinNecklace(A6, ((4, 6), (1, 3, 5), (2,)), (4, 1, 2))


def test_contract_edge():
    M = spin_b()
    p = M.labels.index(1)
    C = tf.contract_edge(M, p)
    assert C.blocks == ((2, 4, 6), (1, 3, 5)) and C.labels == (3, 6)
    with pytest.raises(ValidationError):
        tf.contract_edge(tf.make_spin(A6, [tuple(range(1, 7))], [6]), 0)


def test_contract_edge_refuses_an_edge_that_is_not_an_int_in_range():
    """With two edges, 5 once leaked IndexError, 1.0 and None TypeError, and
    -1 and True were taken as edge 1."""
    N = tf.make_spin(Family("A", 3), [(1, 2), (3,)], [2, 3])
    for p in (5, 2, 1.0, None, -1, True):
        with pytest.raises(ValidationError):
            tf.contract_edge(N, p)
    assert [tf.contract_edge(N, p).labels for p in (0, 1)] == [(3,), (2,)]


def test_module_action_six_elements():
    N = tf.make_spin(A6, [(2,), (4, 6), (1, 3, 5)], [2, 4, 1])
    G = cf.SetComposition(A6, ((2, 5, 6), (1, 3), (4,)))
    R = tf.module_action(N, G)
    assert R.blocks == ((1, 3), (2,), (6,), (4,), (5,))
    assert R.labels == (1, 2, 3, 4, 5)


def test_module_action_rank_three():
    fam = Family("A", 3)
    N = tf.make_spin(fam, [(2, 3), (1,)], [1, 2])
    G = cf.SetComposition(fam, ((1, 2), (3,)))
    R = tf.module_action(N, G)
    assert R.blocks == ((3,), (1,), (2,)) and R.labels == (1, 2, 3)


def test_single_block_face_acts_trivially():
    fam = Family("A", 4)
    u = cf.unit_face(fam)
    for N in tf.enumerate_torus_faces(fam):
        assert tf.module_action(N, u) == N


def test_sym_necklace_example():
    N = tf.SymNecklace(C5, (-2, 0, 2), ((4,), (-3, 1, 5)), None)
    assert tf.color_set(N).sorted() == [1, 2, 5]
    assert tf.w_of_torus_face(N).values == (2, 4, -3, 1, 5)


def test_sym_necklace_action():
    N = tf.SymNecklace(C5, (-2, 0, 2), ((4,), (-3, 1, 5)), None)
    G = cf.SymComposition.from_full(
        C5, [(-5, 3), (-4, 1), (-2, 0, 2), (-1, 4), (-3, 5)]
    )
    R = tf.module_action(N, G)
    assert R.zero_block == (-2, 0, 2)
    assert R.clockwise == ((4,), (1,), (-3, 5))
    assert R.antipodal is None


def test_sym_necklace_antipodal_color():
    fam = Family("C", 2)
    N = tf.SymNecklace(fam, (0,), ((1,),), (-2, 2))
    # n is in the color set exactly when there is no antipodal block
    assert tf.color_set(N).sorted() == [0, 1]
    M = tf.SymNecklace(fam, (0,), ((1,), (2,)), None)
    assert tf.color_set(M).sorted() == [0, 1, 2]


def test_counts():
    assert tf.count_torus_faces(Family("A", 3)) == 18
    assert tf.count_torus_faces(Family("C", 2)) == 24
    assert sum(1 for _ in tf.enumerate_torus_faces(Family("C", 2))) == 24


def families(a_ranks, c_ranks):
    return pytest.mark.parametrize(
        "fam", [Family("A", n) for n in a_ranks] + [Family("C", n) for n in c_ranks],
        ids=lambda f: f"{f.tag}{f.rank}")


@families(range(2, 7), range(1, 5))
def test_closed_form_counts_match_enumeration(fam):
    assert cf.count_faces(fam) == sum(1 for _ in cf.enumerate_faces(fam))
    assert tf.count_torus_faces(fam) == sum(1 for _ in tf.enumerate_torus_faces(fam))


@families(range(2, 8), range(1, 6))
def test_torus_count_matches_affine_descents(fam):
    # The torus faces of colour J map one-to-one onto the w with Ades(w)
    # inside J, so each w counts once for every superset of Ades(w).
    width = len(fam.affine_indices())
    expected = sum(2 ** (width - len(affine_descent_set(w)))
                   for w in enumerate_group(fam))
    assert tf.count_torus_faces(fam) == expected


def test_census_a2():
    by_dim = {}
    for N in tf.enumerate_torus_faces(Family("A", 3)):
        by_dim[len(N.blocks)] = by_dim.get(len(N.blocks), 0) + 1
    assert by_dim == {1: 3, 2: 9, 3: 6}


def test_census_c2():
    by_dim = {}
    for N in tf.enumerate_torus_faces(Family("C", 2)):
        k = len(tf.color_set(N))
        by_dim[k] = by_dim.get(k, 0) + 1
    assert by_dim == {1: 4, 2: 12, 3: 8}


def maximal_from_perm(w):
    """The maximal torus face corresponding to a group element."""
    if w.family.tag == "A":
        blocks = tuple((v,) for v in w.values)
        return tf.SpinNecklace(w.family, blocks, tuple(range(1, w.family.rank + 1)))
    return tf.SymNecklace(w.family, (0,), tuple((v,) for v in w.values), None)


def is_maximal(N):
    """No two elements share a code value, as the counts suite reads a code."""
    code = tf._necklace_code(N)
    return len(set(code)) == len(code)


def test_maximal_faces_are_the_group():
    for fam in (Family("A", 3), Family("C", 2)):
        elements = set(enumerate_group(fam))
        maximal = [N for N in tf.enumerate_torus_faces(fam) if is_maximal(N)]
        assert len(maximal) == len(elements)
        assert {tf.w_of_torus_face(N) for N in maximal} == elements
        for w in elements:
            assert is_maximal(maximal_from_perm(w))
            assert tf.w_of_torus_face(maximal_from_perm(w)) == w


@pytest.mark.parametrize("fam", [Family("A", n) for n in range(2, 6)]
                         + [Family("C", n) for n in range(1, 4)], ids=lambda f: f"{f.tag}{f.rank}")
def test_maximal_means_one_element_per_block(fam):
    """Maximality read off the code, no two elements sharing a value, agrees
    with the per-family definitions on every torus face."""
    def by_kind(N):
        if fam.tag == "A":
            return len(N.blocks) == fam.rank
        return N.zero_block == (0,) and N.antipodal is None and len(N.clockwise) == fam.rank

    faces = list(tf.enumerate_torus_faces(fam))
    assert [is_maximal(N) for N in faces] == [by_kind(N) for N in faces]


def test_group_action_keeps_structure():
    fam = Family("A", 4)
    w = WeylElement(fam, (2, 3, 4, 1))
    for N in tf.enumerate_torus_faces(fam):
        M = tf.act(w, N)
        assert sorted(M.labels) == sorted(N.labels)
        assert sorted(len(b) for b in M.blocks) == sorted(
            len(b) for b in N.blocks
        )


# Families whose every colour's walk is compared with the full walk.
BY_COLOR = [Family("A", n) for n in range(2, 7)] + [Family("C", n) for n in range(1, 5)]


def test_enumerate_by_color():
    """A colour's walk is the full walk filtered by color_set, order included."""
    for fam in BY_COLOR:
        full = [(N, tf.color_set(N)) for N in tf.enumerate_torus_faces(fam)]
        indices = fam.affine_indices()
        for J in itertools.chain.from_iterable(
                itertools.combinations(indices, r) for r in range(1, len(indices) + 1)):
            color = ColorSet(fam, frozenset(J))
            expected = [N for N, c in full if c == color]
            assert list(tf.enumerate_torus_faces(fam, color)) == expected, (fam, J)


def test_enumerated_necklaces_pass_the_constructor():
    """The walk builds its necklaces unchecked; each equals its rebuild
    through the checked constructor."""
    for fam in BY_COLOR:
        for N in tf.enumerate_torus_faces(fam):
            rebuilt = (tf.SpinNecklace(fam, N.blocks, N.labels) if fam.tag == "A"
                       else tf.SymNecklace(fam, N.zero_block, N.clockwise, N.antipodal))
            assert N == rebuilt and hash(N) == hash(rebuilt)


def test_enumerate_refuses_foreign_and_non_integer_colors():
    """A colour of another family once gave no necklaces, or those of this
    one, and 1.0 or True once stood for the index 1."""
    A3, A5 = Family("A", 3), Family("A", 5)
    for J in ({5}, {1}):
        with pytest.raises(FamilyMismatchError):
            next(tf.enumerate_torus_faces(A3, ColorSet(A5, frozenset(J))))
    for bad in (1.0, True):
        with pytest.raises(ValidationError):
            next(tf.enumerate_torus_faces(A3, ColorSet(A3, frozenset({bad}))))


def test_wire_roundtrip():
    N = spin_a()
    assert tf.from_wire(A6, tf.to_wire(N)) == N
    M = tf.SymNecklace(C5, (-2, 0, 2), ((4,), (-3, 1, 5)), None)
    assert tf.from_wire(C5, tf.to_wire(M)) == M
    with pytest.raises(ValidationError):
        tf.from_wire(A6, {"blocks": [[1, 2, 3, 4, 5, 6]]})


LAW_FAMILIES = (Family("A", 4), Family("C", 3))


@functools.lru_cache(maxsize=None)
def pool(kind, fam):
    enumerate_fn = tf.enumerate_torus_faces if kind == "torus" else cf.enumerate_faces
    return sorted(enumerate_fn(fam), key=repr)


@hst.composite
def drawn(draw, *kinds):
    """One object of each kind ('torus' or 'face') from one family of
    LAW_FAMILIES."""
    fam = draw(hst.sampled_from(LAW_FAMILIES))
    return [draw(hst.sampled_from(pool(kind, fam))) for kind in kinds]


@given(drawn("torus", "face", "face"))
def test_module_axiom(objects):
    N, G, H = objects
    lhs = tf.module_action(tf.module_action(N, G), H)
    rhs = tf.module_action(N, cf.tits_product(G, H))
    assert lhs == rhs


@given(drawn("torus", "face"))
def test_action_color_grows(objects):
    N, G = objects
    R = tf.module_action(N, G)
    assert set(tf.color_set(N).indices) <= set(tf.color_set(R).indices)


@given(drawn("face", "face", "torus"))
def test_generators_respect_products(objects):
    F, G, N = objects
    for g in da._generators(F.family):
        assert cf.act(g, cf.tits_product(F, G)) == cf.tits_product(
            cf.act(g, F), cf.act(g, G)
        )
        assert tf.act(g, tf.module_action(N, G)) == tf.module_action(
            tf.act(g, N), cf.act(g, G)
        )


@pytest.mark.parametrize("kind", ["face", "torus"])
@families([4], [3])
def test_faces_sort_by_fields(kind, fam):
    # Equal zero and clockwise blocks fix a type C antipodal block, so the
    # ordering never compares None with a tuple.
    faces = pool(kind, fam)
    ordered = sorted(faces)
    assert all(a < b for a, b in zip(ordered, ordered[1:]))
