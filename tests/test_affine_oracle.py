import itertools
import random

import pytest
from hypothesis import given, settings, strategies as hst

from steintorus import affine_oracle as ao
from steintorus import coxfaces as cf
from steintorus import torusfaces as tf
from steintorus.errors import NotRealizableError, ValidationError
from steintorus.weyl import Family

A3 = Family("A", 3)


def test_entry_indexing():
    V = ao.CompactSignVector(4, tuple((k, "+") for k in range(6)))
    assert V.entry(1, 2) == (0, "+")
    assert V.entry(1, 4) == (2, "+")
    assert V.entry(3, 4) == (5, "+")


def test_coroot_vector_sums_to_zero():
    with pytest.raises(ValidationError):
        ao.CorootVector((1, 0, 0))
    ao.CorootVector((1, -1, 0))


def test_lift_of_chamber():
    # the alcove of 0 < x1 < x2 < x3 < 1 has every entry (0, '+')
    N = tf.make_spin(A3, [(1,), (2,), (3,)], [1, 2, 3])
    V = ao.lift(N)
    assert all(e == (0, "+") for e in V.entries)


def test_edge_sign_vector():
    # the edge of the affine arrangement with x1 = 0, x2 = 1, x3 = 1/2
    V = ao.CompactSignVector(3, ((1, "0"), (0, "+"), (-1, "+")))
    N = ao.project(V)
    assert N == tf.make_spin(A3, [(1, 2), (3,)], [1, 2])
    mu, w = ao.w_of_affine_face(V)
    assert mu == ao.CorootVector((-1, 1, 0))
    assert w == tf.w_of_torus_face(N)
    assert ao.translate(ao.lift(N), mu) == V


def test_project_inverts_lift():
    for n in (2, 3, 4):
        fam = Family("A", n)
        for N in tf.enumerate_torus_faces(fam):
            assert ao.project(ao.lift(N)) == N


def test_w_of_affine_face_on_lifts():
    for N in tf.enumerate_torus_faces(A3):
        mu, w = ao.w_of_affine_face(ao.lift(N))
        assert mu.coords == (0, 0, 0)
        assert w == tf.w_of_torus_face(N)


def test_w_of_affine_face_on_translates():
    N = tf.make_spin(A3, [(1, 3), (2,)], [2, 3])
    V = ao.lift(N)
    mu = ao.CorootVector((2, -1, -1))
    got_mu, got_w = ao.w_of_affine_face(ao.translate(V, mu))
    assert got_mu == mu
    assert got_w == tf.w_of_torus_face(N)


def test_oracle_matches_module_action_rank_three():
    faces = list(cf.enumerate_faces(A3))
    for N in tf.enumerate_torus_faces(A3):
        V = ao.lift(N)
        for G in faces:
            assert ao.project(ao.oracle_act(V, G)) == tf.module_action(N, G)


def test_translation_equivariance():
    N = tf.make_spin(A3, [(2,), (1, 3)], [1, 3])
    V = ao.lift(N)
    G = cf.SetComposition(A3, ((2,), (1, 3)))
    for coords in itertools.product(range(-2, 3), repeat=3):
        if sum(coords) != 0:
            continue
        mu = ao.CorootVector(coords)
        lhs = ao.oracle_act(ao.translate(V, mu), G)
        rhs = ao.translate(ao.oracle_act(V, G), mu)
        assert lhs == rhs


def test_unrealizable_vectors_rejected():
    # x2 - x1 = 0 and x3 - x2 = 0 but x3 - x1 strictly positive: impossible
    V = ao.CompactSignVector(3, ((0, "0"), (0, "+"), (0, "0")))
    with pytest.raises(NotRealizableError):
        ao.project(V)
    # cyclic strict chain with inconsistent integer parts
    W = ao.CompactSignVector(3, ((0, "+"), (2, "+"), (0, "+")))
    with pytest.raises(NotRealizableError):
        ao.project(W)


def realizable(n):
    """{entries: N} over the coroot translates of every lift(N) whose levels
    all lie in -2..2.  A lift's levels lie in -1..1, so such a translate
    moves no coordinate by more than 2."""
    mus = [ao.CorootVector(mu) for mu in itertools.product(range(-2, 3), repeat=n)
           if sum(mu) == 0]
    found = {}
    for N in tf.enumerate_torus_faces(Family("A", n)):
        V = ao.lift(N)
        for mu in mus:
            entries = ao.translate(V, mu).entries
            if all(-2 <= k <= 2 for k, _ in entries):
                assert found.setdefault(entries, N) == N
    return found


@pytest.mark.parametrize("n", [2, 3, 4])
def test_project_rejects_exactly_the_unrealizable_vectors(n):
    """Every vector with levels in -2..2, or at n=4 a seeded sample of 2,000:
    project returns N on a coroot translate of lift(N) and raises
    NotRealizableError on anything else.  Half the sample is uniform, half
    is a translate with one entry redrawn, so near misses are tried too."""
    found = realizable(n)
    cells = [(k, s) for k in range(-2, 3) for s in "0+"]
    size = n * (n - 1) // 2
    if n <= 3:
        vectors = list(itertools.product(cells, repeat=size))
    else:
        rng = random.Random(4)
        pool = sorted(found)
        vectors = []
        for _ in range(1000):
            vectors.append(tuple(rng.choice(cells) for _ in range(size)))
            near = list(rng.choice(pool))
            near[rng.randrange(size)] = rng.choice(cells)
            vectors.append(tuple(near))
    hits = 0
    for entries in vectors:
        V = ao.CompactSignVector(n, entries)
        if entries in found:
            hits += 1
            assert ao.project(V) == found[entries]
        else:
            with pytest.raises(NotRealizableError):
                ao.project(V)
    assert hits > 0


@hst.composite
def lifted(draw, n=4):
    fam = Family("A", n)
    pool = sorted(tf.enumerate_torus_faces(fam), key=repr)
    N = draw(hst.sampled_from(pool))
    coords = draw(
        hst.lists(hst.integers(min_value=-2, max_value=2),
                  min_size=n - 1, max_size=n - 1)
    )
    coords = tuple(coords) + (-sum(coords),)
    return N, ao.translate(ao.lift(N), ao.CorootVector(coords))


@settings(max_examples=60)
@given(lifted())
def test_translated_faces_still_locate(pair):
    N, V = pair
    mu, w = ao.w_of_affine_face(V)
    assert w == tf.w_of_torus_face(N)
    assert ao.translate(ao.lift(N), mu) == V
