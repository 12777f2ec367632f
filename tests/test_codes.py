"""The position-code kernels against the block-intersection route they
replaced, and the wire boundary that now carries all the validation.

The reference below intersects blocks directly and builds every result
through the validating constructors; faces and necklaces are drawn by
shuffling the elements and cutting the sequence, without enumeration.
"""

import functools
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as hst

from steintorus.errors import ValidationError
from steintorus.weyl import Family, WeylElement
from steintorus import coxfaces as cf
from steintorus import descent_algebra as da
from steintorus import torusfaces as tf


# ---------------------------------------------------------------------------
# naive reference: block intersections and validating constructors


def intersect_sequences(fblocks, gblocks):
    """Nonempty pairwise intersections S_i ∩ T_j in lexicographic (i,j) order."""
    out = []
    for S in fblocks:
        for T in gblocks:
            piece = tuple(sorted(set(S) & set(T)))
            if piece:
                out.append(piece)
    return tuple(out)


def from_full(family, blocks):
    if family.tag == "A":
        return cf.SetComposition(family, tuple(blocks))
    return cf.SymComposition.from_full(family, blocks)


def sym_from_cycle(family, cycle):
    """A symmetric necklace from a full clockwise cycle (any rotation)."""
    cycle = [tuple(sorted(b)) for b in cycle if b]
    zero_at = next(i for i, b in enumerate(cycle) if 0 in b)
    cycle = cycle[zero_at:] + cycle[:zero_at]
    m = (len(cycle) - 1) // 2
    antipodal = cycle[m + 1] if len(cycle) % 2 == 0 else None
    necklace = tf.SymNecklace(family, cycle[0], tuple(cycle[1 : m + 1]), antipodal)
    assert tf.full_cycle(necklace) == tuple(cycle), "cycle is not flip-symmetric"
    return necklace


def naive_product(F, G):
    return from_full(F.family, intersect_sequences(F.full_blocks(), G.full_blocks()))


def naive_action(N, G):
    gblocks = G.full_blocks()
    if isinstance(N, tf.SpinNecklace):
        pieces = intersect_sequences(N.blocks, gblocks)
        running = itertools.accumulate(map(len, pieces), initial=N.labels[-1])
        return tf.make_spin(N.family, pieces, tuple(running)[1:])
    return sym_from_cycle(N.family, intersect_sequences(tf.full_cycle(N), gblocks))


def image(w, blocks):
    return [tuple(sorted(map(w, b))) for b in blocks]


def naive_act(w, X):
    if isinstance(X, tf.SpinNecklace):
        return tf.make_spin(X.family, image(w, X.blocks), X.labels)
    if isinstance(X, tf.SymNecklace):
        return sym_from_cycle(X.family, image(w, tf.full_cycle(X)))
    return from_full(X.family, image(w, X.full_blocks()))


def naive_contract(N, p):
    k = len(N.blocks)
    q = (p + 1) % k
    merged = tuple(sorted(N.blocks[p] + N.blocks[q]))
    blocks = [merged if i == q else N.blocks[i] for i in range(k) if i != p]
    return tf.make_spin(N.family, blocks, [N.labels[i] for i in range(k) if i != p])


def revalidated(X):
    """X's fields passed through the validating constructors."""
    if isinstance(X, cf.SetComposition):
        return cf.SetComposition(X.family, X.blocks)
    if isinstance(X, cf.SymComposition):
        return cf.SymComposition.from_full(X.family, X.full_blocks())
    if isinstance(X, tf.SpinNecklace):
        return tf.make_spin(X.family, X.blocks, X.labels)
    return sym_from_cycle(X.family, tf.full_cycle(X))


def assert_same(got, expected):
    assert type(got) is type(expected)
    assert got == expected and hash(got) == hash(expected)
    assert got == revalidated(got) and hash(got) == hash(revalidated(got))


# ---------------------------------------------------------------------------
# drawing faces and necklaces by shuffling and cutting


def cut(draw, sequence):
    """Cut a sequence into nonempty runs, each sorted."""
    cuts = draw(hst.sets(hst.integers(1, len(sequence) - 1))) if len(sequence) > 1 else ()
    bounds = [0, *sorted(cuts), len(sequence)]
    return tuple(tuple(sorted(sequence[a:b])) for a, b in zip(bounds, bounds[1:])
                 if a < b)


def self_negating(part):
    return tuple(sorted(part + [-x for x in part]))


@hst.composite
def objects(draw, family, torus):
    """A face (torus False) or a necklace (torus True) of the family."""
    n = family.rank
    order = draw(hst.permutations(range(1, n + 1)))
    if family.tag == "A":
        blocks = cut(draw, order)
        if not torus:
            return cf.SetComposition(family, blocks)
        incoming = draw(hst.integers(1, n))
        labels = itertools.accumulate(map(len, blocks), initial=incoming)
        return tf.make_spin(family, blocks, tuple(labels)[1:])
    signs = draw(hst.lists(hst.sampled_from((-1, 1)), min_size=n, max_size=n))
    signed = [s * x for s, x in zip(signs, order)]
    z = draw(hst.integers(0, n))
    zero, rest = tuple(sorted(self_negating(signed[:z]) + (0,))), signed[z:]
    if not torus:
        return cf.SymComposition(family, zero, cut(draw, rest))
    a = draw(hst.integers(0, len(rest)))
    antipodal = self_negating(rest[:a]) or None
    return tf.SymNecklace(family, zero, cut(draw, rest[a:]), antipodal)


@hst.composite
def elements(draw, family):
    n = family.rank
    values = draw(hst.permutations(range(1, n + 1)))
    if family.tag == "C":
        signs = draw(hst.lists(hst.sampled_from((-1, 1)), min_size=n, max_size=n))
        values = [s * v for s, v in zip(signs, values)]
    return WeylElement(family, tuple(values))


KERNEL_FAMILIES = [Family("A", 4), Family("A", 6), Family("C", 3), Family("C", 4)]


@hst.composite
def kernel_case(draw, torus):
    """(N or F, G, w): a left object, a face and a group element of one family."""
    family = draw(hst.sampled_from(KERNEL_FAMILIES))
    return (draw(objects(family, torus)), draw(objects(family, False)),
            draw(elements(family)))


# ---------------------------------------------------------------------------
# the kernels


@given(kernel_case(torus=False))
def test_tits_product_and_act_match_reference(case):
    F, G, w = case
    assert_same(cf.tits_product(F, G), naive_product(F, G))
    assert_same(cf.act(w, F), naive_act(w, F))


@given(kernel_case(torus=True), hst.data())
def test_module_action_and_act_match_reference(case, data):
    N, G, w = case
    assert_same(tf.module_action(N, G), naive_action(N, G))
    assert_same(tf.act(w, N), naive_act(w, N))
    if isinstance(N, tf.SpinNecklace) and len(N.blocks) > 1:
        p = data.draw(hst.integers(0, len(N.blocks) - 1))
        assert_same(tf.contract_edge(N, p), naive_contract(N, p))


@hst.composite
def sum_pair(draw):
    """(s, t): small face sums of one family, s finite or torus, t finite."""
    family = draw(hst.sampled_from(KERNEL_FAMILIES))
    torus = draw(hst.booleans())

    def face_sum(torus):
        terms = draw(hst.lists(hst.tuples(objects(family, torus), hst.integers(-3, 3)),
                               max_size=4))
        acc = {}
        for X, c in terms:
            acc[X] = acc.get(X, 0) + c
        return da.FaceSum.from_dict(family, torus, acc)

    return face_sum(torus), face_sum(False)


def cancelling_pair(family, torus):
    """(s, t): the chambers and a left object of fewest blocks, times seven
    faces whose coefficients fall in five groups of both signs and sum to 0,
    so every chamber's products cancel and the coarsest object's do not."""
    code = tf._necklace_code if torus else cf._face_code
    lefts = list((tf.enumerate_torus_faces if torus else cf.enumerate_faces)(family))
    coarsest = min(lefts, key=lambda X: len(set(code(X))))
    lefts = [coarsest] + [X for X in lefts if len(set(code(X))) == len(code(X))]
    faces = list(cf.enumerate_faces(family))
    return (da.FaceSum.from_dict(family, torus, dict(zip(lefts, itertools.cycle([1, -2, 3])))),
            da.FaceSum.from_dict(family, False, dict(zip(faces[::2], [2, -1, -1, 3, -3, 2, -2]))))


@given(sum_pair())
@example(cancelling_pair(Family("A", 3), False))
@example(cancelling_pair(Family("A", 3), True))
@example(cancelling_pair(Family("C", 2), False))
@example(cancelling_pair(Family("C", 2), True))
def test_face_sum_product_matches_double_loop(pair):
    s, t = pair
    op = naive_action if s.torus else naive_product
    acc = {}
    for X, cx in s.coeffs:
        for G, cg in t.coeffs:
            H = op(X, G)
            acc[H] = acc.get(H, 0) + cx * cg
    got = da.face_sum_product(s, t)
    assert got == da.FaceSum.from_dict(s.family, s.torus, acc)
    for H, _ in got.coeffs:
        assert_same(H, revalidated(H))


def fresh_codes(s):
    code = tf._necklace_code if s.torus else cf._face_code
    return {code(X): c for X, c in s.coeffs}


@given(sum_pair())
def test_face_sum_product_keeps_fresh_codes(pair):
    """The product's codes encode its faces; it equals, and hashes like, the
    sum built from its faces; its coeffs come out sorted by face."""
    s, t = pair
    got = da.face_sum_product(s, t)
    expected = da.FaceSum.from_dict(s.family, s.torus, got.as_dict())
    assert got._codes == fresh_codes(got) == expected._codes
    assert got == expected and hash(got) == hash(expected)
    assert got.coeffs == expected.coeffs == tuple(sorted(got.coeffs, key=lambda fc: fc[0]))


@pytest.mark.parametrize("family", [Family("A", 3), Family("C", 2)], ids=["A3", "C2"])
def test_psi_path_builds_no_face(family, monkeypatch):
    """The psi suite, psi of face-sum products on both sides, decodes no
    code into a face or necklace."""
    def refuse(family, code):
        raise AssertionError(f"decoded the code {code}")

    monkeypatch.setattr(cf, "_from_code", refuse)
    monkeypatch.setattr(tf, "_from_code", refuse)
    assert da.verify("psi", family)["pass"]


def left_objects(family, torus):
    walk = tf.enumerate_torus_faces if torus else cf.enumerate_faces
    return list(walk(family))


def batch(ps, qs, anchor):
    """Per left code, its row read off ``_by_key``, one kept dict serving every left code."""
    kept, rows = {}, []
    for p in ps:
        keys, results = cf._by_key(p, qs, anchor, kept)
        rows.append(list(map(results.__getitem__, keys)))
    return rows


def assert_batch_matches(ps, qs, anchor):
    """All left codes against one kept dict give, per left code, its one-at-a-time row."""
    assert batch(ps, qs, anchor) == [[cf._refine(p, q, anchor) for q in qs] for p in ps]


@pytest.mark.parametrize("family", [Family("A", n) for n in (2, 3, 4)]
                         + [Family("C", n) for n in (1, 2, 3)],
                         ids=lambda f: f"{f.tag}{f.rank}")
@pytest.mark.parametrize("torus", [False, True], ids=["face", "necklace"])
def test_batch_refinement_matches_one_pair_at_a_time(family, torus):
    """Every left code against all face codes in one batch; then shuffled
    left codes, some repeated, against the face codes reversed, so a batch
    that reused another batch's comparisons would differ; then no right codes,
    and no left codes.  Chamber and one-block left codes are among them."""
    code = tf._necklace_code if torus else cf._face_code
    anchor = tf._anchor(family) if torus else None
    qs = [cf._face_code(G) for G in cf.enumerate_faces(family)]
    ps = [code(X) for X in left_objects(family, torus)]
    assert any(len(set(p)) == len(p) for p in ps)
    assert any(len(set(p)) == 1 for p in ps)
    assert_batch_matches(ps, qs, anchor)
    mixed = ps + ps[::3]
    random.Random(len(ps)).shuffle(mixed)
    assert_batch_matches(mixed, qs[::-1], anchor)
    assert batch(ps, [], anchor) == [[]] * len(ps)
    assert batch([], qs, anchor) == []


def assert_sums_match(ps, qs, anchor):
    """The weight of each result, cp * cq summed over the pairs one at a time,
    zero totals kept."""
    expected = {}
    for p, cp in ps.items():
        for q, cq in qs.items():
            r = cf._refine(p, q, anchor)
            expected[r] = expected.get(r, 0) + cp * cq
    assert cf._refine_sums(ps, qs, anchor, {}) == expected


@pytest.mark.parametrize("family", [Family("A", n) for n in (2, 3, 4)]
                         + [Family("C", n) for n in (1, 2, 3)],
                         ids=lambda f: f"{f.tag}{f.rank}")
@pytest.mark.parametrize("torus", [False, True], ids=["face", "necklace"])
def test_refined_sums_match_one_pair_at_a_time(family, torus):
    """Shuffled left codes with seeded weights of both signs against every
    face code with seeded weights; then against the face codes reversed with
    other weights that sum to zero, so every chamber's total is zero and a
    call that reused another call's tallies would differ; then no right
    codes, and no left codes."""
    code = tf._necklace_code if torus else cf._face_code
    anchor = tf._anchor(family) if torus else None
    rng = random.Random(f"{family.tag}{family.rank}{torus}")
    faces = [cf._face_code(G) for G in cf.enumerate_faces(family)]
    lefts = [code(X) for X in left_objects(family, torus)]
    rng.shuffle(lefts)
    ps = {p: rng.randint(1, 3) * (-1) ** i for i, p in enumerate(lefts)}
    weights = {q: rng.randint(1, 3) * (-1) ** i for i, q in enumerate(faces)}
    assert_sums_match(ps, weights, anchor)
    cancelling = {q: rng.randint(1, 3) * (-1) ** i for i, q in enumerate(faces[:0:-1])}
    cancelling[faces[0]] = -sum(cancelling.values())
    assert sum(cancelling.values()) == 0
    assert_sums_match(ps, cancelling, anchor)
    assert cf._refine_sums(ps, {}, anchor, {}) == {}
    assert cf._refine_sums({}, weights, anchor, {}) == {}


@pytest.mark.parametrize("family", [Family("A", 256), Family("C", 128)], ids=["A256", "C128"])
@pytest.mark.parametrize("torus", [False, True], ids=["face", "necklace"])
@settings(max_examples=1)
@given(data=hst.data())
def test_refined_sums_past_a_byte(family, torus, data):
    """From 256 positions a tallied result no longer fits in bytes; the sums still
    match the pairs one at a time."""
    code = tf._necklace_code if torus else cf._face_code
    lefts = data.draw(hst.lists(objects(family, torus), min_size=1, max_size=2))
    faces = data.draw(hst.lists(objects(family, False), min_size=1, max_size=2))
    assert len(code(lefts[0])) >= 256
    ps = {code(X): 2 - i for i, X in enumerate(lefts)}
    assert_sums_match(ps, {cf._face_code(G): 1 + i for i, G in enumerate(faces)},
                      tf._anchor(family) if torus else None)


@pytest.mark.parametrize("family", [Family("A", 256), Family("C", 128)], ids=["A256", "C128"])
def test_unit_orbit_sums_past_a_byte(family):
    """From 256 entries codes stay tuples: the unit orbit sum (one face), and for type C
    the one-block necklace's orbit sum, multiply, pass the invariance test and map
    under psi as their single objects do, through the translate tables' tuple form."""
    U = cf.unit_face(family)
    sigma = da.orbit_sum("sigma", [], family)
    assert type(next(iter(sigma._codes))) is tuple and len(next(iter(sigma._codes))) >= 256
    assert da.face_sum_product(sigma, sigma) == da.FaceSum.from_dict(
        family, False, {cf.tits_product(U, U): 1})
    assert da.is_invariant(sigma) and da.psi(sigma) == da.GroupRingElement(
        family, ((cf.w_of_face(U), 1),))
    if family.tag == "C":
        sigmat = da.orbit_sum("sigmat", [family.rank], family)
        (N, _), = sigmat.coeffs
        assert da.face_sum_product(sigmat, sigma) == da.FaceSum.from_dict(
            family, True, {tf.module_action(N, U): 1})
        assert da.is_invariant(sigmat) and da.psi(sigmat) == da.GroupRingElement(
            family, ((tf.w_of_torus_face(N), 1),))


def assert_keys_are_orders(ps, qs):
    """Per left code p, two right codes share a key exactly when their orders, ties
    included, agree on every pair x < y within one of p's blocks; one kept dict
    serves every p, as it does in a batch.  Returns the last p's keys."""
    kept = {}
    for p in ps:
        pairs = [(x, y) for x, y in itertools.combinations(range(len(p)), 2) if p[x] == p[y]]
        orders = [tuple((q[x] > q[y]) - (q[x] < q[y]) for x, y in pairs) for q in qs]
        keys = list(cf._keys(p, qs, kept))
        assert len(set(keys)) == len(set(orders)) == len(set(zip(keys, orders))), p
    return keys


@pytest.mark.parametrize("family", [Family("A", 4), Family("C", 3)], ids=["A4", "C3"])
def test_keys_are_orders_on_the_left_blocks(family):
    """Every face and necklace code against every face code."""
    qs = [cf._face_code(G) for G in cf.enumerate_faces(family)]
    ps = [cf._face_code(F) for F in cf.enumerate_faces(family)]
    assert_keys_are_orders(ps + [tf._necklace_code(N) for N in left_objects(family, True)], qs)


def test_keys_are_orders_past_64_bits():
    """At C4 a code's 36 pairs pack into 72 bits: sampled face and necklace codes,
    the one-block face's last, against every face code."""
    family, rng = Family("C", 4), random.Random(4)
    qs = [cf._face_code(G) for G in cf.enumerate_faces(family)]
    ps = rng.sample(qs, 20) + [tf._necklace_code(N) for N in rng.sample(
        left_objects(family, True), 20)] + [cf._face_code(cf.unit_face(family))]
    assert max(assert_keys_are_orders(ps, qs)).bit_length() > 64


@given(hst.sampled_from([Family("A", 5), Family("C", 4)]).flatmap(
    lambda family: hst.booleans().flatmap(lambda torus: hst.tuples(
        hst.just(family), hst.just(torus), hst.lists(objects(family, torus), max_size=6),
        hst.lists(objects(family, False), max_size=12)))))
def test_batch_refinement_matches_at_a5_and_c4(case):
    family, torus, lefts, faces = case
    code = tf._necklace_code if torus else cf._face_code
    anchor = tf._anchor(family) if torus else None
    assert_batch_matches([code(X) for X in lefts], [cf._face_code(G) for G in faces], anchor)


@pytest.mark.parametrize("family", [Family("A", 3), Family("C", 2)], ids=["A3", "C2"])
@pytest.mark.parametrize("torus", [False, True], ids=["face", "necklace"])
def test_psi_rejects_non_invariant_products_and_sums(family, torus):
    """One face times an orbit sum is not invariant; nor is an orbit sum
    built by hand without one face, whose codes are computed on first use."""
    X = left_objects(family, torus)[1]
    one = da.FaceSum.from_dict(family, torus, {X: 1})
    product = da.face_sum_product(one, da.orbit_sum("sigma", [1], family))
    with pytest.raises(ValidationError):
        da.psi(product)
    orbit = max(da._orbit_sums(family, torus).values(), key=lambda s: len(s.coeffs))
    partial = da.FaceSum(family, torus, orbit.coeffs[1:])
    with pytest.raises(ValidationError):
        da.psi(partial)
    assert list(partial._codes.items()) == list(fresh_codes(partial).items())
    assert da.psi(da.FaceSum(family, torus, ())).is_zero()


@pytest.mark.parametrize("family", [Family("A", 3), Family("C", 2)], ids=["A3", "C2"])
@pytest.mark.parametrize("torus", [False, True], ids=["face", "necklace"])
def test_repeated_faces_add_up(family, torus):
    """A sum built with every face of an orbit twice, coefficients 1 and 2,
    multiplies and maps under psi like the orbit sum times 3."""
    orbit = max(da._orbit_sums(family, torus).values(), key=lambda s: len(s.coeffs))
    repeated = da.FaceSum(family, torus, orbit.coeffs + tuple((X, 2) for X, _ in orbit.coeffs))
    tripled = da.FaceSum.from_dict(family, torus, {X: 3 for X, _ in orbit.coeffs})
    right = da.orbit_sum("sigma", [max(family.finite_indices())], family)
    assert da.face_sum_product(repeated, right) == da.face_sum_product(tripled, right)
    assert da.psi(repeated) == da.psi(tripled)
    if not torus:
        assert da.face_sum_product(right, repeated) == da.face_sum_product(right, tripled)


@pytest.mark.parametrize("family", [Family("A", 3), Family("A", 4), Family("C", 2),
                                    Family("C", 3)], ids=lambda f: f"{f.tag}{f.rank}")
def test_is_invariant_fails_without_one_face(family):
    """Each orbit sum is invariant; then, with the images of all its codes kept, each
    sum that drops one of its faces is not."""
    sigma, sigmat = da._orbit_sums(family, False), da._orbit_sums(family, True)
    for orbit in list(sigma.values()) + list(sigmat.values()):
        assert da.is_invariant(orbit)
        if len(orbit.coeffs) < 2:
            continue
        for dropped in (0, len(orbit.coeffs) // 2, -1):
            rest = dict(orbit.coeffs)
            del rest[orbit.coeffs[dropped][0]]
            assert not da.is_invariant(da.FaceSum.from_dict(family, orbit.torus, rest))


def simple_generators(family):
    """s_0 = (-1, 2, ..., n) in type C, then s_i swapping i and i + 1."""
    n = family.rank
    gens = [WeylElement(family, (-1, *range(2, n + 1)))] if family.tag == "C" else []
    for i in range(1, n):
        values = list(range(1, n + 1))
        values[i - 1 : i + 1] = i + 1, i
        gens.append(WeylElement(family, tuple(values)))
    return gens


@pytest.mark.parametrize("family", [Family("A", 3), Family("C", 2)], ids=["A3", "C2"])
@pytest.mark.parametrize("torus", [False, True], ids=["face", "necklace"])
def test_is_invariant_checks_each_simple_generator(family, torus):
    """The orbit sum of a chamber (a maximal necklace) under the parabolic
    subgroup of every generator but s_i is invariant under all of them but
    not under s_i, so is_invariant must check s_i to refuse it; under every
    generator it is its colour's orbit sum, which is invariant."""
    act, color_set = (tf.act, tf.color_set) if torus else (cf.act, cf.color_set)
    X = next(Y for Y in left_objects(family, torus) if len(color_set(Y).indices) == (
        len(family.affine_indices()) if torus else len(family.finite_indices())))
    gens = simple_generators(family)

    def orbit_sum(generators):
        seen, todo = {X}, [X]
        while todo:
            Y = todo.pop()
            new = {act(g, Y) for g in generators} - seen
            seen |= new
            todo.extend(new)
        return da.FaceSum.from_dict(family, torus, dict.fromkeys(seen, 1))

    full = orbit_sum(gens)
    assert full == da.orbit_sum("sigmat" if torus else "sigma", color_set(X), family)
    assert da.is_invariant(full)
    for i in range(len(gens)):
        assert not da.is_invariant(orbit_sum(gens[:i] + gens[i + 1 :]))


@pytest.mark.parametrize("family", [Family("A", 3), Family("C", 2)], ids=["A3", "C2"])
def test_is_invariant_builds_each_generators_image_of_a_code_once(monkeypatch, family):
    """Over every orbit sum and every face-sum product, checked twice, each simple
    generator's image of a code is packed once, when the code is first met, and kept:
    the second pass packs nothing and finds the same image objects."""
    sums = [*da._orbit_sums(family, False).values(), *da._orbit_sums(family, True).values()]
    sums += [da.face_sum_product(s, t) for s in sums for t in da._orbit_sums(family, False)
             .values()]
    size = len(next(iter(sums[0]._codes)))
    monkeypatch.setattr(da, "_images", functools.cache(da._images.__wrapped__))
    pack, packed = cf._pack, []
    monkeypatch.setattr(cf, "_pack", lambda code: packed.append(code) or pack(code))
    assert all(map(da.is_invariant, sums))
    codes = {r for s in sums for r in s._codes}
    gens = len(simple_generators(family))
    assert len(packed) == gens * (len(codes) + 1)  # and each generator's moves, once
    held = [dict(images) for images in da._images(family, size)]
    assert [images.keys() - {None} for images in held] == [codes] * gens
    packed.clear()
    assert all(map(da.is_invariant, sums)) and not packed
    assert all(images[r] is before[r] for images, before in zip(
        da._images(family, size), held) for r in codes)


def test_images_are_kept_per_family_not_per_length():
    """A5 and C2 codes both have 5 entries, so images kept by length alone would move
    one family's codes by the other's generators: in turn, each family's orbit sums are
    invariant and map to their basis elements, and the psi suite passes at C2."""
    A5, C2 = Family("A", 5), Family("C", 2)
    assert {len(r) for fam in (A5, C2) for s in da._orbit_sums(fam, False).values()
            for r in s._codes} == {5}
    for fam in (A5, C2, A5, C2):
        for kind, basis in (("sigma", "x"), ("sigmat", "xt")):
            for J, s in da._orbit_sums(fam, kind == "sigmat").items():
                assert da.is_invariant(s) and da.psi(s) == da.basis_element(basis, J, fam)
    assert da.verify("psi", C2)["pass"]


# ---------------------------------------------------------------------------
# canonical group elements, read straight off the blocks


def naive_w_of_face(F):
    values = tuple(x for block in F.full_blocks() for x in block)
    return WeylElement(F.family, values[-F.family.rank :])


def naive_w_of_torus_face(N):
    if isinstance(N, tf.SpinNecklace):
        s = tf.split(N)
        parts = s.blocks + ((s.tail,) if s.tail else ())
        return WeylElement(N.family, tuple(x for b in parts for x in b))
    values = [x for x in N.zero_block if x > 0]
    for b in N.clockwise:
        values.extend(b)
    if N.antipodal is not None:
        values.extend(x for x in N.antipodal if x < 0)
    return WeylElement(N.family, tuple(values))


PSI_FAMILIES = ([Family("A", n) for n in range(3, 8)]
                + [Family("C", n) for n in range(2, 6)])


@given(hst.sampled_from(PSI_FAMILIES).flatmap(
    lambda family: hst.tuples(objects(family, False), objects(family, True))))
def test_group_elements_of_faces_match_split_route(pair):
    F, N = pair
    for got, expected in ((cf.w_of_face(F), naive_w_of_face(F)),
                          (tf.w_of_torus_face(N), naive_w_of_torus_face(N))):
        assert type(got) is WeylElement and type(got.values) is tuple
        assert got == expected and hash(got) == hash(expected)


# ---------------------------------------------------------------------------
# the wire boundary

WIRE_FAMILIES = ([Family("A", n) for n in range(2, 9)]
                 + [Family("C", n) for n in range(1, 7)])


@hst.composite
def wire_case(draw):
    family = draw(hst.sampled_from(WIRE_FAMILIES))
    torus = draw(hst.booleans())
    return family, torus, draw(objects(family, torus))


def module(torus):
    return tf if torus else cf


@given(wire_case())
def test_wire_roundtrip(case):
    family, torus, X = case
    assert module(torus).from_wire(family, module(torus).to_wire(X)) == X


def element_lists(wire):
    """The element lists of a wire form, in a fixed order."""
    lists = []
    for key in ("blocks", "clockwise"):
        lists += wire.get(key, [])
    for key in ("zero_block", "antipodal"):
        if wire.get(key) is not None:
            lists.append(wire[key])
    return lists


@given(wire_case(), hst.data())
def test_corrupted_wire_forms_raise_validation_errors(case, data):
    family, torus, X = case
    n = family.rank
    wire = module(torus).to_wire(X)
    lists = element_lists(wire)
    corruptions = ["drop", "repeat"]
    if "labels" in wire and len(wire["labels"]) > 1:
        corruptions.append("label")  # one block takes every label
    if family.tag == "C":
        corruptions.append("zero")
    kind = data.draw(hst.sampled_from(corruptions))
    if kind == "drop":
        target = data.draw(hst.sampled_from(lists))
        target.pop(data.draw(hst.integers(0, len(target) - 1)))
    elif kind == "repeat":
        source = data.draw(hst.sampled_from(lists))
        data.draw(hst.sampled_from(lists)).append(data.draw(hst.sampled_from(source)))
    elif kind == "label":
        p = data.draw(hst.integers(0, len(wire["labels"]) - 1))
        wire["labels"][p] = wire["labels"][p] % n + 1
    else:
        next(b for b in lists if 0 in b).remove(0)
    with pytest.raises(ValidationError):
        module(torus).from_wire(family, wire)
