"""Reference computations made apart from steintorus.

Everything here works on plain tuples and dicts and imports nothing from the
program, so a check that compares a program output with a value from this
module does not share code with what it checks.  Conventions follow the
program's documentation:

* type A, rank n: permutations of 1..n in one-line notation; finite indices
  1..n-1, affine index n with w_{n+1} = w_1;
* type C, rank n: signed permutations (w_1..w_n); finite indices 0..n-1,
  affine index n, with w_0 = 0 = w_{n+1};
* group elements compose as (uv)(i) = u(v(i)).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache


# ---------------------------------------------------------------------------
# groups and descents


def finite_indices(tag, n):
    return tuple(range(1, n)) if tag == "A" else tuple(range(0, n))


def affine_indices(tag, n):
    return tuple(range(1, n + 1)) if tag == "A" else tuple(range(0, n + 1))


def subsets(universe, nonempty=False):
    """All subsets of a tuple, as frozensets, by size then lexicographically."""
    start = 1 if nonempty else 0
    return [
        frozenset(c)
        for r in range(start, len(universe) + 1)
        for c in itertools.combinations(universe, r)
    ]


@lru_cache(maxsize=None)
def group(tag, n):
    """All elements in lexicographic order of their one-line notation."""
    perms = list(itertools.permutations(range(1, n + 1)))
    if tag == "A":
        return tuple(perms)
    return tuple(
        sorted(
            tuple(s * p for s, p in zip(signs, perm))
            for perm in perms
            for signs in itertools.product((-1, 1), repeat=n)
        )
    )


def apply(w, i):
    """w(i) on [-n, n], with w(-i) = -w(i) and w(0) = 0."""
    if i > 0:
        return w[i - 1]
    if i < 0:
        return -w[-i - 1]
    return 0


def compose(u, v):
    return tuple(apply(u, apply(v, i)) for i in range(1, len(v) + 1))


def descents(tag, w):
    n = len(w)
    word = (0,) + w + ((w[0],) if tag == "A" else (0,))
    return frozenset(i for i in finite_indices(tag, n) if word[i] > word[i + 1])


def affine_descents(tag, w):
    n = len(w)
    word = (0,) + w + ((w[0],) if tag == "A" else (0,))
    return frozenset(i for i in affine_indices(tag, n) if word[i] > word[i + 1])


@lru_cache(maxsize=None)
def descent_classes(tag, n):
    """Each element with its finite and affine descent sets."""
    return tuple((w, descents(tag, w), affine_descents(tag, w)) for w in group(tag, n))


def class_sum(tag, n, J, affine=False):
    """Support of x_J (or x~_J): the elements whose descents lie inside J."""
    J = frozenset(J)
    col = 2 if affine else 1
    return [row[0] for row in descent_classes(tag, n) if row[col] <= J]


def ring_product(left, right):
    """Convolution of two 0/1 group-ring elements given by their supports."""
    out = {}
    for u in left:
        for v in right:
            uv = compose(u, v)
            out[uv] = out.get(uv, 0) + 1
    return out


# ---------------------------------------------------------------------------
# class sizes from parabolic orders, and descent counts


def composition(J, n):
    """The composition of n whose partial sums are the indices in J."""
    cuts = [0] + sorted(J) + [n]
    return [b - a for a, b in zip(cuts, cuts[1:])]


def descent_set_of(parts):
    return frozenset(itertools.accumulate(parts[:-1]))


def x_size(tag, n, K):
    """|x_K| = |W| / |W_{S minus K}|, from the orders of parabolic subgroups.

    Type A: W_{S-K} is the Young subgroup of the composition of K.  Type C:
    the indices below min(K) generate a hyperoctahedral group B_a, and each
    gap between consecutive cuts a symmetric group.
    """
    order = math.factorial(n) * (2**n if tag == "C" else 1)
    if tag == "A":
        parabolic = math.prod(math.factorial(p) for p in composition(K, n))
    else:
        cuts = sorted(K) + [n]
        a = cuts[0]
        parabolic = 2**a * math.factorial(a)
        parabolic *= math.prod(math.factorial(b - c) for c, b in zip(cuts, cuts[1:]))
    return order // parabolic


@lru_cache(maxsize=None)
def xt_sizes(tag, n):
    """|x~_K| for every nonempty K, by counting affine descents over the group."""
    exact = {}
    for _, _, ades in descent_classes(tag, n):
        exact[ades] = exact.get(ades, 0) + 1
    return {
        K: sum(c for D, c in exact.items() if D <= K)
        for K in subsets(affine_indices(tag, n), nonempty=True)
    }


# ---------------------------------------------------------------------------
# Solomon's Mackey formula (type A)


def _matrices(rows, cols):
    """Nonnegative integer matrices with the given row and column sums,
    yielded as lists of columns."""
    if not cols:
        if not any(rows):
            yield []
        return
    first, rest = cols[0], cols[1:]

    def fill(i, left, column, remaining):
        if i == len(remaining):
            if left == 0:
                yield column, remaining
            return
        for v in range(min(left, remaining[i]) + 1):
            nxt = list(remaining)
            nxt[i] -= v
            yield from fill(i + 1, left - v, column + [v], nxt)

    for column, remaining in fill(0, first, [], list(rows)):
        for tail in _matrices(remaining, rest):
            yield [column] + tail


@lru_cache(maxsize=None)
def mackey(I, J, n):
    """x_I x_J in the x basis of the type A descent algebra.

    The sum runs over nonnegative integer matrices with row sums comp(I) and
    column sums comp(J); each matrix contributes x_K for the composition
    read from its nonzero entries column by column.
    """
    out = {}
    for columns in _matrices(composition(I, n), composition(J, n)):
        parts = [v for column in columns for v in column if v]
        K = descent_set_of(parts)
        out[K] = out.get(K, 0) + 1
    return out


# ---------------------------------------------------------------------------
# faces, necklaces and their closed-form counts


def tits(fblocks, gblocks):
    """Nonempty pairwise intersections S_i & T_j, in lexicographic (i, j) order."""
    out = []
    for S in fblocks:
        for T in gblocks:
            piece = sorted(set(S) & set(T))
            if piece:
                out.append(piece)
    return out


def _norm(label, n):
    return (label - 1) % n + 1


def clasp_first(blocks, labels):
    """Rotate a spin necklace so the block after the largest label comes first."""
    c = (labels.index(max(labels)) + 1) % len(blocks)
    return blocks[c:] + blocks[:c], labels[c:] + labels[:c]


def refine_spin(blocks, labels, gblocks, n):
    """Type A action: refine each necklace block by the face, with running labels."""
    new_blocks, new_labels = [], []
    for idx, block in enumerate(blocks):
        running = labels[idx - 1]
        for T in gblocks:
            piece = sorted(set(block) & set(T))
            if piece:
                running = _norm(running + len(piece), n)
                new_blocks.append(piece)
                new_labels.append(running)
    return clasp_first(new_blocks, new_labels)


def sym_cycle(zero_block, clockwise, antipodal):
    """The full clockwise cycle of a type C necklace, from the zero block."""
    mirror = [sorted(-x for x in b) for b in reversed(clockwise)]
    middle = [list(antipodal)] if antipodal else []
    return [list(zero_block)] + [list(b) for b in clockwise] + middle + mirror


def refine_sym(zero_block, clockwise, antipodal, gfull):
    """Type C action: refine the full cycle, read back from the zero block."""
    cycle = []
    for block in sym_cycle(zero_block, clockwise, antipodal):
        for T in gfull:
            piece = sorted(set(block) & set(T))
            if piece:
                cycle.append(piece)
    z = next(i for i, b in enumerate(cycle) if 0 in b)
    cycle = cycle[z:] + cycle[:z]
    m = (len(cycle) - 1) // 2
    anti = cycle[m + 1] if (len(cycle) - 1) % 2 else None
    return {"zero_block": cycle[0], "clockwise": cycle[1 : m + 1], "antipodal": anti}


def stirling2(n, k):
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)) // math.factorial(k)


def fubini(n):
    """Ordered set partitions of n labelled items."""
    return sum(math.factorial(k) * stirling2(n, k) for k in range(n + 1))


def count_faces(tag, n):
    if tag == "A":
        return fubini(n)
    # Zero block of size s, then signed ordered set partitions of the rest.
    return sum(math.comb(n, s) * 2 ** (n - s) * fubini(n - s) for s in range(n + 1))


def count_torus_faces(tag, n):
    """Each element w lies in 2^(#affine indices - #affine descents) faces."""
    width = len(affine_indices(tag, n))
    return sum(2 ** (width - len(ades)) for _, _, ades in descent_classes(tag, n))


def group_order(tag, n):
    return math.factorial(n) * (2**n if tag == "C" else 1)
