"""Independent affine-face oracle for type A.

An affine face is encoded by its compact sign vector: for each pair
i < j (positive root e_j - e_i) an integer level k with
k <= x_j - x_i < k + 1 on the face, together with a sign telling whether
equality holds ('0') or not ('+').

Points are integer coordinates over one common denominator, the scale:
x_i = X_i / scale, so the entry of the pair (i, j) is the quotient of
divmod(X_j - X_i, scale), signed '0' when the remainder is 0.  ``lift``
computes the vector of a canonical representative of a torus face: block p
of the split necklace at p and the tail at m, over the scale m of its m
blocks.  ``project`` inverts it up to coroot translation, so that

    project(oracle_act(lift(N), G)) == module_action(N, G)

can be checked exhaustively; this is the cross-validation the module
exists for.  ``project`` rebuilds one point from the vector and accepts the
vector exactly when the rebuilt point has it.  The necklace's blocks are
the elements with equal fractional parts, in their order, and the label of
the edge after block p of c is the translation-invariant count

    label == -sum_i floor(x_i - (2p + 1) / 2c)   (mod n).

``oracle_act`` applies G's signs through ``_act``.  A vector's family is type A
of its rank, so each function checks it by ``weyl._same_family`` (``lift`` by
``split``); the vectors built here skip the ``CompactSignVector`` constructor's check.
``project`` keeps every check; the oracle suite caches it per run and hands
it to ``_locate``, so each distinct vector is projected once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Tuple

from .errors import FamilyMismatchError, NotRealizableError, ValidationError
from .weyl import Family, _same_family, _trusted
from .coxfaces import _FACES, SetComposition, positive_root_order, sign_vector
from .torusfaces import SpinNecklace, make_spin, split, w_of_torus_face

Entry = Tuple[int, str]
_type_a = functools.cache(functools.partial(Family, "A"))  # Family("A", n), one per rank


@functools.lru_cache(maxsize=None)
def _pairs(n):
    """The pairs i < j in the root order that ``_act`` reads signs in."""
    return positive_root_order(_type_a(n))


@dataclass(frozen=True)
class CompactSignVector:
    n: int
    entries: Tuple[Entry, ...]
    family = property(lambda self: _type_a(self.n))  # type A of rank n

    def __post_init__(self):
        if len(self.entries) != self.n * (self.n - 1) // 2:
            raise ValidationError("one entry per pair i<j required")
        if any(s not in ("0", "+") for _, s in self.entries):
            raise ValidationError("signs must be '0' or '+'")

    def entry(self, i: int, j: int) -> Entry:
        # index of pair (i,j) in lexicographic order
        idx = (i - 1) * self.n - i * (i - 1) // 2 + (j - i - 1)
        return self.entries[idx]


@dataclass(frozen=True)
class CorootVector:
    coords: Tuple[int, ...]

    def __post_init__(self):
        if sum(self.coords) != 0:
            raise ValidationError("coroot vectors have coordinate sum zero")


def _vector_from_coords(n, coords, scale) -> CompactSignVector:
    """The vector of the point x_i = coords[i] / scale, i in 1..n."""
    levels = (divmod(coords[j] - coords[i], scale) for i, j in _pairs(n))
    return _trusted(CompactSignVector, n, tuple((k, "+" if r else "0") for k, r in levels))


def lift(N: SpinNecklace) -> CompactSignVector:
    s = split(N)
    n, m = s.family.rank, len(s.blocks)
    coords = [m] * (n + 1)  # the tail, and the unused index 0, at m
    for p, block in enumerate(s.blocks):
        for x in block:
            coords[x] = p
    return _vector_from_coords(n, coords, m)


def translate(V: CompactSignVector, mu: CorootVector) -> CompactSignVector:
    n = _same_family((V, CompactSignVector)).rank
    if not isinstance(mu, CorootVector) or len(mu.coords) != n:
        raise ValidationError("rank mismatch")
    return _trusted(CompactSignVector, n, tuple(
        (k + mu.coords[j - 1] - mu.coords[i - 1], s)
        for (i, j), (k, s) in zip(_pairs(n), V.entries)))


def oracle_act(V: CompactSignVector, G: SetComposition) -> CompactSignVector:
    if _same_family((G, _FACES)) != _same_family((V, CompactSignVector)):
        raise FamilyMismatchError("rank/family mismatch")
    return _act(V, sign_vector(G).signs)


def _act(V: CompactSignVector, gsigns) -> CompactSignVector:
    """``oracle_act`` by the face with the signs gsigns: a nonzero sign moves
    an entry (k, '0') off its wall, to (k, '+') for '+' and (k - 1, '+') for '-'."""
    return _trusted(CompactSignVector, V.n, tuple(
        (k - (g == "-"), "+") if s == "0" and g != "0" else (k, s)
        for (k, s), g in zip(V.entries, gsigns)))


def project(V: CompactSignVector) -> SpinNecklace:
    """The necklace of a point coords[i] / c, i in 1..n, whose vector is V.

    Each element hangs off the least element it shares a '0' entry with,
    at that entry's level.  The others, the roots, are one per block: root
    b sits at its level L[b] to element 1 plus a fractional part q / c, for
    c roots, where q counts the roots a whose level to b is L[b] - L[a],
    that is, those with a smaller fractional part.  Comparing the point's
    vector with V is the one realizability check."""
    n = (family := _same_family((V, CompactSignVector))).rank
    entry = dict(zip(_pairs(n), V.entries))
    parent = {}
    for (i, j), (k, s) in entry.items():  # the least i comes first
        if s == "0":
            parent.setdefault(j, (i, k))
    roots = [b for b in range(1, n + 1) if b not in parent]
    c = len(roots)
    L = {b: entry[1, b][0] if b > 1 else 0 for b in roots}
    coords = [0] * (n + 1)
    for b in range(1, n + 1):
        if b in parent:
            a, k = parent[b]
            coords[b] = coords[a] + k * c
            continue
        q = sum((entry[a, b][0] if a < b else -entry[b, a][0] - 1) == L[b] - L[a]
                for a in roots if a != b)
        coords[b] = L[b] * c + q
    if _vector_from_coords(n, coords, c).entries != V.entries:
        raise NotRealizableError("no point configuration matches the vector")
    blocks = [[] for _ in range(c)]
    for i in range(1, n + 1):
        blocks[coords[i] % c].append(i)
    labels = [-sum((2 * x - 2 * p - 1) // (2 * c) for x in coords[1:])
              for p in range(c)]
    return make_spin(family, blocks, labels)


def w_of_affine_face(V: CompactSignVector):
    """The unique (coroot translation, group element) locating the face."""
    return _locate(V, project(V))


def _locate(V: CompactSignVector, N: SpinNecklace):
    """``w_of_affine_face(V)``, given N = project(V)."""
    w = w_of_torus_face(N)
    base = lift(N)
    n = V.n
    diffs = [0] * (n + 1)  # diffs[j] = mu_j - mu_1
    for j in range(2, n + 1):
        diffs[j] = V.entry(1, j)[0] - base.entry(1, j)[0]
    total = sum(diffs[2:])
    if total % n != 0:
        raise NotRealizableError("vector is not a lattice translate of a face")
    t = -total // n
    mu = CorootVector(tuple(t + diffs[j] for j in range(1, n + 1)))
    if translate(base, mu) != V:
        raise NotRealizableError("vector is not a lattice translate of a face")
    return mu, w
