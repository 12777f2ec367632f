"""Independent affine-face oracle for type A.

An affine face is encoded by its compact sign vector: for each pair
i < j (positive root e_j - e_i) an integer level k with
k <= x_j - x_i < k + 1 on the face, together with a sign telling whether
equality holds ('0') or not ('+').

``lift`` computes the vector of a canonical representative of a torus face
(split-necklace coordinates 0, 1/m, ..., (m-1)/m, tail at 1, exact
rationals).  ``project`` inverts it up to coroot translation, so that

    project(oracle_act(lift(N), G)) == module_action(N, G)

can be checked exhaustively; this is the cross-validation the module
exists for.  The necklace reconstructed by ``project`` reads its blocks
from the exact (sign '0') relations, its cyclic order from fractional
positions, and its edge labels from the translation-invariant count

    label(cut c) == -sum_i floor(x_i - c)   (mod n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import FamilyMismatchError, NotRealizableError, ValidationError
from .weyl import Family
from .coxfaces import SetComposition, sign_vector
from .torusfaces import (
    SpinNecklace,
    make_spin,
    split,
    w_of_torus_face,
)

Entry = Tuple[int, str]


def _pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


@dataclass(frozen=True)
class CompactSignVector:
    n: int
    entries: Tuple[Entry, ...]

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


def _vector_from_coords(n, coords) -> CompactSignVector:
    entries = []
    for i, j in _pairs(n):
        d = coords[j] - coords[i]
        k = math.floor(d)
        entries.append((int(d), "0") if d == k else (k, "+"))
    return CompactSignVector(n, tuple(entries))


def lift(N: SpinNecklace) -> CompactSignVector:
    n = N.family.rank
    s = split(N)
    m = len(s.blocks)
    coords = {}
    for p, block in enumerate(s.blocks):
        for x in block:
            coords[x] = Fraction(p, m)
    for x in s.tail or ():
        coords[x] = Fraction(1)
    return _vector_from_coords(n, coords)


def translate(V: CompactSignVector, mu: CorootVector) -> CompactSignVector:
    if len(mu.coords) != V.n:
        raise ValidationError("rank mismatch")
    shifted = []
    for (i, j), (k, s) in zip(_pairs(V.n), V.entries):
        shifted.append((k + mu.coords[j - 1] - mu.coords[i - 1], s))
    return CompactSignVector(V.n, tuple(shifted))


def oracle_act(V: CompactSignVector, G: SetComposition) -> CompactSignVector:
    if G.family != Family("A", V.n):
        raise FamilyMismatchError("rank/family mismatch")
    gsigns = sign_vector(G).signs
    out = []
    for (k, s), g in zip(V.entries, gsigns):
        if s == "0" and g == "+":
            out.append((k, "+"))
        elif s == "0" and g == "-":
            out.append((k - 1, "+"))
        else:
            out.append((k, s))
    return CompactSignVector(V.n, tuple(out))


class _OffsetUnionFind:
    """Union-find tracking x_child = x_root + offset for exact relations."""

    def __init__(self, items):
        self.parent = {i: i for i in items}
        self.offset = {i: 0 for i in items}

    def find(self, i):
        if self.parent[i] == i:
            return i, 0
        root, off = self.find(self.parent[i])
        self.parent[i] = root
        self.offset[i] += off
        return root, self.offset[i]

    def union(self, i, j, delta):
        """Impose x_j = x_i + delta; returns False on contradiction."""
        ri, oi = self.find(i)
        rj, oj = self.find(j)
        if ri == rj:
            return oj == oi + delta
        self.parent[rj] = ri
        self.offset[rj] = oi + delta - oj
        return True


def _reconstruct_coords(V: CompactSignVector):
    """One exact coordinate assignment consistent with V (up to global shift)."""
    n = V.n
    uf = _OffsetUnionFind(range(1, n + 1))
    for (i, j), (k, s) in zip(_pairs(n), V.entries):
        if s == "0" and not uf.union(i, j, k):
            raise NotRealizableError("contradictory exact relations")
    bounds = {}  # (root_a, root_b) -> integer L with x_rb - x_ra in (L, L+1)
    for (i, j), (k, s) in zip(_pairs(n), V.entries):
        if s != "+":
            continue
        ri, oi = uf.find(i)
        rj, oj = uf.find(j)
        if ri == rj:
            raise NotRealizableError("strict entry inside an exact class")
        L = k + oi - oj
        for key, val in (((ri, rj), L), ((rj, ri), -L - 1)):
            if bounds.setdefault(key, val) != val:
                raise NotRealizableError("inconsistent strict bounds")
    roots = sorted({uf.find(i)[0] for i in range(1, n + 1)})
    anchor = roots[0]
    # Fractional positions: root b sits at integer part bounds[(anchor, b)]
    # plus a fraction; pairwise bounds decide the fraction order.
    others = [r for r in roots if r != anchor]
    for r in others:
        if (anchor, r) not in bounds:
            raise NotRealizableError("missing cross-class constraint")

    def frac_before(a, b):
        """True if a's fractional position is strictly below b's."""
        la = bounds[(anchor, a)] if a != anchor else 0
        lb = bounds[(anchor, b)] if b != anchor else 0
        lab = bounds.get((a, b))
        if lab == lb - la:
            return True
        if lab == lb - la - 1:
            return False
        raise NotRealizableError("incoherent fractional order")

    ordered = [anchor]
    for r in others:  # insertion sort via the strict comparison
        lo = 1  # the anchor has fraction 0, strictly smallest
        while lo < len(ordered) and frac_before(ordered[lo], r):
            lo += 1
        ordered.insert(lo, r)
    c = len(ordered)
    frac = {r: Fraction(q, c) for q, r in enumerate(ordered)}
    coords = {}
    for i in range(1, n + 1):
        r, off = uf.find(i)
        base = bounds[(anchor, r)] if r != anchor else 0
        coords[i] = base + frac[r] + off
    # Full verification against every entry; anything left over is a
    # genuinely unrealizable vector.
    if _vector_from_coords(n, coords).entries != V.entries:
        raise NotRealizableError("no point configuration matches the vector")
    blocks_in_order = []
    for r in ordered:
        blocks_in_order.append(
            tuple(sorted(i for i in range(1, n + 1) if uf.find(i)[0] == r))
        )
    return coords, blocks_in_order, frac, ordered


def project(V: CompactSignVector) -> SpinNecklace:
    n = V.n
    coords, blocks, frac, ordered = _reconstruct_coords(V)

    def label_at(cut: Fraction) -> int:
        return (-sum(math.floor(coords[i] - cut) for i in range(1, n + 1))) % n or n

    labels = []
    for p in range(len(ordered)):
        here = frac[ordered[p]]
        there = (
            frac[ordered[p + 1]] if p + 1 < len(ordered) else frac[ordered[0]] + 1
        )
        labels.append(label_at((here + there) / 2))
    return make_spin(Family("A", n), blocks, labels)


def w_of_affine_face(V: CompactSignVector):
    """The unique (coroot translation, group element) locating the face."""
    N = project(V)
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

