"""Faces of the finite Coxeter complexes of types A and C.

A face of the type A complex on {1,...,n} is an ordered set partition
("set composition") (S_1 | ... | S_k).  A face of the type C complex is a
symmetric composition of [-n, n]: an odd-length list of blocks
(B_{-m}, ..., B_0, ..., B_m) with B_0 = -B_0 containing 0 and B_{-i} = -B_i;
only the central block and the right half are stored.

The Tits product of two faces lists the nonempty pairwise block
intersections lexicographically; this makes the face set a left regular
band with the one-block composition as unit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple, Union

from .budget import check_budget
from .errors import FamilyMismatchError, ValidationError
from .weyl import ColorSet, Family, WeylElement

Block = Tuple[int, ...]


@dataclass(frozen=True)
class SetComposition:
    family: Family
    blocks: Tuple[Block, ...]

    def __post_init__(self):
        if self.family.tag != "A":
            raise ValidationError("SetComposition is a type A object")
        seen = [x for block in self.blocks for x in block]
        n = self.family.rank
        if sorted(seen) != list(range(1, n + 1)):
            raise ValidationError(f"blocks do not partition 1..{n}: {self.blocks}")
        if any(tuple(sorted(b)) != b or not b for b in self.blocks):
            raise ValidationError("each block must be nonempty and sorted ascending")

    def __str__(self):
        return "(" + "|".join("".join(map(str, b)) for b in self.blocks) + ")"


@dataclass(frozen=True)
class SymComposition:
    """Type C face, stored as the central block plus the right half."""

    family: Family
    zero_block: Block
    right: Tuple[Block, ...]

    def __post_init__(self):
        if self.family.tag != "C":
            raise ValidationError("SymComposition is a type C object")
        if 0 not in self.zero_block:
            raise ValidationError("the central block must contain 0")
        if tuple(sorted(-x for x in self.zero_block)) != self.zero_block:
            raise ValidationError("the central block must equal its own negation")
        elements = [x for block in self.full_blocks() for x in block]
        n = self.family.rank
        if sorted(elements) != list(range(-n, n + 1)):
            raise ValidationError("blocks do not partition [-n, n]")
        if any(tuple(sorted(b)) != b or not b for b in (self.zero_block,) + self.right):
            raise ValidationError("each block must be nonempty and sorted ascending")

    def full_blocks(self) -> Tuple[Block, ...]:
        """The full symmetric sequence (B_{-m}, ..., B_0, ..., B_m)."""
        mirror = tuple(
            tuple(sorted(-x for x in block)) for block in reversed(self.right)
        )
        return mirror + (self.zero_block,) + self.right

    @staticmethod
    def from_full(family: Family, blocks) -> "SymComposition":
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        if len(blocks) % 2 == 0:
            raise ValidationError("a symmetric composition has an odd number of blocks")
        m = len(blocks) // 2
        for i in range(len(blocks)):
            negated = tuple(sorted(-x for x in blocks[len(blocks) - 1 - i]))
            if blocks[i] != negated:
                raise ValidationError("block list is not mirror-symmetric")
        face = SymComposition(family, blocks[m], blocks[m + 1 :])
        return face

    def __str__(self):
        def show(b):
            return "".join(str(x) if x >= 0 else f"{-x}̄" for x in b)

        return "(" + "|".join(show(b) for b in self.full_blocks()) + ")"


Composition = Union[SetComposition, SymComposition]


@dataclass(frozen=True)
class FiniteSignVector:
    """Signs in {-,0,+} over the canonical positive-root order.

    Type A: pairs (i,j), i<j, lexicographic; the root is e_j - e_i, so the
    entry is '+' exactly when the block of i precedes the block of j.
    Type C: first 2e_1,...,2e_n, then e_i - e_j for i>j, then e_i + e_j for
    i>j, each lexicographic in (i,j).
    """

    family: Family
    signs: Tuple[str, ...]

    def __post_init__(self):
        if any(s not in "-0+" for s in self.signs):
            raise ValidationError("signs must be in {-,0,+}")
        if len(self.signs) != len(positive_root_order(self.family)):
            raise ValidationError("wrong number of sign entries")


def positive_root_order(family: Family):
    """The canonical ordering of positive roots, as comparison instructions.

    Each entry is a pair (a, b) of extended indices in [-n, n]; the sign of
    the root functional on a face is the relative position of the blocks of
    a and b: '+' if b's block comes strictly later than a's, '-' if strictly
    earlier, '0' if equal.  Type A pair (i,j) encodes e_j - e_i as (i, j);
    type C encodes 2e_i as (0, i), e_i - e_j as (j, i), e_i + e_j as (-j, i).
    """
    n = family.rank
    if family.tag == "A":
        return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    order = [(0, i) for i in range(1, n + 1)]
    order += [(j, i) for i in range(2, n + 1) for j in range(1, i)]
    order += [(-j, i) for i in range(2, n + 1) for j in range(1, i)]
    return order


def _positions(F: Composition) -> dict:
    """Map each (extended) element to the index of its block."""
    if isinstance(F, SetComposition):
        blocks = F.blocks
    else:
        blocks = F.full_blocks()
    pos = {}
    for idx, block in enumerate(blocks):
        for x in block:
            pos[x] = idx
    return pos


def sign_vector(F: Composition) -> FiniteSignVector:
    pos = _positions(F)
    signs = []
    for a, b in positive_root_order(F.family):
        pa, pb = pos[a], pos[b]
        signs.append("0" if pa == pb else ("+" if pa < pb else "-"))
    return FiniteSignVector(F.family, tuple(signs))


def compose_signs(f: FiniteSignVector, g: FiniteSignVector) -> FiniteSignVector:
    """Componentwise sign composition: take f's entry unless it is zero."""
    if f.family != g.family:
        raise FamilyMismatchError("sign vectors from different families")
    return FiniteSignVector(
        f.family, tuple(a if a != "0" else b for a, b in zip(f.signs, g.signs))
    )


def _intersect_sequences(fblocks, gblocks):
    """Nonempty pairwise intersections S_i ∩ T_j in lexicographic (i,j) order."""
    out = []
    for S in fblocks:
        sset = set(S)
        for T in gblocks:
            piece = tuple(x for x in T if x in sset)
            if piece:
                out.append(tuple(sorted(piece)))
    return tuple(out)


def tits_product(F: Composition, G: Composition) -> Composition:
    if F.family != G.family:
        raise FamilyMismatchError(f"family mismatch: {F.family} vs {G.family}")
    if isinstance(F, SetComposition):
        return SetComposition(F.family, _intersect_sequences(F.blocks, G.blocks))
    blocks = _intersect_sequences(F.full_blocks(), G.full_blocks())
    return SymComposition.from_full(F.family, blocks)


def unit_face(family: Family) -> Composition:
    """The one-block composition: unit of the Tits product."""
    n = family.rank
    if family.tag == "A":
        return SetComposition(family, (tuple(range(1, n + 1)),))
    return SymComposition(family, tuple(range(-n, n + 1)), ())


def w_of_face(F: Composition) -> WeylElement:
    if isinstance(F, SetComposition):
        values = tuple(x for block in F.blocks for x in block)
        return WeylElement(F.family, values)
    positives = tuple(x for x in F.zero_block if x > 0)
    values = positives + tuple(x for block in F.right for x in block)
    return WeylElement(F.family, values)


def color_set(F: Composition) -> ColorSet:
    if isinstance(F, SetComposition):
        sums = itertools.accumulate(len(b) for b in F.blocks[:-1])
        return ColorSet(F.family, frozenset(sums))
    # Type C: start from the number of positive elements of the central
    # block, then accumulate full block sizes, stopping before the last.
    a0 = sum(1 for x in F.zero_block if x > 0)
    indices = []
    total = a0
    for block in F.right:
        indices.append(total)
        total += len(block)
    return ColorSet(F.family, frozenset(indices))


def is_subface(F: Composition, G: Composition) -> bool:
    """True iff F is obtained from G by merging consecutive blocks (F <= G)."""
    if F.family != G.family:
        raise FamilyMismatchError("family mismatch")
    fblocks = F.blocks if isinstance(F, SetComposition) else F.full_blocks()
    gblocks = G.blocks if isinstance(G, SetComposition) else G.full_blocks()
    gi = 0
    for target in fblocks:
        remaining = set(target)
        while remaining:
            if gi >= len(gblocks) or not set(gblocks[gi]) <= remaining:
                return False
            remaining -= set(gblocks[gi])
            gi += 1
    return gi == len(gblocks)


def act(w: WeylElement, F: Composition) -> Composition:
    if w.family != F.family:
        raise FamilyMismatchError("family mismatch")
    if isinstance(F, SetComposition):
        return SetComposition(
            F.family, tuple(tuple(sorted(w(x) for x in b)) for b in F.blocks)
        )
    blocks = [tuple(sorted(w(x) for x in b)) for b in F.full_blocks()]
    return SymComposition.from_full(F.family, blocks)


def _ordered_partitions(elements) -> Iterator[Tuple[Block, ...]]:
    """All ordered set partitions of a sorted element tuple."""
    if not elements:
        yield ()
        return
    for r in range(1, len(elements) + 1):
        for first in itertools.combinations(elements, r):
            leftover = tuple(x for x in elements if x not in first)
            for tail in _ordered_partitions(leftover):
                yield (first,) + tail


def count_faces(family: Family) -> int:
    n = family.rank
    if family.tag == "A":
        return _fubini(n)
    return sum(
        _comb(n, s) * _signed_fubini(n - s) for s in range(n + 1)
    )


def _comb(n, k):
    import math

    return math.comb(n, k)


def _fubini(n, _cache={0: 1}):
    if n not in _cache:
        _cache[n] = sum(_comb(n, j) * _fubini(n - j) for j in range(1, n + 1))
    return _cache[n]


def _signed_fubini(r, _cache={0: 1}):
    """Ordered set partitions of r labeled items with a sign on each item."""
    if r not in _cache:
        _cache[r] = sum(
            _comb(r, j) * 2**j * _signed_fubini(r - j) for j in range(1, r + 1)
        )
    return _cache[r]


def enumerate_faces(
    family: Family, color: Optional[ColorSet] = None
) -> Iterator[Composition]:
    """All faces, or the W-orbit of the given color set, each exactly once."""
    check_budget(count_faces(family), f"faces of {family}")
    n = family.rank
    if family.tag == "A":
        for blocks in _ordered_partitions(tuple(range(1, n + 1))):
            face = SetComposition(family, blocks)
            if color is None or color_set(face).indices == color.indices:
                yield face
        return
    universe = tuple(range(1, n + 1))
    for s in range(n + 1):
        for zero_abs in itertools.combinations(universe, s):
            zero_block = tuple(sorted(set(zero_abs) | {0} | {-x for x in zero_abs}))
            rest = tuple(x for x in universe if x not in zero_abs)
            for blocks in _ordered_partitions(rest):
                for signs in itertools.product(
                    *((-1, 1) for _ in range(len(rest)))
                ):
                    sign_of = dict(zip(rest, signs))
                    right = tuple(
                        tuple(sorted(sign_of[x] * x for x in b)) for b in blocks
                    )
                    face = SymComposition(family, zero_block, right)
                    if color is None or color_set(face).indices == color.indices:
                        yield face


def to_wire(F: Composition) -> dict:
    if isinstance(F, SetComposition):
        return {"blocks": [list(b) for b in F.blocks]}
    return {"blocks": [list(b) for b in F.full_blocks()]}


def _is_ints(value) -> bool:
    """True for a JSON list of integers; bools and floats do not count."""
    return isinstance(value, list) and all(type(x) is int for x in value)


def _wire_ints(value, field: str) -> Tuple[int, ...]:
    if not _is_ints(value):
        raise ValidationError(f"'{field}' must be a list of integers")
    return tuple(value)


def _wire_blocks(value, field: str) -> Tuple[Block, ...]:
    """A JSON list of integer lists, each block sorted."""
    if not isinstance(value, list) or not all(_is_ints(b) for b in value):
        raise ValidationError(f"'{field}' must be a list of integer lists")
    return tuple(tuple(sorted(b)) for b in value)


def from_wire(family: Family, data: dict) -> Composition:
    if not isinstance(data, dict) or "blocks" not in data:
        raise ValidationError("face wire form must be an object with a 'blocks' key")
    blocks = _wire_blocks(data["blocks"], "blocks")
    if family.tag == "A":
        return SetComposition(family, blocks)
    return SymComposition.from_full(family, blocks)
