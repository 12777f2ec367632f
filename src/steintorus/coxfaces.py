"""Faces of the finite Coxeter complexes of types A and C.

A face of the type A complex on {1,...,n} is an ordered set partition
("set composition") (S_1 | ... | S_k).  A face of the type C complex is a
symmetric composition of [-n, n]: an odd-length list of blocks
(B_{-m}, ..., B_0, ..., B_m) with B_0 = -B_0 containing 0 and B_{-i} = -B_i;
only the central block and the right half are stored.

The Tits product of two faces lists the nonempty pairwise block
intersections lexicographically; this makes the face set a left regular
band with the one-block composition as unit.

Products are computed on position codes.  A face's code gives each element
of [1, n] (type A) or [-n, n] (type C), in order, the end of its block in
the concatenated full blocks: its block position, relabelled monotonically.
The one kernel ``_refine`` serves the Tits product and the torus module
action.  Its result reads q only on the elements sharing their block of p
(the trace of q on p): an element alone in its block sorts by its p value
alone, and so does the anchor when alone.  So ``_refine_all``, one left code
against many right codes, calls the one kernel once per distinct trace.
Validation stays at the boundary (the public constructors,
``SymComposition.from_full``, ``from_wire`` and the enumerators); kernel
output is trusted and built by ``_trusted`` without ``__post_init__``.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, List, Optional, Tuple, Union

from .budget import check_count
from .errors import FamilyMismatchError, ValidationError
from .weyl import ColorSet, Family, WeylElement

Block = Tuple[int, ...]


def _check_blocks(blocks, lo: int, n: int) -> None:
    """The blocks must be nonempty, sorted ascending, and partition [lo, n];
    the element count is compared first, so a huge n builds no range."""
    elements = sorted(x for b in blocks for x in b)
    if len(elements) != n - lo + 1 or elements != list(range(lo, n + 1)):
        raise ValidationError(f"blocks do not partition [{lo}, {n}]: {blocks}")
    if any(tuple(sorted(b)) != b or not b for b in blocks):
        raise ValidationError("each block must be nonempty and sorted ascending")


def _mirror(blocks) -> Tuple[Block, ...]:
    """Sorted blocks negated, in reverse order: their mirror image through 0."""
    return tuple(tuple([-x for x in reversed(b)]) for b in reversed(blocks))


@dataclass(frozen=True, order=True)
class SetComposition:
    family: Family
    blocks: Tuple[Block, ...]

    def __post_init__(self):
        if self.family.tag != "A":
            raise ValidationError("SetComposition is a type A object")
        _check_blocks(self.blocks, 1, self.family.rank)

    def full_blocks(self) -> Tuple[Block, ...]:
        return self.blocks

    def __str__(self):
        return "(" + "|".join("".join(map(str, b)) for b in self.blocks) + ")"


@dataclass(frozen=True, order=True)
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
        n = self.family.rank
        _check_blocks(self.full_blocks(), -n, n)

    def full_blocks(self) -> Tuple[Block, ...]:
        """The full symmetric sequence (B_{-m}, ..., B_0, ..., B_m)."""
        return _mirror(self.right) + (self.zero_block,) + self.right

    @staticmethod
    def from_full(family: Family, blocks) -> "SymComposition":
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        m = len(blocks) // 2
        if len(blocks) % 2 == 0 or _mirror(blocks) != blocks:
            raise ValidationError("block list is not mirror-symmetric of odd length")
        return SymComposition(family, blocks[m], blocks[m + 1 :])

    def __str__(self):
        def show(b):
            return "".join(str(x) if x >= 0 else f"{-x}̄" for x in b)

        return "(" + "|".join(show(b) for b in self.full_blocks()) + ")"


Composition = Union[SetComposition, SymComposition]


def _from_full(family: Family, blocks) -> Composition:
    """The face of the family with the given full block sequence."""
    if family.tag == "A":
        return SetComposition(family, blocks)
    return SymComposition.from_full(family, blocks)


def _trusted(cls, *fields):
    """An instance of the frozen dataclass cls with the given field values,
    built without __post_init__: for kernel output only."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, fields))
    return obj


def _encode(blocks, values, n: int) -> Tuple[int, ...]:
    """The position code over the len(code) integers ending at n that gives
    every element of each block the block's value."""
    code = [0] * sum(map(len, blocks))
    shift = len(code) - n - 1
    for block, value in zip(blocks, values):
        for x in block:
            code[x + shift] = value
    return tuple(code)


def _decode(code, n: int):
    """(values, blocks): the distinct code values in ascending order, and
    each one's block of elements, sorted."""
    groups = {}
    for x, value in enumerate(code, n + 1 - len(code)):
        groups.setdefault(value, []).append(x)
    values = sorted(groups)
    return tuple(values), tuple(tuple(groups[v]) for v in values)


def _refine(p, q, anchor: Optional[int] = None):
    """The code of the refinement of code p by code q.  Element x lies in the
    piece of the pair (p[x], q[x]), pieces in lexicographic order, and its
    new code is the number of elements in the pieces up to its own, counted
    on from the end max(p) of p's last block, mod len(p) into 1..len(p).
    With an anchor index, the count starts so that the anchor's piece comes
    first."""
    size = len(p)
    keys = [a * (size + 1) + b for a, b in zip(p, q)]  # codes are <= size
    ordered = sorted(keys)
    counts = map(bisect_right, itertools.repeat(ordered), keys)
    start = max(p) if anchor is None else -bisect_left(ordered, keys[anchor])
    shift = start % size
    if not shift:
        return tuple(counts)
    # ring[c] is shift + c taken mod size into 1..size.
    ring = (0, *range(shift + 1, size + 1), *range(1, shift + 1))
    return tuple(map(ring.__getitem__, counts))


def _refine_all(p, qs, anchor: Optional[int] = None):
    """[_refine(p, q, anchor) for q in qs], with one kernel call per distinct
    trace of q on p's blocks of two or more elements, on the last q of that
    trace (any q of a trace gives its result); qs is read twice."""
    shared = [i for i, value in enumerate(p) if p.count(value) > 1]
    traces = list(map(itemgetter(*shared) if shared else (lambda q: ()), qs))
    results = {t: _refine(p, q, anchor) for t, q in dict(zip(traces, qs)).items()}
    return list(map(results.__getitem__, traces))


def _face_code(F: Composition) -> Tuple[int, ...]:
    blocks = F.full_blocks()
    return _encode(blocks, itertools.accumulate(map(len, blocks)), F.family.rank)


def _from_code(family: Family, code) -> Composition:
    """The face with the given code, unchecked."""
    _, blocks = _decode(code, family.rank)
    if family.tag == "A":
        return _trusted(SetComposition, family, blocks)
    m = len(blocks) // 2
    return _trusted(SymComposition, family, blocks[m], blocks[m + 1 :])


def _moved(code, w: WeylElement) -> Tuple[int, ...]:
    """The code of w's image of a face or necklace: w keeps the block order
    and the labels, so w(x) takes over x's code."""
    n = w.family.rank
    return _encode([(w(x),) for x in range(n + 1 - len(code), n + 1)], code, n)


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


@functools.cache
def positive_root_order(family: Family) -> Tuple[Tuple[int, int], ...]:
    """The canonical ordering of positive roots, as comparison instructions,
    built once per family.

    Each entry is a pair (a, b) of extended indices in [-n, n]; the sign of
    the root functional on a face is the relative position of the blocks of
    a and b: '+' if b's block comes strictly later than a's, '-' if strictly
    earlier, '0' if equal.  Type A pair (i,j) encodes e_j - e_i as (i, j);
    type C encodes 2e_i as (0, i), e_i - e_j as (j, i), e_i + e_j as (-j, i).
    """
    n = family.rank
    if family.tag == "A":
        return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    order = [(0, i) for i in range(1, n + 1)]
    order += [(j, i) for i in range(2, n + 1) for j in range(1, i)]
    order += [(-j, i) for i in range(2, n + 1) for j in range(1, i)]
    return tuple(order)


def sign_vector(F: Composition) -> FiniteSignVector:
    pos = {x: idx for idx, block in enumerate(F.full_blocks()) for x in block}
    signs = []
    for a, b in positive_root_order(F.family):
        pa, pb = pos[a], pos[b]
        signs.append("0" if pa == pb else ("+" if pa < pb else "-"))
    return FiniteSignVector(F.family, tuple(signs))


def tits_product(F: Composition, G: Composition) -> Composition:
    if F.family != G.family:
        raise FamilyMismatchError(f"family mismatch: {F.family} vs {G.family}")
    return _from_code(F.family, _refine(_face_code(F), _face_code(G)))


def unit_face(family: Family) -> Composition:
    """The one-block composition: unit of the Tits product."""
    n = family.rank
    return _from_full(family, (tuple(range(1 if family.tag == "A" else -n, n + 1)),))


def w_of_face(F: Composition) -> WeylElement:
    return _trusted(WeylElement, F.family, _w_of_code(F.family, _face_code(F)))


def _w_of_code(family: Family, code) -> Tuple[int, ...]:
    """The one-line values of the canonical group element of a face or
    necklace, read off its code.  The elements sorted by code value are the
    blocks in order, each ascending, read from the clasp or zero block of a
    necklace.  Type C takes the n entries after 0; type A rotates by
    n - max(code): by 0 for a face, and for a spin necklace by n - incoming,
    moving the clasp's first n - incoming elements to the end."""
    n = family.rank
    # Each key sequence holds element x's value at index x; a negative x
    # counts from the end.
    if family.tag == "C":
        order = sorted(range(-n, n + 1), key=(code[n:] + code[:n]).__getitem__)
        start = order.index(0) + 1
        return tuple(order[start : start + n])
    order = sorted(range(1, n + 1), key=((0,) + code).__getitem__)
    cut = n - max(code)
    return tuple(order[cut:] + order[:cut])


def color_set(F: Composition) -> ColorSet:
    """The block ends inside the last n entries of the concatenated full
    blocks, counted from their start and without the final end; a type C
    zero block {0} ends at 0."""
    n = F.family.rank
    # The end of a block with t entries after it is index n - t.
    after = itertools.accumulate(map(len, reversed(F.full_blocks()[1:])))
    return ColorSet(F.family, frozenset(n - t for t in after if t <= n))


def act(w: WeylElement, F: Composition) -> Composition:
    if w.family != F.family:
        raise FamilyMismatchError("family mismatch")
    return _from_code(F.family, _moved(_face_code(F), w))


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


def _self_negating(universe, extra=()):
    """Yield (block, rest) for every subset S of the universe, by size and
    then lexicographically: block is S, -S and `extra`, sorted; rest is the
    universe without S.  This picks a zero block (extra (0,)) or an
    antipodal block (empty when S is)."""
    for size in range(len(universe) + 1):
        for chosen in itertools.combinations(universe, size):
            block = tuple(sorted(chosen + extra + tuple(-x for x in chosen)))
            yield block, tuple(x for x in universe if x not in chosen)


def _signed_partitions(elements) -> Iterator[Tuple[Block, ...]]:
    """Every ordered set partition of the elements with a sign on each one,
    signs varying fastest; blocks sorted."""
    for blocks in _ordered_partitions(elements):
        for signs in itertools.product((-1, 1), repeat=len(elements)):
            sign_of = dict(zip(elements, signs))
            yield tuple(tuple(sorted(sign_of[x] * x for x in b)) for b in blocks)


def _fubini(n: int) -> List[int]:
    """[F(0), ..., F(n)]: F(r) ordered set partitions of r labelled items.
    With a sign on each item there are 2^r * F(r)."""
    F = [1]
    for r in range(1, n + 1):
        F.append(sum(math.comb(r, k) * F[k] for k in range(r)))
    return F


def count_faces(family: Family) -> int:
    """Type A: F(n).  Type C: the s positive elements of the zero block, then
    a signed ordered partition of the other n - s."""
    n = family.rank
    F = _fubini(n)
    if family.tag == "A":
        return F[n]
    return sum(math.comb(n, s) * 2 ** (n - s) * F[n - s] for s in range(n + 1))


def enumerate_faces(
    family: Family, color: Optional[ColorSet] = None
) -> Iterator[Composition]:
    """All faces, or the W-orbit of the given color set, each exactly once."""
    if color is not None and family.affine_index in color:
        raise ValidationError("finite color sets exclude the affine index")
    check_count(family, count_faces, f"faces of {family}")
    universe = tuple(range(1, family.rank + 1))
    if family.tag == "A":
        faces = (SetComposition(family, b) for b in _ordered_partitions(universe))
    else:
        faces = (
            SymComposition(family, zero_block, right)
            for zero_block, rest in _self_negating(universe, (0,))
            for right in _signed_partitions(rest)
        )
    for face in faces:
        if color is None or color_set(face).indices == color.indices:
            yield face


def to_wire(F: Composition) -> dict:
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
    return _from_full(family, _wire_blocks(data["blocks"], "blocks"))
