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
the concatenated full blocks; every code is made by ``_pack``, as bytes, which
keep their hash, below 256 entries.  The one kernel ``_refine`` serves the Tits
product and the module action.  Its result reads q only through its order, with
ties, on each block of p with two or more elements.  ``_keys`` reads that order
off one packed int per q, so ``_by_key``, one left code against many right codes,
calls the kernel once per distinct order; every batched caller goes through it.
``_refine_sums`` tallies the right codes by that order once per block pattern,
faces and necklaces alike, into refinements kept with the right codes; each left
code translates each result once, by a table of its frame, kept by the caller.
Validation stays at the boundary (the public constructors,
``SymComposition.from_full`` and ``from_wire``); kernel and enumerator
output is valid by construction and built by ``weyl._trusted`` unchecked.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from operator import add
from typing import Iterator, List, Optional, Tuple, Union

from .budget import check_count, current_budget
from .errors import BudgetExceededError, FamilyMismatchError, ValidationError
from .weyl import ColorSet, Family, WeylElement, _family, _same_family, _trusted

Block = Tuple[int, ...]


def _check_blocks(blocks, lo: int, n: int) -> None:
    """The blocks, a tuple of int tuples, must be nonempty, sorted ascending, and partition
    [lo, n]; the element count is compared first, so a huge n builds no range."""
    if type(blocks) is not tuple or set(map(type, blocks)) - {tuple} or set(
            map(type, elements := [*itertools.chain(*blocks)])) - {int}:
        raise ValidationError("blocks must be a tuple of integer tuples")
    elements.sort()
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
        if _family(self.family).tag != "A":
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
        if _family(self.family).tag != "C":
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
_FACES = (SetComposition, SymComposition)  # for isinstance, quicker than the Union


def _from_full(family: Family, blocks) -> Composition:
    """The face of the family with the given full block sequence."""
    if family.tag == "A":
        return SetComposition(family, blocks)
    return SymComposition.from_full(family, blocks)


def _pack(code):
    """A code, a list or tuple, as bytes, which keep their hash; from 256 entries a tuple."""
    return bytes(code) if len(code) < 256 else tuple(code)


def _encode(blocks, values, n: int):
    """The position code over the len(code) integers ending at n that gives
    every element of each block the block's value."""
    code = [0] * sum(map(len, blocks))
    shift = len(code) - n - 1
    for block, value in zip(blocks, values):
        for x in block:
            code[x + shift] = value
    return _pack(code)


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
    keys = list(map(add, map((size + 1).__mul__, p), q))  # codes are <= size
    ordered = sorted(keys)
    counts = map(bisect_right, itertools.repeat(ordered), keys)
    start = max(p) if anchor is None else -bisect_left(ordered, keys[anchor])
    shift = start % size
    return _pack([(c + shift - 1) % size + 1 for c in counts] if shift else list(counts))


def _keys(p, qs, kept):
    """Each q's key, its order with ties on p's blocks: the qs packed once into kept[None],
    2 bits (q[x] > q[y]) + (q[x] >= q[y]) per pair x < y, masked to p's within-block pairs."""
    pairs = list(enumerate(itertools.combinations(range(len(p)), 2)))
    if None not in kept:
        kept[None] = [sum((q[x] > q[y]) + (q[x] >= q[y]) << 2 * i for i, (x, y) in pairs)
                      for q in qs]
    return map(sum(3 << 2 * i for i, (x, y) in pairs if p[x] == p[y]).__and__, kept[None])


def _by_key(p, qs, anchor: Optional[int], kept):
    """Each q's key (see ``_keys``), and per distinct key _refine(p, q, anchor) for the
    last q of that key: any q of a key gives its result."""
    keys = list(_keys(p, qs, kept))
    return keys, {key: _refine(p, q, anchor) for key, q in dict(zip(keys, qs)).items()}


def _tally(blocks, qs: dict, kept: dict):
    """Keep in kept[blocks], and return, (weights, results) per distinct key of the qs on
    p's blocks, named by first positions: a key's total weight, and _refine(p0, q), p0 p's
    blocks ordered by least element, one object per value (see ``_refine_sums``)."""
    p0 = tuple(map(bisect_right, itertools.repeat(sorted(blocks)), blocks))
    keys, results = _by_key(p0, qs, None, kept)
    totals = Counter()
    for (key, w), m in Counter(zip(keys, qs.values())).items():
        totals[key] += w * m
    return kept.setdefault(blocks, (list(map(totals.__getitem__, results)), [
        kept.setdefault(r, r) for r in results.values()]))  # one per value


def _refine_sums(ps: dict, qs: dict, anchor: Optional[int], kept: dict, frames: dict):
    """{_refine(p, q, anchor): sum of cp * cq over its pairs}, ps and qs {code: coefficient}.
    _refine(p, q, anchor) is base + d rotated by start: base[x] counts p's elements in
    blocks before x's, d[x] those of x's block in pieces up to x's, and start is max(p),
    or minus the elements in pieces before the anchor's.  d reads only p's blocks, so
    ``_tally`` runs once per block pattern into kept, which a caller keeps with the qs:
    the tallies by pattern, the packed qs by None, results by value.  A result r is
    _refine(p0, q) = before + d, before[x] counting the elements in blocks before x's in
    p0, so x's entry is r[x] - lead rotated by start + base[x] - before[x], with lead 0
    and start max(p), or lead r[anchor] - r.count(r[anchor]) and start before[anchor] -
    base[anchor].  As r[x] lies in the run of values of x's block, the rotation reads r[x]
    alone: p's frame in frames[anchor] holds its pattern, offsets by value and a table per
    lead, each table one object per value, kept in frames under itself beside the anchors."""
    acc, at = {}, frames.setdefault(anchor, {})
    for p, cp in ps.items():
        if (frame := at.get(p)) is None:  # p met first: its frame, built once
            blocks = tuple(map(p.index, p))
            base = list(map(bisect_left, itertools.repeat(sorted(p)), p))
            before = list(map(bisect_left, itertools.repeat(sorted(blocks)), blocks))
            start = max(p) if anchor is None else before[anchor] - base[anchor]
            frame = at[p] = (blocks, [start + base[x] - before[x] for x in sorted(
                range(len(p)), key=before.__getitem__)], {})
        blocks, offsets, tables = frame
        weights, results = kept.get(blocks) or _tally(blocks, qs, kept)
        for r, w in zip(results, weights):
            lead = 0 if anchor is None else r[anchor] - r.count(r[anchor])
            if (table := tables.get(lead)) is None:  # a lead met first: its table, by value
                table = [0, *((v + o - lead - 1) % len(p) + 1 for v, o in enumerate(offsets, 1))]
                table = bytes(table).ljust(256, b"\0") if len(p) < 256 else tuple(table)
                table = tables[lead] = frames.setdefault(table, table)
            r = r.translate(table) if type(r) is bytes else tuple(map(table.__getitem__, r))
            acc[r] = acc.get(r, 0) + cp * w
    return acc


def _face_code(F: Composition):
    blocks = F.full_blocks()
    return _encode(blocks, itertools.accumulate(map(len, blocks)), F.family.rank)


def _from_code(family: Family, code) -> Composition:
    """The face with the given code, unchecked."""
    _, blocks = _decode(code, family.rank)
    if family.tag == "A":
        return _trusted(SetComposition, family, blocks)
    m = len(blocks) // 2
    return _trusted(SymComposition, family, blocks[m], blocks[m + 1 :])


def _moved(code, w: WeylElement):
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
    family = _same_family((F, _FACES))
    pos = {x: idx for idx, block in enumerate(F.full_blocks()) for x in block}
    signs = ("0" if pos[a] == pos[b] else "+" if pos[a] < pos[b] else "-"
             for a, b in positive_root_order(family))
    return FiniteSignVector(family, tuple(signs))


def tits_product(F: Composition, G: Composition) -> Composition:
    return _from_code(_same_family((F, _FACES), (G, _FACES)), _refine(_face_code(F), _face_code(G)))


def unit_face(family: Family) -> Composition:
    """The one-block composition: unit of the Tits product."""
    n = _family(family).rank
    return _from_full(family, (tuple(range(1 if family.tag == "A" else -n, n + 1)),))


def w_of_face(F: Composition) -> WeylElement:
    family = _same_family((F, _FACES))
    return _trusted(WeylElement, family, _w_of_code(family, _face_code(F)))


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
    order = sorted(range(1, n + 1), key=(0, *code).__getitem__)
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
    return _from_code(_same_family((w, WeylElement), (F, _FACES)), _moved(_face_code(F), w))


def _ordered_partitions(elements, sizes=None, above=0) -> Iterator[Tuple[Block, ...]]:
    """Every ordered set partition of a sorted element tuple, or those with
    the given block sizes, whose first block's elements all pass `above`."""
    if not elements:
        yield ()
        return
    for r in range(1, len(elements) + 1) if sizes is None else sizes[:1]:
        for first in itertools.combinations(itertools.dropwhile(above.__ge__, elements), r):
            leftover = tuple(itertools.filterfalse(set(first).__contains__, elements))
            for tail in _ordered_partitions(leftover, sizes and sizes[1:]):
                yield (first,) + tail


def _self_negating(universe, extra=(), size=None):
    """Yield (block, rest) for every subset S of the universe, or of the
    given size, by size and then lexicographically: block is S, -S and
    `extra`, sorted; rest is the universe without S.  This picks a zero block
    (extra (0,)) or an antipodal block (empty when S is)."""
    for size in range(len(universe) + 1) if size is None else (size,):
        for chosen in itertools.combinations(universe, size):
            block = tuple(sorted(chosen + extra + tuple(-x for x in chosen)))
            yield block, tuple(itertools.filterfalse(set(chosen).__contains__, universe))


def _signed_partitions(elements, sizes=None) -> Iterator[Tuple[Block, ...]]:
    """Every ordered set partition of the elements, or those with the given
    block sizes, with signs on the elements varying fastest; blocks sorted."""
    for blocks in _ordered_partitions(elements, sizes):
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
    n = _family(family).rank
    F = _fubini(n)
    if family.tag == "A":
        return F[n]
    return sum(math.comb(n, s) * 2 ** (n - s) * F[n - s] for s in range(n + 1))


def _block_sizes(family: Family, color: Optional[ColorSet]) -> Optional[List[int]]:
    """The gaps of 0, the color's sorted indices and n, which fix the block
    sizes of the color's faces and necklaces; None without a color."""
    if color is None:
        return None
    if color.family != family:
        raise FamilyMismatchError(f"a color set of {color.family}, not {family}")
    cuts = [0, *color.sorted(), family.rank]
    return [b - a for a, b in zip(cuts, cuts[1:])]


def _check_walk(family: Family, sizes, count, torus: bool = False) -> None:
    """Refuse a walk over every face or necklace (sizes None), or a colour's orbit
    whose multinomial(parts) * 2**(type C signs) members of n entries pass the budget."""
    if sizes is None:
        return check_count(family, count, f"{'torus ' * torus}faces of {family}")
    budget, ends = current_budget(), sizes[0] + torus * sizes[-1]  # a type A tail joins its clasp
    parts = [ends, *sizes[1 : len(sizes) - torus]] if family.tag == "A" else sizes
    b = budget.bit_length()  # C(m, k), k <= m / 2, cut to C(m, b) still passes 2**b
    entries = family.rank << min((family.tag == "C") * (family.rank - ends), b)
    for before, part in zip(itertools.accumulate(parts), parts[1:]):
        entries *= math.comb(before + part, min(part, before, b)) if entries <= budget else 1
    if entries > budget:
        raise BudgetExceededError(f"one colour's {'torus ' * torus}faces of {family}: at "
                                  f"least {entries} entries pass the budget of {budget}")


def enumerate_faces(
    family: Family, color: Optional[ColorSet] = None
) -> Iterator[Composition]:
    """All faces, or the W-orbit of the given color set, once each and built
    unchecked.  The color's block sizes are a type A face's blocks, or a type
    C zero block's count of positive elements, then the right half's blocks."""
    sizes = _block_sizes(_family(family), color)
    if color is not None and family.affine_index in color:
        raise ValidationError("finite color sets exclude the affine index")
    _check_walk(family, sizes, count_faces)
    universe = tuple(range(1, family.rank + 1))
    if family.tag == "A":
        for blocks in _ordered_partitions(universe, sizes):
            yield _trusted(SetComposition, family, blocks)
        return
    for zero_block, rest in _self_negating(universe, (0,), sizes and sizes[0]):
        for right in _signed_partitions(rest, sizes and sizes[1:]):
            yield _trusted(SymComposition, family, zero_block, right)


def to_wire(F: Composition) -> dict:
    return {"blocks": [list(b) for b in F.full_blocks()]}


def _is_ints(value) -> bool:
    """True for a list (as JSON has) or a tuple of integers; bools and floats do not count."""
    return isinstance(value, (list, tuple)) and all(type(x) is int for x in value)


def _wire_ints(value, field: str) -> Tuple[int, ...]:
    if not _is_ints(value):
        raise ValidationError(f"'{field}' must be a list of integers")
    return tuple(value)


def _wire_blocks(value, field: str) -> Tuple[Block, ...]:
    """A list (as JSON has) or tuple of integer lists or tuples, each block sorted."""
    if not isinstance(value, (list, tuple)) or not all(_is_ints(b) for b in value):
        raise ValidationError(f"'{field}' must be a list of integer lists")
    return tuple(tuple(sorted(b)) for b in value)


def from_wire(family: Family, data: dict) -> Composition:
    if not isinstance(data, dict) or "blocks" not in data:
        raise ValidationError("face wire form must be an object with a 'blocks' key")
    return _from_full(family, _wire_blocks(data["blocks"], "blocks"))
