"""Faces of the Steinberg torus.

Type A faces are *spin necklaces*: a partition of {1,...,n} into blocks
arranged clockwise on a cycle, with pairwise distinct edge labels in
{1,...,n} satisfying the wrap condition

    label(out of B) == label(into B) + |B|   (mod n).

The labels increase strictly around the cycle except for a single wrap, so
there is a distinguished block — the *clasp* — whose incoming label is the
maximum and whose outgoing label is the minimum.  Necklaces are stored
clasp-first, making equality a plain sequence comparison.

Type C faces are flip-symmetric necklaces on [-n, n] without edge labels:
a central block containing 0 and equal to its own negation, a clockwise
half, an optional self-negating antipodal block, and the implied mirror
half.

Both kinds form a right module over the corresponding finite face monoid:
the action of a face is its Tits product on the necklace's block cycle
(each block refined into its string of intersections), and type A carries
a running edge label through the pieces.

The action is computed on position codes, by the kernel of the Tits
product (``coxfaces._refine``).  A spin necklace's code gives each element
of [1, n] the label of the edge out of its block: the labels fix the
blocks, and since they increase from the clasp, also the clasp-first order;
the refined code starts from the clasp's incoming label.  A symmetric
necklace's code gives each element of [-n, n] the end of its block on the
cycle read from the zero block, and the refined cycle is rotated back to
the piece holding 0.  Kernel and enumerator output is built unchecked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from .errors import ValidationError
from .weyl import ColorSet, Family, WeylElement, _family, _integer, _same_family, _trusted
from .coxfaces import (
    Composition,
    _FACES,
    _block_sizes,
    _check_blocks,
    _check_walk,
    _decode,
    _encode,
    _face_code,
    _fubini,
    _mirror,
    _moved,
    _ordered_partitions,
    _refine,
    _self_negating,
    _signed_partitions,
    _w_of_code,
    _wire_blocks,
    _wire_ints,
)

Block = Tuple[int, ...]


def _norm_label(x: int, n: int) -> int:
    """Reduce a label into {1, ..., n} (0 is stored as n)."""
    return (x - 1) % n + 1


@dataclass(frozen=True, order=True)
class SpinNecklace:
    family: Family
    blocks: Tuple[Block, ...]
    labels: Tuple[int, ...]

    def __post_init__(self):
        if _family(self.family).tag != "A":
            raise ValidationError("SpinNecklace is a type A object")
        n = self.family.rank
        _check_blocks(self.blocks, 1, n)
        k = len(self.blocks)
        if len(self.labels) != k:
            raise ValidationError("one label per edge required")
        if len(set(self.labels)) != k or not all(1 <= l <= n for l in self.labels):
            raise ValidationError(f"labels must be distinct in 1..{n}: {self.labels}")
        for p in range(k):
            if self.labels[p] != _norm_label(
                self.labels[p - 1] + len(self.blocks[p]), n
            ):
                raise ValidationError(
                    f"label condition fails at edge {p}: {self.labels}"
                )
        if self.labels[0] != min(self.labels) or self.labels[-1] != max(self.labels):
            raise ValidationError("necklace is not stored clasp-first")


def make_spin(family: Family, blocks, labels) -> SpinNecklace:
    """Build a spin necklace, clasp-first, from any rotation given as int lists or tuples."""
    n, blocks = _family(family).rank, _wire_blocks(blocks, "blocks")
    labels = tuple(_norm_label(l, n) for l in _wire_ints(labels, "labels"))
    k = len(blocks)
    if k != len(labels) or k == 0:
        raise ValidationError("need one label per edge")
    # The clasp is the block right after the maximum label.
    c = (labels.index(max(labels)) + 1) % k
    return SpinNecklace(family, blocks[c:] + blocks[:c], labels[c:] + labels[:c])


@dataclass(frozen=True, order=True)
class SymNecklace:
    family: Family
    zero_block: Block
    clockwise: Tuple[Block, ...]
    antipodal: Optional[Block]

    def __post_init__(self):
        if _family(self.family).tag != "C":
            raise ValidationError("SymNecklace is a type C object")
        n = self.family.rank
        if 0 not in self.zero_block:
            raise ValidationError("the zero block must contain 0")
        for b in (self.zero_block, self.antipodal):
            if b is not None and tuple(sorted(-x for x in b)) != b:
                raise ValidationError("central/antipodal blocks must be self-negating")
        _check_blocks(full_cycle(self), -n, n)


_NECKLACES = (SpinNecklace, SymNecklace)


def full_cycle(N: SymNecklace) -> Tuple[Block, ...]:
    """The full clockwise cycle starting at the zero block."""
    middle = (N.antipodal,) if N.antipodal is not None else ()
    return (N.zero_block,) + N.clockwise + middle + _mirror(N.clockwise)


@dataclass(frozen=True)
class SplitNecklace:
    """Linearized spin necklace: blocks (C2, R, ..., L) plus optional tail C1."""

    family: Family
    blocks: Tuple[Block, ...]
    tail: Optional[Block]

    def __post_init__(self):
        if self.tail is not None and not self.tail:
            raise ValidationError("an empty tail is stored as None")


def clasp(N: SpinNecklace) -> Block:
    return N.blocks[0]


def split(N: SpinNecklace) -> SplitNecklace:
    n = (family := _same_family((N, SpinNecklace))).rank
    incoming, outgoing = N.labels[-1], N.labels[0]
    c = clasp(N)
    assert incoming + len(c) == outgoing + n, "clasp labels inconsistent"
    head = c[: n - incoming]  # the tail C1: first n - incoming elements
    c2 = c[n - incoming :]  # the last `outgoing` elements
    return SplitNecklace(
        family, (c2,) + N.blocks[1:], head if head else None
    )


def contract_edge(N: SpinNecklace, p: int) -> SpinNecklace:
    """Merge the two blocks joined by edge p (labels[p], 0 <= p < k); drop its label."""
    family = _same_family((N, SpinNecklace))
    k = len(N.blocks)
    if k < 2:
        raise ValidationError("a one-block necklace has no contractible edge")
    if not 0 <= _integer(p, "edge") < k:
        raise ValidationError(f"edge {p} is not in 0..{k - 1}")
    # The merged block leaves by the edge after it.
    dropped, kept = N.labels[p], N.labels[(p + 1) % k]
    code = _necklace_code(N)
    return _from_code(family, tuple(kept if c == dropped else c for c in code))


def _necklace_code(N):
    if isinstance(N, SpinNecklace):
        return _encode(N.blocks, N.labels, N.family.rank)
    cycle = full_cycle(N)
    return _encode(cycle, itertools.accumulate(map(len, cycle)), N.family.rank)


def _from_code(family: Family, code):
    """The necklace with the given code, unchecked."""
    ends, blocks = _decode(code, family.rank)
    if family.tag == "A":
        return _trusted(SpinNecklace, family, blocks, ends)
    m = (len(blocks) - 1) // 2
    antipodal = blocks[m + 1] if len(blocks) % 2 == 0 else None
    return _trusted(SymNecklace, family, blocks[0], blocks[1 : m + 1], antipodal)


def _anchor(family: Family) -> Optional[int]:
    """The kernel's anchor for necklaces: type C rotates the refined cycle
    to the piece holding 0 (index n of the code); type A starts counting
    from the clasp's incoming label, the largest value of the code."""
    return family.rank if family.tag == "C" else None


def module_action(N, G: Composition):
    """Right action of a finite face on a torus face: the Tits product on the
    block cycle.  A type A piece's outgoing label is the clasp's incoming
    label plus the sizes of the pieces up to it (mod n)."""
    family = _same_family((N, _NECKLACES), (G, _FACES))
    return _from_code(family, _refine(_necklace_code(N), _face_code(G), _anchor(family)))


def w_of_torus_face(N) -> WeylElement:
    family = _same_family((N, _NECKLACES))
    return _trusted(WeylElement, family, _w_of_code(family, _necklace_code(N)))


def color_set(N) -> ColorSet:
    """A spin necklace's labels; a symmetric necklace's running sizes, from the
    zero block's positive elements through each clockwise block."""
    if isinstance(N, SpinNecklace):
        return ColorSet(N.family, frozenset(N.labels))
    sizes = itertools.accumulate(map(len, N.clockwise), initial=len(N.zero_block) // 2)
    return ColorSet(N.family, frozenset(sizes))


def act(w: WeylElement, N):
    """Left W-action: replace every block by its image, structure unchanged."""
    family = _same_family((w, WeylElement), (N, _NECKLACES))
    return _from_code(family, _moved(_necklace_code(N), w))


def count_torus_faces(family: Family) -> int:
    """Closed form.  Type A: a cyclic order on the blocks of a set partition
    (the block A of 1, then an ordered partition of the rest) and one of n
    labels, n * sum over A of F(n - |A|) = sum_a a * C(n, a) * F(n - a).
    Type C: s and t positive elements in the zero and antipodal blocks, then
    a signed ordered partition of the other r elements,
    sum C(n, s) * C(n - s, t) * 2^r * F(r)."""
    n = _family(family).rank
    F = _fubini(n)
    if family.tag == "A":
        return sum(a * math.comb(n, a) * F[n - a] for a in range(1, n + 1))
    return sum(
        math.comb(n, s) * math.comb(n - s, t) * 2 ** (n - s - t) * F[n - s - t]
        for s in range(n + 1)
        for t in range(n - s + 1)
    )


def enumerate_torus_faces(
    family: Family, color: Optional[ColorSet] = None
) -> Iterator:
    """Every torus face, or those of the given color, once each and built
    unchecked.  The color's block sizes are a type A necklace's blocks, the
    clasp without its tail, then the tail; or a type C zero block's count of
    positive elements, the clockwise blocks, then the antipodal block's."""
    sizes = _block_sizes(_family(family), color)
    if color is not None and not color.indices:
        raise ValidationError("torus color sets are nonempty")
    _check_walk(family, sizes, count_torus_faces, torus=True)
    universe = tuple(range(1, family.rank + 1))
    if family.tag == "A":
        # The clasp is a tail, which leaves room above it, then the first
        # block of a composition of the rest, all of whose elements follow
        # the tail; the labels are the running sizes of the composition's blocks.
        for ts in range(family.rank) if sizes is None else sizes[-1:]:  # never all of [n]
            for tail in itertools.combinations(universe[: family.rank - (sizes or [1])[0]], ts):
                rest = tuple(itertools.filterfalse(set(tail).__contains__, universe))
                for comp in _ordered_partitions(rest, sizes and sizes[:-1], max(tail, default=0)):
                    yield _trusted(SpinNecklace, family, (tail + comp[0],) + comp[1:],
                                   tuple(itertools.accumulate(map(len, comp))))
        return
    for zero_block, after_zero in _self_negating(universe, (0,), sizes and sizes[0]):
        for antipodal, rest in _self_negating(after_zero, (), sizes and sizes[-1]):
            for clockwise in _signed_partitions(rest, sizes and sizes[1:-1]):
                yield _trusted(SymNecklace, family, zero_block, clockwise, antipodal or None)


def to_wire(N) -> dict:
    if isinstance(N, SpinNecklace):
        return {"blocks": [list(b) for b in N.blocks], "labels": list(N.labels)}
    return {
        "zero_block": list(N.zero_block),
        "clockwise": [list(b) for b in N.clockwise],
        "antipodal": list(N.antipodal) if N.antipodal is not None else None,
    }


def from_wire(family: Family, data: dict):
    if not isinstance(data, dict):
        raise ValidationError("necklace wire form must be an object")
    if family.tag == "A":
        if "blocks" not in data or "labels" not in data:
            raise ValidationError("spin necklace needs 'blocks' and 'labels'")
        return make_spin(family, data["blocks"], data["labels"])
    if "zero_block" not in data or "clockwise" not in data:
        raise ValidationError("symmetric necklace needs 'zero_block' and 'clockwise'")
    anti = data.get("antipodal")
    if anti is not None:
        anti = tuple(sorted(_wire_ints(anti, "antipodal")))
    return SymNecklace(
        family,
        tuple(sorted(_wire_ints(data["zero_block"], "zero_block"))),
        _wire_blocks(data["clockwise"], "clockwise"),
        anti if anti else None,
    )
