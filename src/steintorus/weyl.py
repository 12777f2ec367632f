"""Weyl groups of types A and C as (signed) permutations.

Type A with rank parameter ``n`` is the symmetric group on {1,...,n}
(the root system is A_{n-1}).  Type C with rank ``n`` is the group of signed
permutations w of [-n, n] with w(-i) = -w(i); only the positive half
(w(1), ..., w(n)) is stored, the mirror half is implicit.

Descents are computed from one-line notation with the boundary conventions

* type A: subscripts mod n, i.e. w_{n+1} = w_1 (used by the affine descent
  at index n);
* type C: w_0 = 0 = w_{n+1}.

Simple-root indices:

* type A: the finite simple roots are identified with {1, ..., n-1} and the
  extra affine index is n;
* type C: the finite simple roots are identified with {0, ..., n-1} and the
  extra affine index is n.

A type A element is a type C element with positive values, so one formula
serves both where they agree: the index ranges, the group order and the
action on [-n, n].

The public constructors ``Family``, ``WeylElement`` and ``ColorSet`` check
their input, a rank, one-line value or colour index being an ``int`` only
(``_integer``, shared with the coefficients of sums); the results computed
here are valid by construction and built unchecked.  ``_same_family`` is
the one kind-and-family check of the functions that take objects, which read
their family off its return, and ``_family`` the check of a family passed in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Iterator, Tuple

from .budget import check_count
from .errors import FamilyMismatchError, ValidationError


@dataclass(frozen=True, order=True)
class Family:
    """A Weyl group family tag: ('A', n) or ('C', n)."""

    tag: str
    rank: int

    def __post_init__(self):
        if self.tag not in ("A", "C"):
            raise ValidationError(f"unknown family tag {self.tag!r}")
        if _integer(self.rank, "rank") < 1:
            raise ValidationError(f"rank must be >= 1, got {self.rank}")
        if self.tag == "A" and self.rank < 2:
            # A_0 is the empty root system: no simple roots, no faces to act on.
            raise ValidationError("type A needs rank >= 2")

    @property
    def affine_index(self) -> int:
        """Index of the extra (affine) node: n for both families."""
        return self.rank

    def finite_indices(self) -> range:
        """Indices of the finite simple roots."""
        return range(1 if self.tag == "A" else 0, self.rank)

    def affine_indices(self) -> range:
        """Indices of the affine simple system (finite ones plus the affine node)."""
        return range(1 if self.tag == "A" else 0, self.rank + 1)

    def group_order(self) -> int:
        """n! in type A; n! * 2^n in type C, a sign on each of the n letters."""
        return factorial(self.rank) << (self.rank if self.tag == "C" else 0)


def _integer(value, what: str = "coefficient") -> int:
    """value, if it is an int; bools and floats are refused, as on the wire."""
    if type(value) is not int:
        raise ValidationError(f"{what} {value!r} is not an integer")
    return value


def _trusted(cls, *fields):
    """cls(*fields) for a frozen dataclass cls, its fields set one by one as
    __init__ does, without __post_init__: for values valid by construction."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, fields):
        object.__setattr__(obj, name, value)
    return obj


def _same_family(*pairs) -> Family:
    """The one kind-and-family check of a function that takes objects, returning their
    family: each (object, kind) pair must hold an instance of its kind, a class or a
    tuple of classes, and the objects the first one's family; else a FamilyMismatchError."""
    for obj, kind in pairs:
        if not isinstance(obj, kind):
            names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
            raise FamilyMismatchError(f"a {type(obj).__name__} where a {names} belongs")
        if obj is not pairs[0][0] and obj.family != pairs[0][0].family:
            raise FamilyMismatchError(f"family mismatch: {pairs[0][0].family} vs {obj.family}")
    return pairs[0][0].family


def _family(family) -> Family:
    """family, if it is a Family; else a ValidationError."""
    if not isinstance(family, Family):
        raise ValidationError(f"{family!r} is not a Family")
    return family


@dataclass(frozen=True, order=True)
class WeylElement:
    """A group element in one-line notation.

    ``values`` is (w_1, ..., w_n); for type C entries are signed and their
    absolute values form a permutation of {1, ..., n}.
    """

    family: Family
    values: Tuple[int, ...]

    def __post_init__(self):
        n, values = _family(self.family).rank, self.values
        if not isinstance(values, tuple) or len(values) != n:
            raise ValidationError(f"one-line notation must be a tuple of {n} integers")
        absolute = sorted(abs(_integer(v, "one-line value")) for v in values)
        if absolute != list(range(1, n + 1)) or self.family.tag == "A" and min(values) < 0:
            signed = "signed " if self.family.tag == "C" else ""
            raise ValidationError(f"not a {signed}permutation of 1..{n}: {values}")

    def __call__(self, i: int) -> int:
        """Apply the element to a point of its domain, [-n, n] through the
        extension w(-i) = -w(i), w(0) = 0; type A acts on 1..n."""
        if i == 0:
            return 0
        if i > 0:
            return self.values[i - 1]
        return -self.values[-i - 1]


def _color_indices(family, indices) -> frozenset:
    """indices, a collection of ints in the family's affine range, as a frozenset:
    the check of ``ColorSet``.  Each index is checked before the frozenset would
    merge True into 1."""
    try:  # a frozenset is read twice as it is; any other collection once, as a tuple
        items = indices if type(indices) is frozenset else tuple(indices)
    except TypeError:
        raise ValidationError(
            f"color indices {indices!r} are not a collection of integers") from None
    for i in items:
        if type(i) is not int:
            _integer(i, "color index")
    allowed = _family(family).affine_indices()
    if items and not allowed.start <= min(items) <= max(items) < allowed.stop:
        raise ValidationError(f"indices {sorted(set(items))} outside the legal range "
                              f"{allowed.start}..{allowed.stop - 1}")
    return frozenset(items)


@dataclass(frozen=True)
class ColorSet:
    """A set of simple-root indices attached to a family.

    Finite-complex color sets use the finite index range only; torus color
    sets may also contain the affine index and are nonempty.
    """

    family: Family
    indices: frozenset

    def __post_init__(self):
        object.__setattr__(self, "indices", _color_indices(self.family, self.indices))

    def sorted(self):
        return sorted(self.indices)

    def __contains__(self, i):
        return i in self.indices

    def __len__(self):
        return len(self.indices)


def identity(family: Family) -> WeylElement:
    return _trusted(WeylElement, family, tuple(range(1, _family(family).rank + 1)))


def inverse(u: WeylElement) -> WeylElement:
    out = [0] * (family := _same_family((u, WeylElement))).rank
    for i, image in enumerate(u.values, 1):
        out[abs(image) - 1] = i if image > 0 else -i
    return _trusted(WeylElement, family, tuple(out))


def _descent_list(w: WeylElement, indices: range) -> list:
    """The indices i in the range with w_i > w_{i+1}, ascending, read off the
    word w_0 w_1 ... w_n w_{n+1} under the boundary conventions above."""
    values = w.values
    word = (0,) + values + ((values[0],) if w.family.tag == "A" else (0,))
    return [i for i in indices if word[i] > word[i + 1]]


def _descents(w: WeylElement, indices: range) -> ColorSet:
    return _trusted(ColorSet, w.family, frozenset(_descent_list(w, indices)))


def descent_set(w: WeylElement) -> ColorSet:
    """Finite descent set: indices i with w_i > w_{i+1} (finite range only)."""
    return _descents(w, _same_family((w, WeylElement)).finite_indices())


def affine_descent_set(w: WeylElement) -> ColorSet:
    """Affine descent set: the finite descents plus the affine boundary test.

    Always nonempty, never the full affine index set: the cyclic word of
    type A (rank >= 2) and the word 0 w_1 ... w_n 0 of type C both rise
    and fall.
    """
    return _descents(w, _same_family((w, WeylElement)).affine_indices())


def enumerate_group(family: Family) -> Iterator[WeylElement]:
    """All group elements in lexicographic order of their one-line notation."""
    check_count(_family(family), Family.group_order, f"group of {family}")
    n = family.rank
    for values in itertools.permutations(range(1, n + 1)) if family.tag == "A" else _signed(n):
        yield _trusted(WeylElement, family, values)


def _signed(n: int) -> Iterator[Tuple[int, ...]]:
    """Signed permutations of 1..n in lexicographic order, holding only those
    of 1..n-1: each first value, then those renamed in order to the letters left."""
    shorter = list(_signed(n - 1)) if n > 1 else [()]
    for first in (*range(-n, 0), *range(1, n + 1)):
        left = [a for a in range(1, n + 1) if a != abs(first)]
        rename = [0, *left, *(-a for a in reversed(left))]  # rename[-k] == -rename[k]
        for rest in shorter:
            yield (first, *map(rename.__getitem__, rest))
