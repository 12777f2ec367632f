"""The integral group ring, descent ring, affine descent module, and the
brute-force verification suites tying them to the face monoids.

The descent ring is spanned by x_J = sum of all w with descent set inside J
(J inside the finite simple system); the affine descent module is spanned by
the analogous affine sums x~_J for nonempty J inside the extended simple
system.  Both are handled through their class-indicator bases (y_J = sum
over the class with descent set exactly J), with boolean-lattice Moebius
inversion translating between the two.

Face sums enter through orbit sums sigma_J (all finite faces of color J)
and sigma~_J (all torus faces of color J), built by ``orbit_sum`` alone,
unchecked, from the faces generated for color J.  The map psi sends a
W-invariant face sum to the group ring by replacing each face with its
canonical group element; on invariants it reverses products on the finite
side and intertwines the module structures.

Internally a group element is its index in the lexicographic enumeration of the group by
one-line values, so the convolution, the basis sums and the rows of products work on
plain integers; each row after the first is the previous one read through one of O(n^2)
step rows.  Every ring element the program computes, psi's images too, keeps a tuple of
its coefficients in index order, the order of ``coeffs``, and decodes ``coeffs``,
unchecked, on first read; ``multiply`` and ``express_in_basis`` read only that tuple,
which a constructed element derives once.  Each element's (affine) descent set is kept
as a bit mask.  ``multiply`` counts the pairs in U x V with product w, U and V
coefficient groups of its factors, as |U^-1 w & V|: popcounts along a breadth-first walk
of the Cayley graph, whose generator columns it composes, or the left rows' entries in
V's columns; past a |W|^2 of the default budget or of the budget in force every product
walks, so only the rows read the table.  x_I * x_J is one exact count over all
|x_I| * |x_J| pairs, which assumes nothing of Solomon's theorem; the solomon and module
suites check it on the rows, one histogram per element.  The structure tables build no
group: they expand sigma_J * sigma_I and sigma~_J * sigma_I, which psi maps to x_I * x_J
(Bidigare's theorem) and x_I * x~_J.  Class sums give each element the value at its
mask; the zeta sum over index sets and its Moebius inversion are one subset transform.

A face sum's state is its {position code: coefficient} dict (see ``coxfaces``;
codes are bytes below 256 entries); its faces are decoded from the codes only when
``coeffs`` is first read.  ``face_sum_product`` refines every left code against every
right code in one call of ``coxfaces._refine_sums``, which tallies the right
coefficients by their order on a left code's blocks, once per block pattern (faces
and necklaces alike) and with one kernel call per order, into results that each left
code translates once, by a table of its frame, and adds each result's total times the
left coefficient into the codes returned.  The right factor keeps its tallies, and
the family's ``_Kept`` each left code's frame.  ``_face_table`` refines one face per
colour against every face, once per order, and counts the colour of each order's result
per sigma_I; ``is_invariant`` keeps per family and simple generator the image of each
code it meets, so a check is two lookups; ``psi`` adds each coefficient at its code's
element index, kept per code in the group data, so its images land in index
order, bounded by the group budget, and the psi suite counts its refusal of a
non-invariant sum as a failed identity; the ``lrb`` and ``oracle`` suites
index their products by ``_table``.  So none of them builds a face.  The public
constructors of both sums check their keys and int coefficients in ``_summed`` and make
them canonical; internal results skip that check.  Each suite and table is one row of
``_SUITES`` or ``_TABLES``: its runner, its work (a unit and a count) and the families it
refuses.  ``verify`` and the tables check the work against the budget before any work,
so no suite holds budget code, and neither ``verify`` nor the CLI names a suite.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from collections import Counter, namedtuple
from contextlib import suppress
from dataclasses import dataclass
from itertools import repeat
from operator import add, and_, eq, itemgetter, lshift, mul, or_, rshift
from typing import Tuple

from .budget import DEFAULT_BUDGET, check_count, current_budget
from .errors import (
    FamilyMismatchError,
    NotInSpanError,
    ValidationError,
)
from .weyl import (
    ColorSet,
    Family,
    WeylElement,
    _integer,
    _trusted,
    affine_descent_set,
    descent_set,
    enumerate_group,
    inverse,
)
from . import affine_oracle as oracle, coxfaces, torusfaces, weyl


# ---------------------------------------------------------------------------
# per-family kept state: the group data, the frames and the generator images


class _GroupData:
    def __init__(self, family: Family):
        self.family = family
        self.elements = list(enumerate_group(family))
        self.index_of, self.index_of_code = {w.values: i for i, w in enumerate(self.elements)}, {}
        # Per basis kind: the bit mask of each legal index set, in the order
        # of _subsets; mask_of[i], the mask of element i's (affine) descent
        # set; and first_of[i], the index of the first element of i's class.
        self.masks, self.mask_of, self.first_of = {}, {}, {}
        for kinds, descents in ((("x", "y"), descent_set),
                                (("xt", "yt"), affine_descent_set)):
            universe = _universe(kinds[0], family)
            masks = {I: sum(1 << (i - universe.start) for i in I)
                     for I in _subsets(universe, nonempty=kinds[0] == "xt")}
            mask_of = [masks[descents(w).indices] for w in self.elements]
            firsts = {}
            first_of = [firsts.setdefault(m, i) for i, m in enumerate(mask_of)]
            for kind in kinds:
                self.masks[kind], self.mask_of[kind] = masks, mask_of
                self.first_of[kind] = first_of

    def rows(self, start):
        """Per element w in index order, start (one entry per element) read through w's
        row: the tuple of start[index of w * v], each v in index order.  As w * v =
        prev * (d * v), prev the element before w (the identity before the first) and
        d = prev^-1 * w, w's row is prev's read at d's row; each distinct d's row, O(n^2)
        in all, is read directly once a call, itemgetter(0, *v) reading it off d's image."""
        at = {(0,) + w.values: i for i, w in enumerate(self.elements)}
        getters = [itemgetter(0, *w.values) for w in self.elements]
        row, prev, steps = start, weyl.identity(self.family), {}
        for w in self.elements:
            d = tuple(map(weyl.inverse(prev), w.values))
            if d not in steps:
                image = (0,) + d + tuple(-x for x in reversed(d))
                steps[d] = itemgetter(*[at[g(image)] for g in getters])
            row, prev = steps[d](row), w
            yield row

    @functools.cached_property
    def mult(self):
        """mult[i][j] is the index of elements[i] * elements[j], built once."""
        check_count(self.family, lambda family: family.group_order() ** 2,
                    f"multiplication table of {self.family}")
        return list(self.rows(range(len(self.elements))))

    @functools.cached_property
    def walk(self):
        """For ``multiply``, its |W|^2 / 64 mask words checked: (inverse_of, batches,
        by_index).  Right translation by a simple generator s moves index x by x*s - x,
        a few values d: its classes are {d: mask of the x moved by d}, x*s composed.
        Breadth first from the identity, each child is p * s, p one level up, s the
        generator with the fewest classes; a batch is (its parents' walk positions, s's
        classes), its children next in walk order.  by_index reads walk order in index order."""
        check_count(self.family, lambda family: family.group_order() ** 2 // 64,
                    f"mask words of the Cayley walk of {self.family}")
        index_of, steps = self.index_of, []
        for s in _generators(self.family):
            column, moved = [index_of[tuple(map(w, s.values))] for w in self.elements], {}
            for x, y in enumerate(column):
                moved[y - x] = moved.get(y - x, 0) | 1 << x
            steps.append((column, moved))
        position, batches, start = {index_of[weyl.identity(self.family).values]: 0}, [], 0
        while start < len(position):
            level, start = list(position)[start:], len(position)
            for column, classes in sorted(steps, key=lambda step: len(step[1])):
                if pairs := [(position[p], w) for p in level if (w := column[p]) not in position]:
                    parents, new = zip(*pairs)
                    position.update(zip(new, itertools.count(len(position))))
                    batches.append((parents, classes))
        return ([index_of[inverse(w).values] for w in self.elements], batches,
                itemgetter(*map(position.__getitem__, range(len(position)))))

    def element(self, dense) -> "GroupRingElement":
        """The ring element with coefficient dense[i] on elements[i], dense a tuple."""
        g = _trusted(GroupRingElement, self.family)
        g.__dict__["_dense"] = dense
        return g


class _Kept:
    """All a process keeps between calls for one family, each part built on first use: the
    frames, the group data, and each simple generator's images.  ``verify`` drops them all."""

    def __init__(self, family: Family):
        self.family, self.frames = family, {}  # frames: {anchor: {left code: frame}}

    group = functools.cached_property(lambda self: _GroupData(self.family))

    @functools.cached_property
    def images(self) -> tuple:
        size = self.family.rank if self.family.tag == "A" else 2 * self.family.rank + 1
        return tuple(_Images({None: itemgetter(*coxfaces._moved(range(size), g))})
                     for g in _generators(self.family))


_data = functools.cache(_Kept)


# ---------------------------------------------------------------------------
# group ring


def _summed(family: Family, coeffs, kinds, noun: str) -> dict:
    """The one check of both sums' constructors: the family, each key's kind and
    family, and each coefficient, an int; repeated keys are summed, zeros dropped."""
    weyl._family(family)
    try:
        pairs = [(key, c) for key, c in coeffs]
    except (TypeError, ValueError):  # not an iterable of pairs
        raise ValidationError("a sum's coefficients are (key, int) pairs") from None
    acc = {}
    for key, c in pairs:
        if not isinstance(key, kinds) or key.family != family:
            raise FamilyMismatchError(f"{key} is not {noun} of {family}")
        acc[key] = acc.get(key, 0) + _integer(c)
    return {key: c for key, c in acc.items() if c}


class _Sum:
    """Both sums' from_dict, its mapping after the constructor's other arguments, and as_dict."""

    @classmethod
    def from_dict(cls, *args):
        *fields, mapping = args
        return cls(*fields, tuple(mapping.items()))

    def as_dict(self):
        return dict(self.coeffs)


@dataclass(frozen=True, init=False)
class GroupRingElement(_Sum):
    """Checked and canonical by ``_summed``, keys sorted.  A computed element
    keeps dense coefficients and decodes ``coeffs`` on first read."""

    family: Family
    coeffs: Tuple[Tuple[WeylElement, int], ...]  # read by ==, hash, repr: the property below

    def __init__(self, family: Family, coeffs):
        self.__dict__.update(family=family, coeffs=tuple(sorted(_summed(
            family, coeffs, WeylElement, "an element").items(), key=lambda wc: wc[0].values)))

    @functools.cached_property
    def coeffs(self) -> Tuple[Tuple[WeylElement, int], ...]:
        dense = self._dense
        return tuple(zip(itertools.compress(_data(self.family).group.elements, dense),
                         filter(None, dense)))

    @functools.cached_property
    def _dense(self) -> tuple:
        data = _data(self.family).group
        at = {data.index_of[w.values]: c for w, c in self.coeffs}
        return tuple(map(at.get, range(len(data.elements)), repeat(0)))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign: int) -> "GroupRingElement":
        """self + sign * other, through the checked constructor."""
        family = weyl._same_family((self, GroupRingElement), (other, GroupRingElement))
        return GroupRingElement(family, self.coeffs + tuple(
            (w, sign * c) for w, c in other.coeffs))

    def is_zero(self):
        return not self.coeffs


def _groups(g: GroupRingElement):
    """g's element indices grouped by coefficient, as (c, [index, ...])."""
    groups, dense = {}, g._dense
    for i, c in zip(itertools.compress(itertools.count(), dense), filter(None, dense)):
        groups.setdefault(c, []).append(i)
    return list(groups.items())


_WALK_FROM = 32  # pairs per walk step from which ``multiply`` walks


def multiply(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    """Convolution product in the group ring.  A walk costs about |W| steps per pair of
    coefficient groups, the rows one per pair of elements.  From _WALK_FROM pairs per walk
    step, or past a |W|^2 table of min(DEFAULT_BUDGET, budget), a ``_GroupData.walk`` per
    group U of a (cu) takes each w's mask of U^-1 w, its parent's classes shifted by their
    moves, and adds cu * cv times its popcount against each group V of b (cv); below, one
    pass over a's rows per V adds cu * cv at V's columns.  A zero factor reads neither."""
    data = _data(weyl._same_family((a, GroupRingElement), (b, GroupRingElement))).group
    size, rights = len(data.elements), _groups(b)
    if not (pairs := (size - a._dense.count(0)) * (size - b._dense.count(0))):
        return data.element((0,) * size)
    rows_fit = size * size <= min(DEFAULT_BUDGET, current_budget())  # mult's budget check
    acc, least = [0] * size, _WALK_FROM * size * len(rights) if rows_fit else 0
    if pairs >= least and pairs >= least * len(lefts := _groups(a)):  # a grouped if it may walk
        inverse_of, batches, by_index = data.walk
        for cu, us in lefts:
            found = [sum(1 << inverse_of[u] for u in us)]
            for parents, classes in batches:
                masks = list(map(found.__getitem__, parents))
                found.extend(functools.reduce(functools.partial(map, or_), [map(
                    lshift if d > 0 else rshift, map(and_, masks, repeat(P)), repeat(abs(d)))
                    for d, P in classes.items()]))
            for cv, js in rights:
                acc = list(map(add, acc, map(mul, map(int.bit_count, map(and_, found, repeat(
                    sum(1 << j for j in js)))), repeat(cu * cv))))
        return data.element(by_index(acc))
    rows = list(zip(itertools.compress(data.mult, a._dense), filter(None, a._dense)))
    for cv, js in rights:
        # A slice keeps a lone column a tuple; itemgetter(j) returns a scalar.
        pick = itemgetter(*js) if len(js) > 1 else itemgetter(slice(js[0], js[0] + 1))
        for row, cu in rows:
            c = cu * cv
            for k in pick(row):
                acc[k] += c
    return data.element(tuple(acc))


# ---------------------------------------------------------------------------
# descent bases


def _universe(kind: str, family: Family) -> range:
    """The simple indices a basis index set of the kind draws from."""
    if kind not in ("x", "y", "xt", "yt"):
        raise ValidationError(f"unknown basis kind {kind!r}")
    return family.finite_indices() if kind in ("x", "y") else family.affine_indices()


def _index_sets(kind: str, indexes, family: Family) -> list:
    """Each index, a collection of ints or a colour set of the family, as a legal
    index set of the basis kind.  The ints and the range of all sets are checked in
    one pass, and on a fault by the check of ``ColorSet`` per set, which names it;
    x and y sets lie in the finite range, x~ and y~ sets are nonempty, and y~ of
    every affine index would be the empty class."""
    legal, sets = _universe(kind, weyl._family(family)), []
    for index in indexes:
        if isinstance(index, ColorSet):
            if index.family != family:
                raise FamilyMismatchError(f"a color set of {index.family}, not {family}")
            index = index.indices
        sets.append(index if type(index) is frozenset else weyl._color_indices(family, index))
    items = [*itertools.chain.from_iterable(sets)]
    if set(map(type, items)) - {int} or not set(items) <= set(family.affine_indices()):
        for J in sets:
            weyl._color_indices(family, J)
    # Every J lies in the affine range, so only the finite kinds' affine index is left.
    if kind in ("x", "y") and legal.stop in items:
        J = next(J for J in sets if legal.stop in J)
        raise ValidationError(f"{kind}-index {sorted(J)} must lie inside "
                              f"the finite range {list(legal)}")
    if kind in ("xt", "yt") and not all(sets):
        raise ValidationError(f"{kind}-index must be a nonempty subset of {list(legal)}")
    if kind == "yt" and len(legal) in map(len, sets):
        raise ValidationError("no element has every affine descent; this class sum is empty")
    return sets


def _subset_transform(f: list, sign: int) -> list:
    """In place over bit masks: f[I] becomes the sum of sign**|J - I| * f[J]
    over the masks J containing I.  Sign 1 sums over supersets (zeta); sign
    -1 inverts that sum (Moebius).  m * 2**(m - 1) steps for m bits."""
    bit = 1
    while bit < len(f):
        for mask in range(len(f)):
            if not mask & bit:
                f[mask] += sign * f[mask | bit]
        bit <<= 1
    return f


def basis_element(kind: str, index, family: Family) -> GroupRingElement:
    """x_J, y_J, x~_J (kind 'xt') or y~_J (kind 'yt'): 1 on the classes of J's
    submasks (x, x~), walked as sub = (sub - 1) & mask, or of J alone (y, y~)."""
    (J,), data = _index_sets(kind, [index], family), _data(family).group
    values, mask = [0] * (1 << len(_universe(kind, family))), data.masks[kind][J]
    values[mask], sub = 1, mask
    while sub and kind in ("x", "xt"):
        values[sub := (sub - 1) & mask] = 1
    return data.element(itemgetter(*data.mask_of[kind])(values))


def express_in_basis(a: GroupRingElement, kind: str):
    """Expand in the x (kind 'x') or x~ (kind 'xt') basis.

    Succeeds iff the element is constant on (affine) descent classes;
    otherwise raises NotInSpanError with a witness pair of group elements:
    the first one of its class, and the first element in group order whose
    coefficient differs from its class's first.
    Returns a mapping frozenset -> nonzero integer coefficient.
    """
    if kind not in ("x", "xt"):
        raise ValidationError("expansions are over kind 'x' or 'xt'")
    data = _data(weyl._same_family((a, GroupRingElement))).group
    masks, mask_of, first_of = data.masks[kind], data.mask_of[kind], data.first_of[kind]
    firsts = itemgetter(*first_of)(a._dense)
    if firsts != a._dense:
        i = next(i for i, c in enumerate(a._dense) if c != firsts[i])
        D = next(D for D, m in masks.items() if m == mask_of[i])
        raise NotInSpanError(
            f"not constant on the descent class {sorted(D)}",
            witness=(data.elements[first_of[i]], data.elements[i]),
        )
    # Moebius inversion over the classes above I; x~ over the empty set is
    # the empty sum, so masks has no entry for it.
    values = [0] * (1 << len(_universe(kind, data.family)))
    for i in set(first_of):
        values[mask_of[i]] = a._dense[i]
    _subset_transform(values, -1)
    return {I: values[mask] for I, mask in masks.items() if values[mask]}


def evaluate_expansion(expansion, kind: str, family: Family) -> GroupRingElement:
    """The sum of c * basis_element(kind, I, family) over the items (I, c): a
    descent class gets the sum of the c whose I contains (x) or equals (y) it;
    itemgetter reads each element's value at its mask (a tuple: |W| > 1)."""
    sets = _index_sets(kind, expansion.keys(), family)
    terms = list(zip(sets, map(_integer, expansion.values())))  # before the group is built
    values, data = [0] * (1 << len(_universe(kind, family))), _data(family).group
    for J, c in terms:
        values[data.masks[kind][J]] += c
    if kind in ("x", "xt"):
        _subset_transform(values, 1)
    return data.element(itemgetter(*data.mask_of[kind])(values))


# ---------------------------------------------------------------------------
# formal face sums


@dataclass(frozen=True, init=False)
class FaceSum(_Sum):
    """A finitely supported integer combination of faces (finite or torus),
    checked and canonical by ``_summed``: every key is a face (necklace if
    torus) of the family.  Its state is {position code: coefficient} alone; a
    code encodes its face one to one, so == and hash read the codes, and
    ``coeffs`` decodes them, sorted by face, on first read."""

    family: Family
    torus: bool
    _codes: dict

    def __init__(self, family: Family, torus: bool, coeffs):
        acc = _summed(family, coeffs, torusfaces._NECKLACES if torus else coxfaces._FACES,
                      "a necklace" if torus else "a face")
        code = torusfaces._necklace_code if torus else coxfaces._face_code
        self.__dict__.update(family=family, torus=torus, _codes={code(F): acc[F] for F in acc})

    @functools.cached_property
    def coeffs(self) -> Tuple[Tuple[object, int], ...]:
        build = torusfaces._from_code if self.torus else coxfaces._from_code
        return tuple(sorted(((build(self.family, r), c) for r, c in self._codes.items()),
                            key=itemgetter(0)))

    # Its tallies as a right factor, filled on use (see coxfaces._refine_sums).
    _tallies = functools.cached_property(lambda self: {})

    def __hash__(self):
        return hash((self.family, self.torus, frozenset(self._codes.items())))

    def __repr__(self):
        return f"FaceSum(family={self.family!r}, torus={self.torus!r}, coeffs={self.coeffs!r})"

    def __add__(self, other):
        family = weyl._same_family((self, FaceSum), (other, FaceSum))
        if self.torus != other.torus:
            raise FamilyMismatchError("a sum of faces and a sum of necklaces do not add")
        acc = Counter(self._codes)
        acc.update(other._codes)  # Counter.update adds; dict.update would replace
        return _trusted(FaceSum, family, self.torus, {r: c for r, c in acc.items() if c})


def orbit_sum(kind: str, index, family: Family) -> FaceSum:
    """sigma_J (kind 'sigma') or sigma~_J (kind 'sigmat')."""
    if kind not in ("sigma", "sigmat"):
        raise ValidationError(f"unknown orbit sum kind {kind!r}")
    torus = kind == "sigmat"
    color = _trusted(ColorSet, family, _index_sets("xt" if torus else "x", [index], family)[0])
    walk, code = ((torusfaces.enumerate_torus_faces, torusfaces._necklace_code) if torus
                  else (coxfaces.enumerate_faces, coxfaces._face_code))
    # Each face of the colour comes once, valid and of this family: nothing to check.
    return _trusted(FaceSum, family, torus, dict.fromkeys(map(code, walk(family, color)), 1))


def face_sum_product(s: FaceSum, t: FaceSum) -> FaceSum:
    """Bilinear extension of the Tits product / module action, on codes."""
    family = weyl._same_family((s, FaceSum), (t, FaceSum))
    if t.torus:
        raise ValidationError("the right factor must be a finite face sum")
    anchor = torusfaces._anchor(family) if s.torus else None
    acc = coxfaces._refine_sums(s._codes, t._codes, anchor, t._tallies, _data(family).frames)
    if 0 in acc.values():  # a coefficient cancelled
        acc = {r: c for r, c in acc.items() if c}
    return _trusted(FaceSum, family, s.torus, acc)


def _generators(family: Family):
    """s_0 = (-1, 2, ..., n) in type C, then each s_i swapping i and i + 1."""
    n, gens = family.rank, [(-1, *range(2, family.rank + 1))] if family.tag == "C" else []
    gens += [(*range(1, i), i + 1, i, *range(i + 2, n + 1)) for i in range(1, n)]
    return [_trusted(WeylElement, family, values) for values in gens]


class _Images(dict):
    """A simple generator's image of each code met, built on first lookup by its moves,
    kept under None: entry i of an image reads entry moves[i], the image of 0, 1, 2, ..."""

    def __missing__(self, code):
        image = self[code] = coxfaces._pack(self[None](code))
        return image


def is_invariant(s: FaceSum) -> bool:
    """True iff every simple generator maps s to itself, that is, moves each code
    to a code of s with the same coefficient: the moves are one to one.  Each check
    is two lookups of codes, which keep their hashes: the image, then its coefficient."""
    kept, codes = _data(weyl._same_family((s, FaceSum))), s._codes
    return not codes or all(all(map(eq, map(codes.get, map(images.__getitem__, codes)),
                                    codes.values())) for images in kept.images)


def psi(s: FaceSum) -> GroupRingElement:
    """Replace each face by its canonical group element (invariant sums only), adding each
    coefficient in index order at its element's index, kept per code in ``index_of_code``."""
    if not is_invariant(s):  # which checks s's kind first
        raise ValidationError("psi is only defined on W-invariant face sums")
    data = _data(s.family).group
    acc, at = [0] * len(data.elements), data.index_of_code
    for r, c in s._codes.items():
        if (i := at.get(r)) is None:  # a code met first: read it once
            i = at[r] = data.index_of[coxfaces._w_of_code(s.family, r)]
        acc[i] += c
    return data.element(tuple(acc))


# ---------------------------------------------------------------------------
# structure tables


def _subsets(indices, nonempty=False):
    """Every subset of the indices as a frozenset, by size and then
    lexicographically; without the empty set if nonempty."""
    indices = sorted(indices)
    return (frozenset(c) for r in range(nonempty, len(indices) + 1)
            for c in itertools.combinations(indices, r))


def _orbit_sums(family: Family, torus: bool) -> dict:
    """Every sigma_J, or every sigma~_J if torus, keyed by J in the order of
    ``_subsets``: ``orbit_sum`` of each legal colour, which walks its faces only."""
    return {J: orbit_sum("sigmat" if torus else "sigma", J, family)
            for J in _subsets(_universe("xt" if torus else "x", family), nonempty=torus)}


def _keyed(expansion) -> dict:
    """An expansion as JSON-keyed coefficients, ordered by sorted index set."""
    return {json.dumps(sorted(K), separators=(",", ":")): c
            for K, c in sorted(expansion.items(), key=lambda kv: sorted(kv[0]))}


def _face_table(kind: str, family: Family) -> dict:
    """Entry (I, J) expands s_J * sigma_I = sum of c_K * s_K, s being sigma
    (kind 'solomon') or sigma~ (kind 'module'); psi maps it to x_I * x_J in
    the x basis, or to x_I * x~_J over the x~ spanning set (with the full
    affine index set).  The product is W-equivariant and W permutes the faces
    of one colour transitively, so one face F of colour J gives every
    coefficient: c_K = |s_J| * h_K / |s_K|, where h_K counts the faces of
    colour K in F * sigma_I.  The psi suite checks the invariance of
    s_J * sigma_I that this assumes."""
    _check_work(f"{kind} table", _TABLES[kind], family)
    torus = kind == "module"
    sigma = _orbit_sums(family, False)
    lefts = _orbit_sums(family, True) if torus else sigma
    color_of = {r: K for K, orbit in lefts.items() for r in orbit._codes}
    faces = {q: I for I, sigma_I in sigma.items() for q in sigma_I._codes}
    anchor = torusfaces._anchor(family) if torus else None
    expansions, kept = {(I, J): {} for I in sigma for J in lefts}, {}
    for J, s_J in lefts.items():
        keys, results = coxfaces._by_key(next(iter(s_J._codes)), faces, anchor, kept)
        colour = {key: color_of[r] for key, r in results.items()}
        for (I, K), h in Counter(zip(faces.values(), map(colour.__getitem__, keys))).items():
            expansions[I, J][K], rest = divmod(len(s_J._codes) * h, len(lefts[K]._codes))
            if rest:
                raise ValidationError(f"orbit {sorted(K)} is not hit a whole number of times "
                                      f"in entry ({sorted(I)}, {sorted(J)})")
    return {"kind": kind, "family": family.tag, "rank": family.rank,
            "entries": [{"I": sorted(I), "J": sorted(J), "coeffs": _keyed(expansion)}
                        for (I, J), expansion in expansions.items()]}


def solomon_table(family: Family) -> dict:
    """All x_I * x_J expanded in the x basis, from the face side."""
    return _face_table("solomon", family)


def module_table(family: Family) -> dict:
    """All x_I * x~_J expanded over the x~ spanning set, from the face side."""
    return _face_table("module", family)


# ---------------------------------------------------------------------------
# verification suites


def _report(suite, family, checks, failures):
    return {"suite": suite, "family": family.tag, "rank": family.rank,
            "checks": checks, "failures": failures, "pass": not failures}


def _verify_products(suite: str, kind: str, family: Family, seed=0):
    """Every x_I * x_J or x_I * x~_J is constant on D-classes (D = Des or Ades)
    iff each w's histogram of (Des(w v), D(v^-1)) over all v, at (A, B) w's
    coefficient in y_A * y_B or y_A * y~_B, is its class's first one's."""
    data, width = _data(family).group, len(_universe(kind, family))
    d = data.mask_of[kind]
    d_inverse = [d[data.index_of[inverse(w).values]] for w in data.elements]
    named = {k: {m: sorted(J) for J, m in data.masks[k].items()} for k in ("x", kind)}
    firsts, failures = {}, []
    for i, row in enumerate(data.rows([m << width for m in data.mask_of["x"]])):
        h = Counter(map(or_, row, d_inverse))
        first, h_first = firsts.setdefault(d[i], (i, h))
        if not dict.__eq__(h, h_first):  # no zero counts, so a plain dict compare
            key = min(k for k in h.keys() | h_first.keys() if h[k] != h_first[k])
            failures.append({"class": named[kind][d[i]], "elements": [
                list(data.elements[j].values) for j in (first, i)],
                "A": named["x"][key >> width], "B": named[kind][key % (1 << width)]})
    return _report(suite, family, len(data.masks["x"]) * len(data.masks[kind]), failures)


def _verify_psi(family: Family, seed=0):
    """Per orbit sum s_J, sigma_J or sigma~_J: s_J is W-invariant with psi(s_J) = x_J
    or x~_J, and each s_J * sigma_K is W-invariant, which the module table assumes, with
    psi(s_J * sigma_K) = x_K * psi(s_J).  A failure's I and J are the sets that its
    identity calls J and K; a code that moves or decodes to none fails its identity."""
    checks, failures = 0, []
    sigma = _orbit_sums(family, False)
    x = {K: basis_element("x", K, family) for K in sigma}

    def check(s, image, identity, I, J):  # only a kernel defect makes such a code
        with suppress(IndexError, KeyError, ValidationError):  # psi refuses a non-invariant s
            if psi(s)._dense == image._dense:
                return
        failures.append({"identity": identity, "I": sorted(I), "J": sorted(J)})

    for kind, sums, (orbit, product) in (
            ("x", sigma, ("psi(sigma_J) = x_J", "psi(sigma_J sigma_K) = x_K x_J")),
            ("xt", _orbit_sums(family, True),
             ("psi(sigma~_J) = x~_J", "psi(sigma~_K sigma_J) = x_J x~_K"))):
        for J, sJ in sums.items():
            xJ = basis_element(kind, J, family)
            checks += 1 + len(sigma)
            check(sJ, xJ, orbit, J, J)
            for K, sK in sigma.items():
                check(face_sum_product(sJ, sK), multiply(x[K], xJ), product,
                      *((J, K) if kind == "x" else (K, J)))
    return _report("psi", family, checks, failures)


def _table(lefts, rights, anchor=None):
    """Per left code, the indices in lefts of its products with every right
    code; a product outside lefts, which only a kernel defect makes, is None."""
    index_of, kept = {p: i for i, p in enumerate(lefts)}, {}
    for p in lefts:
        keys, results = coxfaces._by_key(p, rights, anchor, kept)
        yield list(map({key: index_of.get(r) for key, r in results.items()}.__getitem__, keys))


def _verify_lrb(family: Family, seed=0):
    """The left regular band laws of the Tits product, as lookups in the
    f x f table T[i][j] of the index of face i times face j (3 MB at A5,
    175 MB at A6); a product that is no face fails each law that reads it.
    The sign law takes each face's signs once, from ``coxfaces.sign_vector``."""
    faces = list(coxfaces.enumerate_faces(family))
    codes = [coxfaces._face_code(F) for F in faces]
    signs = [coxfaces.sign_vector(F).signs for F in faces]
    T = list(_table(codes, codes))
    u = codes.index(coxfaces._face_code(coxfaces.unit_face(family)))
    failed = {law: [] for law in ("idempotent", "xyx=xy", "chamber absorption",
                                  "unit", "associativity", "sign composition")}

    def fail(law, **witness):
        failed[law].append({"law": law, **{k: str(faces[i]) for k, i in witness.items()}})

    chambers = 0
    for i, (f, row) in enumerate(zip(codes, T)):
        if row[i] != i:
            fail("idempotent", face=i)
        if T[u][i] != i or row[u] != i:
            fail("unit", face=i)
        if len(set(f)) == len(f):  # a chamber: every block is one element
            chambers += 1
            for k in row:
                if k != i:
                    fail("chamber absorption", C=i)
        for j, k in enumerate(row):
            if k is None or T[k][i] != k:
                fail("xyx=xy", F=i, G=j)
            composed = tuple(a if a != "0" else b for a, b in zip(signs[i], signs[j]))
            if k is None or composed != signs[k]:
                fail("sign composition", F=i, G=j)
    # Associativity: exhaustive when tiny, seeded sample otherwise.
    indices = range(len(codes))
    if len(codes) <= 20:
        triples = list(itertools.product(indices, repeat=3))
    else:
        rng = random.Random(seed)
        triples = [(rng.choice(indices), rng.choice(indices), rng.choice(indices))
                   for _ in range(2000)]
    for i, j, k in triples:
        left, right = T[i][j], T[j][k]
        if None in (left, right) or T[left][k] != T[i][right]:
            fail("associativity", F=i, G=j, H=k)
    # Per face: idempotent, unit and, for a chamber, absorption of every
    # face; per pair: xyx=xy and sign composition; per triple: associativity.
    checks = len(codes) * (2 + 2 * len(codes) + chambers) + len(triples)
    return _report("lrb", family, checks, [f for fs in failed.values() for f in fs])


def _verify_euler(family: Family, seed=0):
    signs = [(-1) ** (len(torusfaces.color_set(N)) - 1)
             for N in torusfaces.enumerate_torus_faces(family)]
    failures = [{"euler_sum": sum(signs)}] if sum(signs) else []
    return _report("euler", family, len(signs), failures)


def _verify_counts(family: Family, seed=0):
    checks, failures = 0, []
    data = _data(family).group
    sigma, sigmat = _orbit_sums(family, False), _orbit_sums(family, True)
    finite = frozenset(family.finite_indices())
    maximal = [r for r in sigmat[frozenset(family.affine_indices())]._codes
               if len(set(r)) == len(r)]  # no two letters share a block
    for check, got in (("chamber count", len(sigma[finite]._codes)),
                       ("maximal torus faces", len(maximal))):
        checks += 1
        if got != family.group_order():
            failures.append({"check": check, "want": family.group_order(), "got": got})
    # The faces of colour J map one to one onto the elements with (affine)
    # descent set inside J; codes give one-line values without a face.
    for kind, sums, side in (("x", sigma, "finite"), ("xt", sigmat, "affine")):
        for J, m in data.masks[kind].items():
            checks += 1
            images = [coxfaces._w_of_code(family, r) for r in sums[J]._codes]
            target = {w.values for w, d in zip(data.elements, data.mask_of[kind]) if d | m == m}
            if len(images) != len(set(images)) or set(images) != target:
                failures.append({"check": f"{side} descent bijection", "J": sorted(J)})
    # A colour's orbit size: a multinomial, in type C a sign per letter off the zero block.
    n = family.rank
    for J in _subsets(finite):
        checks += 1
        cuts = [0, *sorted(J), n]
        multinomial = math.factorial(n) // math.prod(
            math.factorial(b - a) for a, b in zip(cuts, cuts[1:]))
        if len(sigma[J]._codes) != multinomial << (n - cuts[1] if family.tag == "C" else 0):
            failures.append({"check": "orbit size", "J": sorted(J)})
    return _report("counts", family, checks, failures)


def _verify_oracle(family: Family, seed=0):
    """Cross-check the necklace action, read off the product table a row at
    a time, against the affine sign-vector model, which reads no code and
    takes each face's signs once (type A; ``verify`` refuses type C).  Each
    pair is compared, and each lift and translate located, through one cache
    per run of the checked ``project``: each distinct vector is projected once."""
    project = functools.cache(oracle.project)
    checks, failures = 0, []
    necklaces = list(torusfaces.enumerate_torus_faces(family))
    faces = list(coxfaces.enumerate_faces(family))
    signs = [coxfaces.sign_vector(G).signs for G in faces]
    lifted, n = [(N, oracle.lift(N)) for N in necklaces], family.rank
    for N, V in lifted:
        checks += 1
        if project(V) != N:
            failures.append({"check": "project(lift(N)) = N", "N": str(N)})
        mu, w = oracle._locate(V, project(V))
        checks += 1
        blocks = torusfaces.split(N).blocks  # read apart from lift: block p at p, the tail at m
        at = [next((p for p, b in enumerate(blocks) if x in b), len(blocks)) for x in range(n + 1)]
        if (any(mu.coords) or w != torusfaces.w_of_torus_face(N)
                or V != oracle._vector_from_coords(n, at, len(blocks))):
            failures.append({"check": "locate canonical lift", "N": str(N)})
    rows = _table([torusfaces._necklace_code(N) for N in necklaces],
                  [coxfaces._face_code(G) for G in faces], torusfaces._anchor(family))
    for (N, V), row in zip(lifted, rows):
        for G, g, k in zip(faces, signs, row):
            checks += 1
            if k is None or necklaces[k] != project(oracle._act(V, g)):
                failures.append({"check": "action equivalence", "N": str(N), "G": str(G)})
    # Translation equivariance over small coroot vectors, sampled pairs.
    mus = [oracle.CorootVector(coords) for coords in itertools.product(range(-2, 3), repeat=n)
           if sum(coords) == 0]
    rng = random.Random(seed)
    pairs = [(rng.choice(lifted), rng.choice(signs)) for _ in range(40)]
    for mu in mus:
        for (N, V), g in pairs:
            checks += 1
            if oracle._act(oracle.translate(V, mu), g) != oracle.translate(oracle._act(V, g), mu):
                failures.append({"check": "translation equivariance", "mu": list(mu.coords)})
        # The located translation part must follow the shift as well.
        (N, V), _ = pairs[0]
        checks += 1
        shifted = oracle.translate(V, mu)
        got_mu, got_w = oracle._locate(shifted, project(shifted))
        if got_mu != mu or got_w != torusfaces.w_of_torus_face(N):
            failures.append({"check": "locate translate", "mu": list(mu.coords)})
    return _report("oracle", family, checks, failures)


# One row per suite and per structure table: its runner; its budget unit and its
# work from the group order g, the numbers f of faces and t of torus faces, and the
# number c of nonempty affine colour sets; and its refusal of each family tag it does
# not cover.  A table refines one face per left colour against every face: the module
# table over the c torus colours, the solomon table over the (c + 1) / 2 finite ones.
_Row = namedtuple("_Row", "run unit work refuses", defaults=({},))
_SUITES = {
    "solomon": _Row(functools.partial(_verify_products, "solomon", "x"), "group products",
                    lambda g, f, t, c: g * g),
    "module": _Row(functools.partial(_verify_products, "module", "xt"), "group products",
                   lambda g, f, t, c: g * g),
    "psi": _Row(_verify_psi, "face products", lambda g, f, t, c: f * (f + t)),
    "oracle": _Row(_verify_oracle, "face products", lambda g, f, t, c: f * t,
                   {"C": "the affine sign-vector oracle covers type A only"}),
    "lrb": _Row(_verify_lrb, "face products", lambda g, f, t, c: 2 * f * f),
    "euler": _Row(_verify_euler, "torus faces", lambda g, f, t, c: t),
    "counts": _Row(_verify_counts, "faces and torus faces", lambda g, f, t, c: max(f, t)),
}
_TABLES = {"solomon": _Row(solomon_table, "face products", lambda g, f, t, c: f * (c + 1) // 2),
           "module": _Row(module_table, "face products", lambda g, f, t, c: f * c)}


def _check_work(name: str, row: _Row, family: Family) -> None:
    """Refuse to start the suite or table `name` if its row's work passes the budget."""
    check_count(weyl._family(family), lambda family: row.work(
        family.group_order(), coxfaces.count_faces(family),
        torusfaces.count_torus_faces(family), 2 ** len(family.affine_indices()) - 1),
        f"{row.unit} of the {name} for {family}")


def verify(suite: str, family: Family, seed: int = 0) -> dict:
    """Run one suite, or with 'all' every suite whose row does not refuse the family, once
    the work of each is checked; every family's kept state is dropped when the runs end."""
    if suite not in ("all", *_SUITES):
        raise ValidationError(f"unknown suite {suite!r}")
    tag = weyl._family(family).tag
    rows = {name: row for name, row in _SUITES.items()
            if name == suite or suite == "all" and tag not in row.refuses}
    for name, row in rows.items():
        if tag in row.refuses:  # before the budget is read
            raise ValidationError(row.refuses[tag])
        _check_work(f"{name} suite", row, family)
    try:
        reports = [row.run(family, seed) for row in rows.values()]
    finally:
        _data.cache_clear()
    return reports[0] if suite != "all" else {
        "suite": "all", "family": tag, "rank": family.rank,
        "reports": reports, "pass": all(r["pass"] for r in reports)}
