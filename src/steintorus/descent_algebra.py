"""The integral group ring, descent ring, affine descent module, and the
brute-force verification suites tying them to the face monoids.

The descent ring is spanned by x_J = sum of all w with descent set inside J
(J inside the finite simple system); the affine descent module is spanned by
the analogous affine sums x~_J for nonempty J inside the extended simple
system.  Both are handled through their class-indicator bases (y_J = sum
over the class with descent set exactly J), with boolean-lattice Moebius
inversion translating between the two.

Face sums enter through orbit sums sigma_J (all finite faces of color J)
and sigma~_J (all torus faces of color J).  The map psi sends a W-invariant
face sum to the group ring by replacing each face with its canonical group
element; on invariants it reverses products on the finite side and
intertwines the module structures.

Internally a group element is its index in the lexicographic enumeration
of the group by one-line values, so the convolution, the basis sums and the
|W|^2 multiplication table work on plain integers; because that order is the
order of ``GroupRingElement.coeffs``, a dense coefficient list read in index
order gives the canonical ``coeffs`` tuple, built without the check.  Every
(affine) descent class is kept as its list of element indices.  ``multiply``
adds, for each coefficient group of the right factor, every left row's
table entries over the group's columns: x_I * x_J is one exact count over
all |x_I| * |x_J| pairs, which assumes nothing of Solomon's theorem; the
suites test it by ``express_in_basis`` checking every member of every class.
Class sums give each class one value and fill its list; their zeta sum over
index sets and the Moebius inversion are one subset transform on bit masks.

A face sum's state is its {position code: coefficient} dict (see
``coxfaces``); its faces are decoded from the codes only when ``coeffs`` is
first read.  ``face_sum_product`` refines each left code against the whole
right factor in one call of ``coxfaces._refine_all``, which runs the one
kernel once per distinct trace of a right code on the left code's blocks of
two or more elements, and returns the codes it accumulates.
``module_table`` refines one torus face per colour; ``is_invariant``
permutes codes; ``psi`` reads each group element off a code and builds each
element of its result once.  So none of them builds a face.  The public
constructors of sums check their keys and int coefficients and make them
canonical; internal results skip that check.  ``_WORK`` holds each suite's
and table's work, a unit and a count; ``verify`` and the tables check it
against the budget before any work, so no suite holds budget code.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, FrozenSet, Tuple

from .budget import check_count
from .errors import (
    FamilyMismatchError,
    NotInSpanError,
    ValidationError,
)
from .weyl import (
    ColorSet,
    Family,
    WeylElement,
    affine_descent_set,
    descent_set,
    enumerate_group,
)
from . import coxfaces, torusfaces


# ---------------------------------------------------------------------------
# cached per-family group data


class _GroupData:
    def __init__(self, family: Family):
        self.family = family
        self.elements = list(enumerate_group(family))
        self.index_of = {w.values: i for i, w in enumerate(self.elements)}
        # Per basis kind: each (affine) descent class as its ascending element
        # indices, keyed by descent set in the order of first elements; and
        # the bit mask of each legal index set, in the order of _subsets.
        self.classes, self.masks = {}, {}
        for kinds, descents in ((("x", "y"), descent_set),
                                (("xt", "yt"), affine_descent_set)):
            classes = {}
            for i, w in enumerate(self.elements):
                classes.setdefault(frozenset(descents(w).indices), []).append(i)
            universe = _universe(kinds[0], family)
            masks = {I: sum(1 << (i - universe.start) for i in I)
                     for I in _subsets(universe, nonempty=kinds[0] == "xt")}
            for kind in kinds:
                self.classes[kind], self.masks[kind] = classes, masks
        self._mult = None

    @property
    def mult(self):
        """mult[i][j] is the index of elements[i] * elements[j], built once."""
        if self._mult is None:
            check_count(self.family, lambda family: family.group_order() ** 2,
                        f"multiplication table of {self.family}")
            words = [w.values for w in self.elements]
            # itemgetter(0, *v) reads u(0) = 0 followed by u(v_1), ..., u(v_n)
            # off the image list of u, and always returns a tuple.
            index_of = {(0,) + v: i for i, v in enumerate(words)}
            getters = [itemgetter(0, *v) for v in words]
            self._mult = []
            for u in words:
                # image[x] = u(x) for x in [-n, n]; negative x count from the end.
                image = (0,) + u + tuple(-x for x in reversed(u))
                self._mult.append([index_of[g(image)] for g in getters])
        return self._mult

    def element(self, coeffs) -> "GroupRingElement":
        """The ring element with coefficient coeffs[i] on elements[i]."""
        return coxfaces._trusted(GroupRingElement, self.family, tuple(
            zip(itertools.compress(self.elements, coeffs), filter(None, coeffs))))


_group_cache: Dict[Family, _GroupData] = {}


def _data(family: Family) -> _GroupData:
    """The family's group data, built once."""
    if family not in _group_cache:
        _group_cache[family] = _GroupData(family)
    return _group_cache[family]


# ---------------------------------------------------------------------------
# group ring


def _integer(c) -> int:
    """c, if it is an int; bools and floats are refused, as on the wire."""
    if type(c) is not int:
        raise ValidationError(f"coefficient {c!r} is not an integer")
    return c


@dataclass(frozen=True)
class GroupRingElement:
    """Checked and canonical: every key is an element of the family and every
    coefficient an int; repeated keys are summed, zeros dropped, keys sorted."""

    family: Family
    coeffs: Tuple[Tuple[WeylElement, int], ...]

    def __post_init__(self):
        acc = {}
        for w, c in self.coeffs:
            if not isinstance(w, WeylElement) or w.family != self.family:
                raise FamilyMismatchError(f"{w} is not an element of {self.family}")
            acc[w] = acc.get(w, 0) + _integer(c)
        object.__setattr__(self, "coeffs", tuple(sorted(
            ((w, c) for w, c in acc.items() if c), key=lambda wc: wc[0].values)))

    @staticmethod
    def from_dict(family: Family, mapping) -> "GroupRingElement":
        return GroupRingElement(family, tuple(mapping.items()))

    def as_dict(self):
        return dict(self.coeffs)

    def __add__(self, other):
        if self.family != other.family:
            raise FamilyMismatchError("family mismatch")
        return GroupRingElement(self.family, self.coeffs + other.coeffs)

    def __sub__(self, other):
        return self + GroupRingElement(other.family,
                                       tuple((w, -c) for w, c in other.coeffs))

    def is_zero(self):
        return not self.coeffs


def _groups(data: _GroupData, g: GroupRingElement):
    """g's element indices grouped by coefficient, as (c, [index, ...])."""
    index_of = data.index_of
    groups = {}
    for w, c in g.coeffs:
        groups.setdefault(c, []).append(index_of[w.values])
    return list(groups.items())


def multiply(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    """Convolution product in the group ring.  For each coefficient value cv
    of b, one pass over the elements u of a adds cu*cv at the table entries
    of u's row in the columns of b's elements with that value, cu being u's
    coefficient; a basis element x_J or x~_J is a single group."""
    if a.family != b.family:
        raise FamilyMismatchError("family mismatch")
    data = _data(a.family)
    table = data.mult
    index_of = data.index_of
    lefts = [(table[index_of[u.values]], cu) for u, cu in a.coeffs]
    acc = [0] * len(table)
    for cv, js in _groups(data, b):
        # A slice keeps a lone column a tuple; itemgetter(j) returns a scalar.
        pick = itemgetter(*js) if len(js) > 1 else itemgetter(slice(js[0], js[0] + 1))
        for row, cu in lefts:
            c = cu * cv
            for k in pick(row):
                acc[k] += c
    return data.element(acc)


# ---------------------------------------------------------------------------
# descent bases


def _as_index_set(index) -> FrozenSet[int]:
    if isinstance(index, ColorSet):
        return frozenset(index.indices)
    return frozenset(index)


def _universe(kind: str, family: Family) -> range:
    """The simple indices a basis index set of the kind draws from."""
    return family.finite_indices() if kind in ("x", "y") else family.affine_indices()


def _check_indices(kind: str, sets, family: Family) -> None:
    """Every index set must be legal for the basis kind."""
    if kind not in ("x", "y", "xt", "yt"):
        raise ValidationError(f"unknown basis kind {kind!r}")
    legal = frozenset(_universe(kind, family))
    for J in sets:
        if kind in ("x", "y") and not J <= legal:
            raise ValidationError(f"{kind}-index {sorted(J)} must lie inside "
                                  f"the finite range {sorted(legal)}")
        if kind in ("xt", "yt") and not (J and J <= legal):
            raise ValidationError(
                f"{kind}-index must be a nonempty subset of {sorted(legal)}")
        if kind == "yt" and J == legal:
            raise ValidationError(
                "no element has every affine descent; this class sum is empty")


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


def _class_sum(kind: str, terms, family: Family) -> GroupRingElement:
    """The sum of c * basis_element(kind, J) over the checked pairs (J, c):
    a descent class gets the sum of the c whose J contains (x) or equals (y)
    it, and that value goes on every index of the class."""
    data = _data(family)
    masks = data.masks[kind]
    values = [0] * (1 << len(_universe(kind, family)))
    for J, c in terms:
        values[masks[J]] += c
    if kind in ("x", "xt"):
        _subset_transform(values, 1)
    coeffs = [0] * len(data.elements)
    for D, members in data.classes[kind].items():
        v = values[masks[D]]
        if v:
            for i in members:
                coeffs[i] = v
    return data.element(coeffs)


def basis_element(kind: str, index, family: Family) -> GroupRingElement:
    """x_J, y_J, x~_J (kind 'xt') or y~_J (kind 'yt')."""
    J = _as_index_set(index)
    _check_indices(kind, [J], family)
    return _class_sum(kind, [(J, 1)], family)


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
    family = a.family
    data = _data(family)
    masks = data.masks[kind]
    coeffs = [0] * len(data.elements)
    for w, c in a.coeffs:
        coeffs[data.index_of[w.values]] = c
    values = [0] * (1 << len(_universe(kind, family)))
    broken = []
    for D, members in data.classes[kind].items():
        v = values[masks[D]] = coeffs[members[0]]
        if list(map(coeffs.__getitem__, members)).count(v) != len(members):
            broken.append((next(i for i in members if coeffs[i] != v), members[0], D))
    if broken:
        first, rep, D = min(broken)
        raise NotInSpanError(
            f"not constant on the descent class {sorted(D)}",
            witness=(data.elements[rep], data.elements[first]),
        )
    # Moebius inversion over the classes above I; x~ over the empty set is
    # the empty sum, so masks has no entry for it.
    _subset_transform(values, -1)
    return {I: values[mask] for I, mask in masks.items() if values[mask]}


def evaluate_expansion(expansion, kind: str, family: Family) -> GroupRingElement:
    """The sum of c * basis_element(kind, I, family) over the items (I, c)."""
    terms = [(_as_index_set(I), _integer(c)) for I, c in expansion.items()]
    _check_indices(kind, (J for J, _ in terms), family)
    return _class_sum(kind, terms, family)


# ---------------------------------------------------------------------------
# formal face sums


@dataclass(frozen=True, init=False)
class FaceSum:
    """A finitely supported integer combination of faces (finite or torus),
    checked and canonical like ``GroupRingElement``: every key is a face
    (necklace if torus) of the family.  Its state is {position code:
    coefficient}; a code encodes its face one to one, so == and hash read
    the codes, and ``coeffs`` decodes them, sorted by face, on first read."""

    family: Family
    torus: bool
    _codes: dict

    def __init__(self, family: Family, torus: bool, coeffs):
        kinds = ((torusfaces.SpinNecklace, torusfaces.SymNecklace) if torus
                 else (coxfaces.SetComposition, coxfaces.SymComposition))
        acc = {}
        for F, c in coeffs:
            if not isinstance(F, kinds) or F.family != family:
                raise FamilyMismatchError(f"{F} is not a {'necklace' if torus else 'face'}"
                                          f" of {family}")
            acc[F] = acc.get(F, 0) + _integer(c)
        terms = tuple(sorted(((F, c) for F, c in acc.items() if c), key=itemgetter(0)))
        code = torusfaces._necklace_code if torus else coxfaces._face_code
        self.__dict__.update(family=family, torus=torus, coeffs=terms,
                             _codes={code(F): c for F, c in terms})

    @staticmethod
    def from_dict(family: Family, torus: bool, mapping) -> "FaceSum":
        return FaceSum(family, torus, tuple(mapping.items()))

    @functools.cached_property
    def coeffs(self) -> Tuple[Tuple[object, int], ...]:
        build = torusfaces._from_code if self.torus else coxfaces._from_code
        return tuple(sorted(((build(self.family, r), c) for r, c in self._codes.items()),
                            key=itemgetter(0)))

    def __hash__(self):
        return hash((self.family, self.torus, frozenset(self._codes.items())))

    def as_dict(self):
        return dict(self.coeffs)

    def __add__(self, other):
        if (self.family, self.torus) != (other.family, other.torus):
            raise FamilyMismatchError("incompatible face sums")
        acc = Counter(self._codes)
        acc.update(other._codes)  # Counter.update adds; dict.update would replace
        return coxfaces._trusted(FaceSum, self.family, self.torus,
                                 {r: c for r, c in acc.items() if c})


def orbit_sum(kind: str, index, family: Family) -> FaceSum:
    """sigma_J (kind 'sigma') or sigma~_J (kind 'sigmat')."""
    color = ColorSet(family, _as_index_set(index))
    if kind not in ("sigma", "sigmat"):
        raise ValidationError(f"unknown orbit sum kind {kind!r}")
    torus = kind == "sigmat"
    walk = torusfaces.enumerate_torus_faces if torus else coxfaces.enumerate_faces
    return FaceSum.from_dict(family, torus, dict.fromkeys(walk(family, color), 1))


def face_sum_product(s: FaceSum, t: FaceSum) -> FaceSum:
    """Bilinear extension of the Tits product / module action, on codes."""
    if t.torus:
        raise ValidationError("the right factor must be a finite face sum")
    if s.family != t.family:
        raise FamilyMismatchError("family mismatch")
    anchor = torusfaces._anchor(s.family) if s.torus else None
    right = t._codes
    acc = {}
    for p, cp in s._codes.items():
        for r, cq in zip(coxfaces._refine_all(p, right, anchor), right.values()):
            acc[r] = acc.get(r, 0) + cp * cq
    return coxfaces._trusted(FaceSum, s.family, s.torus, {r: c for r, c in acc.items() if c})


def _generators(family: Family):
    n = family.rank
    gens = []
    if family.tag == "C":
        gens.append(WeylElement(family, (-1,) + tuple(range(2, n + 1))))
    for i in range(1, n):
        values = list(range(1, n + 1))
        values[i - 1], values[i] = values[i], values[i - 1]
        gens.append(WeylElement(family, tuple(values)))
    return gens


def is_invariant(s: FaceSum) -> bool:
    """True iff every simple generator maps s to itself.  A group element
    acts on codes by permuting their entries: entry i of the image reads
    entry moves[i], where moves is its image of the code 0, 1, 2, ..."""
    codes = s._codes
    if not codes:
        return True
    size = len(next(iter(codes)))
    for g in _generators(s.family):
        moves = itemgetter(*coxfaces._moved(range(size), g))
        if dict(zip(map(moves, codes), codes.values())) != codes:
            return False
    return True


def _psi_unchecked(s: FaceSum) -> GroupRingElement:
    acc = {}
    for r, c in s._codes.items():
        acc[w] = acc.get(w := coxfaces._w_of_code(s.family, r), 0) + c
    return coxfaces._trusted(GroupRingElement, s.family, tuple(
        (coxfaces._trusted(WeylElement, s.family, w), c) for w, c in sorted(acc.items()) if c))


def psi(s: FaceSum) -> GroupRingElement:
    """Replace each face by its canonical group element (invariant sums only)."""
    if not is_invariant(s):
        raise ValidationError("psi is only defined on W-invariant face sums")
    return _psi_unchecked(s)


# ---------------------------------------------------------------------------
# structure tables


def _subsets(indices, nonempty=False):
    """Every subset of the indices as a frozenset, by size and then
    lexicographically; without the empty set if nonempty."""
    indices = sorted(indices)
    return (frozenset(c) for r in range(nonempty, len(indices) + 1)
            for c in itertools.combinations(indices, r))


# The work of each suite of _SUITES and of the two tables: its unit, and its
# count from the group order g, the numbers f of faces and t of torus faces,
# and the number c of nonempty affine colour sets.  The module table refines
# one torus face per colour against every face.
_WORK = {
    "solomon": ("multiplication table", lambda g, f, t, c: g * g),
    "module": ("multiplication table", lambda g, f, t, c: g * g),
    "psi": ("face products", lambda g, f, t, c: f * (f + t)),
    "oracle": ("face products", lambda g, f, t, c: f * t),
    "lrb": ("face products", lambda g, f, t, c: 2 * f * f),
    "euler": ("torus faces", lambda g, f, t, c: t),
    "counts": ("faces and torus faces", lambda g, f, t, c: max(f, t)),
    "solomon table": ("multiplication table", lambda g, f, t, c: g * g),
    "module table": ("face products", lambda g, f, t, c: f * c),
}


def _check_work(name: str, family: Family) -> None:
    """Refuse to start the suite or table `name` if its work passes the budget."""
    unit, work = _WORK[name]
    check_count(family, lambda family: work(
        family.group_order(), coxfaces.count_faces(family),
        torusfaces.count_torus_faces(family), 2 ** len(family.affine_indices()) - 1),
        f"{unit} of the {name}{'' if name.endswith('table') else ' suite'} for {family}")


def _orbit_sums(family: Family):
    """(sigma, sigmat): every sigma_J and every sigma~_J keyed by J, in the
    order the enumerators first reach each colour, from one walk of each."""
    sums = []
    for torus, faces, color_set in (
        (False, coxfaces.enumerate_faces(family), coxfaces.color_set),
        (True, torusfaces.enumerate_torus_faces(family), torusfaces.color_set),
    ):
        orbits = {}
        for F in faces:
            orbits.setdefault(frozenset(color_set(F).indices), {})[F] = 1
        sums.append({J: FaceSum.from_dict(family, torus, orbit)
                     for J, orbit in orbits.items()})
    return sums


def _keyed(expansion) -> dict:
    """An expansion as JSON-keyed coefficients, ordered by sorted index set."""
    return {json.dumps(sorted(K), separators=(",", ":")): c
            for K, c in sorted(expansion.items(), key=lambda kv: sorted(kv[0]))}


def _products(kind: str, family: Family):
    """Yield (I, J, x_I * b_J) over every finite I and every legal J, where
    b_J is x_J (kind 'x') or x~_J (kind 'xt')."""
    rights = [(J, basis_element(kind, J, family))
              for J in _subsets(_universe(kind, family), nonempty=kind == "xt")]
    for I in _subsets(family.finite_indices()):
        xI = basis_element("x", I, family)
        for J, bJ in rights:
            yield I, J, multiply(xI, bJ)


def solomon_table(family: Family) -> dict:
    """All x_I * x_J expanded back in the x basis."""
    _check_work("solomon table", family)
    entries = [
        {"I": sorted(I), "J": sorted(J),
         "coeffs": _keyed(express_in_basis(product, "x"))}
        for I, J, product in _products("x", family)
    ]
    return {"kind": "solomon", "family": family.tag, "rank": family.rank,
            "entries": entries}


def module_table(family: Family) -> dict:
    """The face-side structure table of the affine descent module.

    Entry (I, J) expands sigma~_J * sigma_I = sum of c_K * sigma~_K over the
    torus orbit sums; by the intertwining property the same coefficients
    expand x_I * x~_J over the x~ spanning set (including the full affine
    index set).  The product is W-equivariant and W permutes the torus faces
    of one colour transitively, so one torus face N of colour J gives every
    coefficient: c_K = |sigma~_J| * h_K / |sigma~_K|, where h_K counts the
    faces of colour K in N * sigma_I.  The invariance of sigma~_J * sigma_I
    this assumes is checked by the psi suite.
    """
    _check_work("module table", family)
    sigma, sigmat = _orbit_sums(family)
    color_of = {r: K for K, orbit in sigmat.items() for r in orbit._codes}
    anchor = torusfaces._anchor(family)
    entries = []
    for I in _subsets(family.finite_indices()):
        right = sigma[I]._codes
        for J in _subsets(family.affine_indices(), nonempty=True):
            orbit = sigmat[J]._codes
            hits = Counter(map(color_of.__getitem__,
                               coxfaces._refine_all(next(iter(orbit)), right, anchor)))
            expansion = {}
            for K, h in hits.items():
                expansion[K], rest = divmod(len(orbit) * h, len(sigmat[K]._codes))
                if rest:
                    raise ValidationError(
                        f"orbit {sorted(K)} is not hit a whole number of times "
                        f"in entry ({sorted(I)}, {sorted(J)})"
                    )
            entries.append({"I": sorted(I), "J": sorted(J),
                            "coeffs": _keyed(expansion)})
    return {"kind": "module", "family": family.tag, "rank": family.rank,
            "entries": entries}


# ---------------------------------------------------------------------------
# verification suites


def _report(suite, family, checks, failures):
    return {"suite": suite, "family": family.tag, "rank": family.rank,
            "checks": checks, "failures": failures, "pass": not failures}


def _verify_products(suite: str, kind: str, family: Family, seed=0):
    """Every x_I * b_J of `_products` expands in the basis of kind and
    re-evaluates to itself."""
    checks, failures = 0, []
    for I, J, product in _products(kind, family):
        checks += 1
        try:
            expansion = express_in_basis(product, kind)
        except NotInSpanError as exc:
            failures.append(
                {"I": sorted(I), "J": sorted(J), "witness": str(exc.witness)}
            )
            continue
        if evaluate_expansion(expansion, kind, family) != product:
            failures.append({"I": sorted(I), "J": sorted(J),
                             "witness": "expansion does not re-evaluate"})
    return _report(suite, family, checks, failures)


def _verify_psi(family: Family, seed=0):
    checks, failures = 0, []
    sigma, sigmat = _orbit_sums(family)

    def fail(tag, I, J):
        failures.append({"identity": tag, "I": sorted(I), "J": sorted(J)})

    x = {J: basis_element("x", J, family) for J in sigma}
    for J, s in sigma.items():
        checks += 1
        if psi(s) != x[J]:
            fail("psi(sigma_J) = x_J", J, J)
    for J, s in sigmat.items():
        checks += 1
        if psi(s) != basis_element("xt", J, family):
            fail("psi(sigma~_J) = x~_J", J, J)
    # Each product must be W-invariant, which the module table assumes, and
    # map to the ring-side product.
    def holds(product, expected):
        return is_invariant(product) and _psi_unchecked(product) == expected

    for J, sJ in sigma.items():
        for K, sK in sigma.items():
            checks += 1
            if not holds(face_sum_product(sJ, sK), multiply(x[K], x[J])):
                fail("psi(sigma_J sigma_K) = x_K x_J", J, K)
    for K, sK in sigmat.items():
        xtK = basis_element("xt", K, family)
        for J, sJ in sigma.items():
            checks += 1
            if not holds(face_sum_product(sK, sJ), multiply(x[J], xtK)):
                fail("psi(sigma~_K sigma_J) = x_J x~_K", J, K)
    return _report("psi", family, checks, failures)


def _verify_lrb(family: Family, seed=0):
    """The left regular band laws of the Tits product, on position codes:
    each face is encoded once and every product goes through the kernel
    ``coxfaces._refine``.  The sign law takes the factors' signs from
    ``coxfaces.sign_vector`` and reads the product's off its code, whose
    values rise with the block."""
    refine = coxfaces._refine
    faces = list(coxfaces.enumerate_faces(family))
    codes = [coxfaces._face_code(F) for F in faces]
    signs = [coxfaces.sign_vector(F).signs for F in faces]
    unit = coxfaces._face_code(coxfaces.unit_face(family))
    shift = len(unit) - family.rank - 1  # code index of element x is x + shift
    roots = [(a + shift, b + shift) for a, b in coxfaces.positive_root_order(family)]
    failed = {law: [] for law in ("idempotent", "xyx=xy", "chamber absorption",
                                  "unit", "associativity", "sign composition")}

    def fail(law, **witness):
        failed[law].append({"law": law, **{k: str(faces[i]) for k, i in witness.items()}})

    chambers = 0
    for i, f in enumerate(codes):
        if refine(f, f) != f:
            fail("idempotent", face=i)
        if refine(unit, f) != f or refine(f, unit) != f:
            fail("unit", face=i)
        if len(set(f)) == len(f):  # a chamber: every block is one element
            chambers += 1
            for g in codes:
                if refine(f, g) != f:
                    fail("chamber absorption", C=i)
        for j, g in enumerate(codes):
            fg = refine(f, g)
            if refine(fg, f) != fg:
                fail("xyx=xy", F=i, G=j)
            composed = tuple(a if a != "0" else b for a, b in zip(signs[i], signs[j]))
            if composed != tuple("0" if fg[a] == fg[b] else "+" if fg[a] < fg[b] else "-"
                                 for a, b in roots):
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
        f, g, h = codes[i], codes[j], codes[k]
        if refine(refine(f, g), h) != refine(f, refine(g, h)):
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
    data = _data(family)
    order = family.group_order()
    sigma, sigmat = _orbit_sums(family)

    def orbit(sums, J):
        return sums[J]._codes if J in sums else {}

    finite = frozenset(family.finite_indices())
    chambers = orbit(sigma, finite)
    checks += 1
    if len(chambers) != order:
        failures.append({"check": "chamber count", "got": len(chambers)})
    maximal = [r for r in orbit(sigmat, frozenset(family.affine_indices()))
               if torusfaces.is_maximal(torusfaces._from_code(family, r))]
    checks += 1
    if len(maximal) != order:
        failures.append({"check": "maximal torus faces", "got": len(maximal)})
    # The faces of colour J map one to one onto the elements with (affine)
    # descent set inside J; codes give one-line values without a face.
    for kind, sums, side in (("x", sigma, "finite"), ("xt", sigmat, "affine")):
        for J in data.masks[kind]:
            checks += 1
            images = [coxfaces._w_of_code(family, r) for r in orbit(sums, J)]
            target = {data.elements[i].values for D, members in data.classes[kind].items()
                      if D <= J for i in members}
            if len(images) != len(set(images)) or set(images) != target:
                failures.append({"check": f"{side} descent bijection", "J": sorted(J)})
    if family.tag == "A":
        n = family.rank
        for J in _subsets(finite):
            checks += 1
            cuts = [0, *sorted(J), n]
            multinomial = math.factorial(n) // math.prod(
                math.factorial(b - a) for a, b in zip(cuts, cuts[1:]))
            if len(orbit(sigma, J)) != multinomial:
                failures.append({"check": "orbit size", "J": sorted(J)})
    return _report("counts", family, checks, failures)


def _verify_oracle(family: Family, seed=0):
    """Cross-check the necklace action against the affine sign-vector model
    (type A; ``verify`` refuses type C)."""
    from . import affine_oracle as oracle

    checks, failures = 0, []
    necklaces = list(torusfaces.enumerate_torus_faces(family))
    faces = list(coxfaces.enumerate_faces(family))
    lifts = {}
    for N in necklaces:
        V = oracle.lift(N)
        lifts[N] = V
        checks += 1
        if oracle.project(V) != N:
            failures.append({"check": "project(lift(N)) = N", "N": str(N)})
        mu, w = oracle.w_of_affine_face(V)
        checks += 1
        if any(mu.coords) or w != torusfaces.w_of_torus_face(N):
            failures.append({"check": "locate canonical lift", "N": str(N)})
    for N in necklaces:
        V = lifts[N]
        for G in faces:
            checks += 1
            direct = torusfaces.module_action(N, G)
            via_oracle = oracle.project(oracle.oracle_act(V, G))
            if direct != via_oracle:
                failures.append(
                    {"check": "action equivalence", "N": str(N), "G": str(G)}
                )
    # Translation equivariance over small coroot vectors, sampled pairs.
    n = family.rank
    mus = [
        oracle.CorootVector(coords)
        for coords in itertools.product(range(-2, 3), repeat=n)
        if sum(coords) == 0
    ]
    rng = random.Random(seed)
    pairs = [(rng.choice(necklaces), rng.choice(faces)) for _ in range(40)]
    for mu in mus:
        for N, G in pairs:
            V = lifts[N]
            checks += 1
            lhs = oracle.oracle_act(oracle.translate(V, mu), G)
            rhs = oracle.translate(oracle.oracle_act(V, G), mu)
            if lhs != rhs:
                failures.append(
                    {"check": "translation equivariance", "mu": list(mu.coords)}
                )
        # The located translation part must follow the shift as well.
        N, G = pairs[0]
        checks += 1
        got_mu, got_w = oracle.w_of_affine_face(oracle.translate(lifts[N], mu))
        if got_mu != mu or got_w != torusfaces.w_of_torus_face(N):
            failures.append({"check": "locate translate", "mu": list(mu.coords)})
    return _report("oracle", family, checks, failures)


_SUITES = {
    "solomon": functools.partial(_verify_products, "solomon", "x"),
    "module": functools.partial(_verify_products, "module", "xt"),
    "psi": _verify_psi,
    "oracle": _verify_oracle,
    "lrb": _verify_lrb,
    "euler": _verify_euler,
    "counts": _verify_counts,
}


def verify(suite: str, family: Family, seed: int = 0) -> dict:
    """Run one suite, or with 'all' every suite that covers the family; the
    work of each suite it runs is checked before the first one starts."""
    if suite != "all" and suite not in _SUITES:
        raise ValidationError(f"unknown suite {suite!r}")
    if suite == "oracle" and family.tag != "A":
        raise ValidationError("the affine sign-vector oracle covers type A only")
    names = [suite] if suite != "all" else [
        name for name in _SUITES if not (name == "oracle" and family.tag != "A")]
    for name in names:
        _check_work(name, family)
    reports = [_SUITES[name](family, seed) for name in names]
    if suite != "all":
        return reports[0]
    return {"suite": "all", "family": family.tag, "rank": family.rank,
            "reports": reports, "pass": all(r["pass"] for r in reports)}
