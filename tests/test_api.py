"""The exported functions against arguments of every kind: each call either
returns or raises a SteintorusError.  The functions that take two objects
check them through one helper, ``weyl._same_family``, and leak nothing."""

import inspect
import itertools
import operator

import pytest

import steintorus
from steintorus import affine_oracle as ao
from steintorus import coxfaces as cf
from steintorus import descent_algebra as da
from steintorus import torusfaces as tf
from steintorus.errors import FamilyMismatchError, SteintorusError
from steintorus.weyl import ColorSet, Family, identity

A3 = Family("A", 3)


def objects(family):
    """One object of each kind that the guarded functions take."""
    return {"face": cf.unit_face(family),
            "necklace": next(tf.enumerate_torus_faces(family)),
            "group element": identity(family),
            "ring element": da.basis_element("x", [1], family),
            "face sum": da.orbit_sum("sigma", [1], family)}


SAMPLES = objects(A3)
RING, SUM = SAMPLES["ring element"], SAMPLES["face sum"]
SAMPLES.update({"compact sign vector": ao.lift(SAMPLES["necklace"]),
                "colour set": ColorSet(A3, {1}), "family": A3, "1": 1, "None": None})

# Each function that checks its arguments through weyl._same_family, with
# the + and - of the sums.
GUARDED = {
    "tits_product": cf.tits_product,
    "coxfaces.act": cf.act,
    "module_action": tf.module_action,
    "torusfaces.act": tf.act,
    "multiply": da.multiply,
    "express_in_basis": da.express_in_basis,
    "express_in_basis(a, 'x')": lambda a: da.express_in_basis(a, "x"),
    "face_sum_product": da.face_sum_product,
    "psi": da.psi,
    "ring element +": lambda other: RING + other,
    "ring element -": lambda other: RING - other,
    "face sum +": lambda other: SUM + other,
}


def required(f):
    return [p for p in inspect.signature(f).parameters.values()
            if p.default is p.empty and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]


def leaks(f):
    """The calls of f, over every tuple of samples, that raise anything but a
    SteintorusError; a generator is run to its first item."""
    found = []
    for names in itertools.product(SAMPLES, repeat=len(required(f))):
        try:
            result = f(*map(SAMPLES.get, names))
            if inspect.isgenerator(result):
                next(result, None)
        except SteintorusError:
            pass
        except Exception as exc:
            found.append((names, type(exc).__name__))
    return found


@pytest.mark.parametrize("name", list(GUARDED))
def test_guarded_functions_leak_nothing(name):
    assert leaks(GUARDED[name]) == []


# The guarded functions of two objects, with the kinds they take.
TWO_OBJECTS = {
    "tits_product": (cf.tits_product, "face", "face"),
    "coxfaces.act": (cf.act, "group element", "face"),
    "module_action": (tf.module_action, "necklace", "face"),
    "torusfaces.act": (tf.act, "group element", "necklace"),
    "multiply": (da.multiply, "ring element", "ring element"),
    "face_sum_product": (da.face_sum_product, "face sum", "face sum"),
    "ring element +": (operator.add, "ring element", "ring element"),
    "ring element -": (operator.sub, "ring element", "ring element"),
    "face sum +": (operator.add, "face sum", "face sum"),
}


@pytest.mark.parametrize("other", [Family("A", 4), Family("C", 3)], ids=["A4", "C3"])
@pytest.mark.parametrize("name", list(TWO_OBJECTS))
def test_guarded_functions_refuse_two_families(name, other):
    """Objects of the right kinds but of two families are a family mismatch,
    in either order; of one family, they combine."""
    f, left, right = TWO_OBJECTS[name]
    theirs = objects(other)
    f(SAMPLES[left], SAMPLES[right])
    for a, b in ((SAMPLES[left], theirs[right]), (theirs[left], SAMPLES[right])):
        with pytest.raises(FamilyMismatchError):
            f(a, b)


def test_the_api_sweep_leaks_no_more_than_before():
    """Every exported function with at most two required parameters, called
    with every tuple of the ten samples.  The 450 leaks left, in functions
    that do not check the kind of what they are given, are the debt of one
    checked boundary for the whole API: the count may fall, not rise."""
    exported = {name: f for name in steintorus.__all__
                if inspect.isfunction(f := getattr(steintorus, name)) and len(required(f)) <= 2}
    assert sum(len(SAMPLES) ** len(required(f)) for f in exported.values()) == 1100
    assert sum(len(leaks(f)) for f in exported.values()) <= 450
