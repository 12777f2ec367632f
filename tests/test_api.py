"""The exported functions against arguments of every kind: each call either
returns or raises a SteintorusError.  The functions that take objects check
them through one helper, ``weyl._same_family``, and read their family off its
return, those that take a family through ``weyl._family``, and leak nothing.
The exported classes and the functions of three parameters still leak the
TypeErrors of their constructors' unchecked fields; a second sweep counts them."""

import inspect
import itertools
import operator
import re

import pytest

import steintorus
from steintorus import affine_oracle as ao
from steintorus import coxfaces as cf
from steintorus import descent_algebra as da
from steintorus import torusfaces as tf
from steintorus import weyl
from steintorus.cli import main
from steintorus.errors import FamilyMismatchError, SteintorusError, ValidationError
from steintorus.weyl import ColorSet, Family, WeylElement, identity

A3 = Family("A", 3)
A4 = Family("A", 4)
C2 = Family("C", 2)


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

# Each function that checks its arguments through weyl._same_family or
# weyl._family, directly or through the first function it calls (lift through
# split, w_of_affine_face through project), with the + and - of the sums.
GUARDED = {
    "inverse": weyl.inverse,
    "descent_set": weyl.descent_set,
    "affine_descent_set": weyl.affine_descent_set,
    "identity": weyl.identity,
    "enumerate_group": weyl.enumerate_group,
    "count_faces": cf.count_faces,
    "unit_face": cf.unit_face,
    "enumerate_faces": cf.enumerate_faces,
    "count_torus_faces": tf.count_torus_faces,
    "enumerate_torus_faces": tf.enumerate_torus_faces,
    "split": tf.split,
    "contract_edge": tf.contract_edge,
    "sign_vector": cf.sign_vector,
    "w_of_face": cf.w_of_face,
    "w_of_torus_face": tf.w_of_torus_face,
    "lift": ao.lift,
    "project": ao.project,
    "w_of_affine_face": ao.w_of_affine_face,
    "oracle_act": ao.oracle_act,
    "translate": ao.translate,
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
    with every tuple of the ten samples.  Each checks the kind of what it is
    given before it reads it, so none leaks."""
    exported = {name: f for name in steintorus.__all__
                if inspect.isfunction(f := getattr(steintorus, name)) and len(required(f)) <= 2}
    assert sum(len(SAMPLES) ** len(required(f)) for f in exported.values()) == 1100
    assert sum(len(leaks(f)) for f in exported.values()) <= 0


def test_the_constructor_sweep_leaks_no_more_than_before():
    """Every exported class of at most three required parameters, all but
    SymNecklace, and every exported function of three, called with every tuple
    of the ten samples.  The 1,428 leaks left, all TypeErrors of constructors
    that read a field of the wrong type (make_spin 1,000; FaceSum,
    FiniteSignVector and SpinNecklace 100 each; CompactSignVector 98;
    CorootVector, GroupRingElement and SetComposition 10 each), are the debt of
    checked constructors: the count may fall, not rise."""
    swept = {name: f for name in steintorus.__all__
             if inspect.isclass(f := getattr(steintorus, name)) and not issubclass(f, Exception)
             and len(required(f)) <= 3 or inspect.isfunction(f) and len(required(f)) == 3}
    assert len(swept) == 15
    assert sum(len(SAMPLES) ** len(required(f)) for f in swept.values()) == 7710
    found = [type_name for f in swept.values() for _, type_name in leaks(f)]
    assert set(found) <= {"TypeError"}
    assert len(found) <= 1428


@pytest.mark.parametrize("family", [None, "A3"])
@pytest.mark.parametrize("build", [
    lambda family: WeylElement(family, (1, 2)),
    lambda family: ColorSet(family, [1]),
    lambda family: da.GroupRingElement(family, ()),
    lambda family: da.FaceSum(family, False, ()),
    lambda family: cf.SetComposition(family, ((1,),)),
    lambda family: cf.SymComposition(family, (0,), ()),
    lambda family: tf.make_spin(family, [(1,)], [1]),
    lambda family: tf.SpinNecklace(family, ((1,),), (1,)),
    lambda family: tf.SymNecklace(family, (0,), (), None),
], ids=["WeylElement", "ColorSet", "GroupRingElement", "FaceSum", "SetComposition",
        "SymComposition", "make_spin", "SpinNecklace", "SymNecklace"])
def test_constructors_refuse_a_family_that_is_not_a_family(build, family):
    with pytest.raises(ValidationError, match="is not a Family"):
        build(family)


def test_objects_take_the_first_objects_family_even_when_it_is_none():
    """A sum of family None, built unchecked, is no sum of A3: the check
    compares every object with the first one's family, whatever it is."""
    nowhere = weyl._trusted(da.GroupRingElement, None, ())
    with pytest.raises(FamilyMismatchError):
        da.multiply(nowhere, RING)


VECTOR = SAMPLES["compact sign vector"]

# Each refusal of the public API with the message it raises; an argv list is a CLI
# call, which exits 1 with that message.
REFUSALS = {
    "face sum + necklace sum": (lambda: SUM + da.orbit_sum("sigmat", [1], A3),
                                "a sum of faces and a sum of necklaces do not add"),
    "torus right factor": (lambda: da.face_sum_product(SUM, da.orbit_sum("sigmat", [1], A3)),
                           "the right factor must be a finite face sum"),
    "basis kind": (lambda: da.basis_element("z", [1], A3), "unknown basis kind 'z'"),
    "orbit sum kind": (lambda: da.orbit_sum("tau", [1], A3), "unknown orbit sum kind 'tau'"),
    "SetComposition of C": (lambda: cf.SetComposition(C2, ((-2, -1, 0, 1, 2),)),
                            "SetComposition is a type A object"),
    "SymComposition of A": (lambda: cf.SymComposition(A3, (0,), ()),
                            "SymComposition is a type C object"),
    "SpinNecklace of C": (lambda: tf.SpinNecklace(C2, ((1,),), (1,)),
                          "SpinNecklace is a type A object"),
    "SymNecklace of A": (lambda: tf.SymNecklace(A3, (0,), (), None),
                         "SymNecklace is a type C object"),
    "zero block not its own negation": (lambda: cf.SymComposition(C2, (-1, 0), ((1,), (2,))),
                                        "the central block must equal its own negation"),
    "unsorted block": (lambda: cf.SetComposition(A3, ((2, 1), (3,))),
                       "each block must be nonempty and sorted ascending"),
    "SpinNecklace labels": (lambda: tf.SpinNecklace(A3, ((1, 2, 3),), (3, 3)),
                            "one label per edge required"),
    "make_spin labels": (lambda: tf.make_spin(A3, [(1, 2, 3)], [3, 1]),
                         "need one label per edge"),
    "empty tail": (lambda: tf.SplitNecklace(A3, ((1, 2, 3),), ()),
                   "an empty tail is stored as None"),
    "finite sign": (lambda: cf.FiniteSignVector(A3, ("x",) * 3), "signs must be in {-,0,+}"),
    "finite sign count": (lambda: cf.FiniteSignVector(A3, ("+",) * 2),
                          "wrong number of sign entries"),
    "compact entry count": (lambda: ao.CompactSignVector(3, ((0, "+"),)),
                            "one entry per pair i<j required"),
    "compact sign": (lambda: ao.CompactSignVector(2, ((0, "-"),)), "signs must be '0' or '+'"),
    "translate rank": (lambda: ao.translate(VECTOR, ao.CorootVector((1, -1))), "rank mismatch"),
    "oracle_act family": (lambda: ao.oracle_act(VECTOR, cf.unit_face(A4)),
                          "rank/family mismatch"),
    "necklace wire non-object": (lambda: tf.from_wire(A3, [1]),
                                 "necklace wire form must be an object"),
    "group by colour": (["enumerate", "--family", "A", "--rank", "3", "--object", "group",
                         "--color", "[1]"], "--color applies to faces and torus objects"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=list(REFUSALS))
def test_each_refusal_raises_its_own_error(capsys, call, message):
    if isinstance(call, list):
        assert main(call) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and message in err
        return
    with pytest.raises(SteintorusError, match=re.escape(message)):
        call()
