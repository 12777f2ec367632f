"""Per-layer tracing of steintorus from outside the program.

`install` replaces each public function of the layer modules with a wrapper
that records a span, everywhere the program holds a reference to it by name
(for example `descent_algebra` keeps its own `enumerate_group`).  Dataclasses
that validate in `__post_init__` are counted there.  Nothing in the program
is edited on disk.

Layers are the modules: weyl (L0), coxfaces (L1), torusfaces (L2),
descent_algebra (L3) and cli (L4).  The cli layer also owns the wire
boundary (`from_wire`, `to_wire` of both face modules) and the `budget`
module.  `affine_oracle` is a redundant cross-check and gets no layer.

A layer's self time is the time inside its spans minus the time covered by
their child spans.  A generator function is one span whose busy time is the
sum of its resumptions, so work done by its consumer between items is not
charged to it.  Spans are kept in memory, up to a cap, and written out by
`write`.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import time

_MODULES = ("weyl", "coxfaces", "torusfaces", "descent_algebra", "cli", "budget")
_WIRE = ("from_wire", "to_wire")
_ENUMERATORS = ("coxfaces.enumerate_faces", "torusfaces.enumerate_torus_faces")
_COLOR_SET = ("coxfaces.color_set", "torusfaces.color_set")


class Tracer:
    def __init__(self, max_spans=100_000):
        self.max_spans = max_spans
        self.stack = []  # open frames: [span id, child seconds, color_set calls]
        self.stats = {}  # key -> [calls, busy seconds, self seconds]
        self.layer_of = {}  # key -> layer
        self.counts = {}  # extra counters, e.g. "coxfaces.objects"
        self.table_families = set()
        self.spans = []
        self.dropped = 0
        self._ids = itertools.count(1)

    # -- recording -------------------------------------------------------

    def _stat(self, key, layer):
        self.layer_of[key] = layer
        return self.stats.setdefault(key, [0, 0.0, 0.0])

    def _count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _record(self, sid, parent, key, t0, t1):
        if len(self.spans) < self.max_spans:
            self.spans.append((sid, parent, key, t0, t1))
        else:
            self.dropped += 1

    def wrap(self, key, layer, fn, before=None, after=None):
        """A wrapper recording one span per call of `fn`."""
        stat = self._stat(key, layer)
        stack, ids, clock = self.stack, self._ids, time.perf_counter
        is_color_set = key in _COLOR_SET

        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(key, fn, stat)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [next(ids), 0.0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                parent = 0
                if stack:
                    parent = stack[-1][0]
                    stack[-1][1] += dur
                    if is_color_set:
                        stack[-1][2] += 1
                self._record(frame[0], parent, key, t0, t1)
                if after is not None:
                    after(args, dur)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, key, fn, stat):
        stack, ids, clock = self.stack, self._ids, time.perf_counter
        count = self._count

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1][0] if stack else 0
            busy = 0.0
            start = end = None
            yielded = walked = 0
            try:
                while True:
                    frame = [sid, 0.0, 0]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        t1 = clock()
                        stack.pop()
                        dur = t1 - t0
                        busy += dur
                        stat[2] += dur - frame[1]
                        walked += frame[2]
                        if stack:
                            stack[-1][1] += dur
                        start = t0 if start is None else start
                        end = t1
                    yielded += 1
                    yield item
            finally:
                inner.close()
                stat[0] += 1
                stat[1] += busy
                if start is not None:
                    self._record(sid, parent, key, start, end)
                if key in _ENUMERATORS:
                    # Without a colour filter every walked face is yielded.
                    count(key + ".yielded", yielded)
                    count(key + ".walked", walked if walked else yielded)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer module of steintorus, and
        rebind every reference to them in the imported package."""
        mods = {name: importlib.import_module("steintorus." + name) for name in _MODULES}
        replace = {}
        hooks = {
            "descent_algebra.multiply": (self._multiply_pairs, self._table_build),
            "descent_algebra.face_sum_product": (self._face_sum_pairs, None),
        }
        for modname, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    layer = "cli" if name in _WIRE or modname == "budget" else modname
                    key = f"{modname}.{name}"
                    replace[obj] = self.wrap(key, layer, obj, *hooks.get(key, (None, None)))
                elif inspect.isclass(obj):
                    self._patch_class(modname, obj)
        for modname in sorted(m for m in sys.modules if m.split(".")[0] == "steintorus"):
            mod = sys.modules[modname]
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    setattr(mod, name, replace[obj])

    def _patch_class(self, modname, cls):
        if "__post_init__" in vars(cls):
            original = cls.__post_init__
            counter = modname + ".objects"
            count = self._count

            def post_init(obj):
                count(counter)
                return original(obj)

            cls.__post_init__ = post_init
        for name, attr in list(vars(cls).items()):
            if isinstance(attr, staticmethod) and not name.startswith("_"):
                key = f"{modname}.{cls.__name__}.{name}"
                setattr(cls, name, staticmethod(self.wrap(key, modname, attr.__func__)))

    def _multiply_pairs(self, args):
        a, b = args[0], args[1]
        self._count("descent_algebra.multiply.pairs", len(a.coeffs) * len(b.coeffs))

    def _table_build(self, args, dur):
        # The first product in a family builds the |W|^2 table.
        family = args[0].family
        if family not in self.table_families:
            self.table_families.add(family)
            self._count("descent_algebra.table_build_s", dur)

    def _face_sum_pairs(self, args):
        s, t = args[0], args[1]
        self._count("descent_algebra.face_sum_product.pairs", len(s.coeffs) * len(t.coeffs))

    # -- results ---------------------------------------------------------

    def snapshot(self):
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "layer_of": dict(self.layer_of),
            "counts": dict(self.counts),
        }

    def write(self, path, snapshot, metrics):
        with open(path, "w") as fh:
            json.dump(
                {
                    "metrics": metrics,
                    "stats": snapshot["stats"],
                    "counts": snapshot["counts"],
                    "span_fields": ["id", "parent", "name", "start_s", "end_s"],
                    "spans": self.spans,
                    "spans_dropped": self.dropped,
                },
                fh,
            )


def layer_metrics(snap):
    """The per-layer metrics of a tracer snapshot, as name -> (value, unit).

    A time per call is 0 for a function that was not called, and a kept
    ratio is 0 for an enumerator that did not run.
    """
    stats, layer_of, counts = snap["stats"], snap["layer_of"], snap["counts"]

    def calls(*keys):
        return sum(stats.get(k, (0, 0, 0))[0] for k in keys)

    def busy(*keys):
        return sum(stats.get(k, (0, 0, 0))[1] for k in keys)

    def us_per_call(*keys):
        n = calls(*keys)
        return busy(*keys) / n * 1e6 if n else 0.0

    def layer(name, field):
        return sum(v[field] for k, v in stats.items() if layer_of[k] == name)

    def kept_ratio(key):
        walked = counts.get(key + ".walked", 0)
        return counts.get(key + ".yielded", 0) / walked if walked else 0.0

    da = "descent_algebra."
    m = {
        "weyl.calls": (layer("weyl", 0), "count"),
        "weyl.self_s": (layer("weyl", 2), "s"),
        "weyl.enumerate_group.s": (busy("weyl.enumerate_group"), "s"),
        "weyl.objects": (counts.get("weyl.objects", 0), "count"),
        da + "table_build_s": (counts.get(da + "table_build_s", 0.0), "s"),
        da + "multiply.calls": (calls(da + "multiply"), "count"),
        da + "multiply.pairs": (counts.get(da + "multiply.pairs", 0), "count"),
        da + "multiply.us_per_call": (us_per_call(da + "multiply"), "us"),
    }
    for fn in ("basis_element", "express_in_basis", "evaluate_expansion"):
        m[da + fn + ".us_per_call"] = (us_per_call(da + fn), "us")
    m.update({
        da + "face_sum_product.calls": (calls(da + "face_sum_product"), "count"),
        da + "face_sum_product.pairs": (counts.get(da + "face_sum_product.pairs", 0), "count"),
        da + "face_sum_product.us_per_call": (us_per_call(da + "face_sum_product"), "us"),
        da + "psi.us_per_call": (us_per_call(da + "psi"), "us"),
        da + "from_dict_s": (
            busy(da + "GroupRingElement.from_dict", da + "FaceSum.from_dict"), "s"),
        da + "self_s": (layer("descent_algebra", 2), "s"),
        "coxfaces.tits_product.calls": (calls("coxfaces.tits_product"), "count"),
        "coxfaces.tits_product.us_per_call": (us_per_call("coxfaces.tits_product"), "us"),
        "torusfaces.module_action.calls": (calls("torusfaces.module_action"), "count"),
        "torusfaces.module_action.us_per_call": (
            us_per_call("torusfaces.module_action"), "us"),
        "coxfaces.act.calls": (calls("coxfaces.act"), "count"),
        "torusfaces.act.calls": (calls("torusfaces.act"), "count"),
        "coxfaces.objects": (counts.get("coxfaces.objects", 0), "count"),
        "torusfaces.objects": (counts.get("torusfaces.objects", 0), "count"),
        "coxfaces.enumerate_faces.s": (busy("coxfaces.enumerate_faces"), "s"),
        "coxfaces.enumerate_faces.kept_ratio": (
            kept_ratio("coxfaces.enumerate_faces"), "ratio"),
        "torusfaces.enumerate_torus_faces.s": (busy("torusfaces.enumerate_torus_faces"), "s"),
        "torusfaces.enumerate_torus_faces.kept_ratio": (
            kept_ratio("torusfaces.enumerate_torus_faces"), "ratio"),
        "coxfaces.self_s": (layer("coxfaces", 2), "s"),
        "torusfaces.self_s": (layer("torusfaces", 2), "s"),
        "cli.main.us_per_call": (us_per_call("cli.main"), "us"),
        "cli.from_wire.us_per_call": (
            us_per_call("coxfaces.from_wire", "torusfaces.from_wire"), "us"),
        "cli.to_wire.us_per_call": (
            us_per_call("coxfaces.to_wire", "torusfaces.to_wire"), "us"),
        "cli.self_s": (layer("cli", 2), "s"),
    })
    return m
