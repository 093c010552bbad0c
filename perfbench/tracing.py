"""Span recorder for the traced benchmark run.

The library is measured from outside: every public function of the seven
modules (plus the two methods in ``METHODS``) is replaced, in every module
namespace that binds it, by a wrapper that records one span per call.
Nothing under ``src/`` changes, and ``Tracer.uninstall`` puts every
original back.

A span is (function, start, end, parent span, root span).  Spans of one
top-level call share the root.  Spans live in flat arrays; each traced pass
starts from empty, and the last pass's spans are written out after the
timed passes.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from time import perf_counter

LAYERS = ("core", "tableaux", "crystal", "polynomials", "hives", "burge", "cli")
PACKAGE = "flagged_lr"

# Methods traced besides the public functions: polynomial products, and
# tableau validation, whose call count is the number of tableaux built.
METHODS = (
    ("polynomials", "IntPolynomial", "__mul__"),
    ("tableaux", "SkewTableau", "__post_init__"),
)

def _size(result):
    """Length of a returned collection; None for an iterator, which the
    tracer must not consume."""
    return len(result) if hasattr(result, "__len__") else None


# Calls whose return value feeds a per-layer metric: the value kept is the
# returned count, or the length of the returned collection.
RECORD_VALUE = {
    "crystal.coefficient_by_tableaux": int,
    "tableaux.enumerate_tableaux": _size,
    "hives.enumerate_skew_hive_points": _size,
    "hives.enumerate_tri_hive_points": _size,
}


def public_functions(module):
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Records spans for wrapped calls; install/uninstall swap the wrappers in."""

    def __init__(self):
        self.names = []
        self.fn = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self.values = {}
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, func):
        fn_id = len(self.names)
        self.names.append(name)
        keep = RECORD_VALUE.get(name)
        fn, parent, root = self.fn, self.parent, self.root
        start, end, stack, values = self.start, self.end, self._stack, self.values

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sid = len(fn)
            up = stack[-1] if stack else -1
            fn.append(fn_id)
            parent.append(up)
            root.append(sid if up < 0 else root[up])
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if keep is not None and (value := keep(result)) is not None:
                values[sid] = value
            return result

        return wrapper

    def clear(self):
        """Drop recorded spans (the wrappers stay installed)."""
        for arr in (self.fn, self.parent, self.root, self.start, self.end):
            del arr[:]
        self.values.clear()

    # -- installing --------------------------------------------------------

    def install(self, modules):
        """Wrap every public function of each layer module in every module
        of ``modules`` (name -> module) that binds it, plus the methods in
        ``METHODS`` under every class attribute that holds them (so
        ``__rmul__ = __mul__`` is traced too)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for layer in LAYERS:
            for name, func in public_functions(modules[layer]).items():
                wrapped[id(func)] = (func, self._wrap(f"{layer}.{name}", func))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            func = cls.__dict__[method]
            traced = self._wrap(f"{layer}.{cls_name}.{method}", func)
            for name, obj in list(vars(cls).items()):
                if obj is func:
                    self._patches.append((cls, name, func))
                    setattr(cls, name, traced)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- reading -----------------------------------------------------------

    def layer_times(self):
        """Self time and call count per layer, and inclusive time per
        function (outermost call of each function only, so recursion is
        not counted twice)."""
        names = self.names
        layer_of = [n.split(".", 1)[0] for n in names]
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for sid, up in enumerate(self.parent):
            if up >= 0:
                child[up] += dur[sid]
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        inclusive = [0.0] * len(names)
        fn_calls = [0] * len(names)
        fn, parent = self.fn, self.parent
        for sid, f in enumerate(fn):
            layer = layer_of[f]
            self_s[layer] += dur[sid] - child[sid]
            calls[layer] += 1
            fn_calls[f] += 1
            up = parent[sid]
            while up >= 0 and fn[up] != f:
                up = parent[up]
            if up < 0:
                inclusive[f] += dur[sid]
        return {
            "self_s": self_s,
            "calls": calls,
            "fn_s": dict(zip(names, inclusive)),
            "fn_calls": dict(zip(names, fn_calls)),
        }

    def values_under(self, outer, inner):
        """Pairs (value of each ``outer`` span, summed values of the
        ``inner`` spans beneath it)."""
        fn_id = {n: i for i, n in enumerate(self.names)}
        o, i = fn_id[outer], fn_id[inner]
        below = {}
        fn, parent = self.fn, self.parent
        for sid, val in self.values.items():
            if fn[sid] != i:
                continue
            up = parent[sid]
            while up >= 0 and fn[up] != o:
                up = parent[up]
            if up >= 0:
                below[up] = below.get(up, 0) + val
        return [
            (val, below.get(sid, 0))
            for sid, val in self.values.items()
            if fn[sid] == o
        ]

    def write(self, path):
        """One JSON header line with the function names, then one line per
        span: function, start, end, parent, root (times in seconds from the
        first span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "columns": [
                "fn", "start_s", "end_s", "parent", "root"]}) + "\n")
            for sid in range(len(self.fn)):
                fh.write(
                    f"{self.fn[sid]}\t{self.start[sid] - t0:.9f}\t"
                    f"{self.end[sid] - t0:.9f}\t{self.parent[sid]}\t"
                    f"{self.root[sid]}\n"
                )


def layer_metrics(tracer):
    """The per-layer metrics of the spans recorded so far.  A function that
    no longer exists, or was not called, reads 0."""
    lt = tracer.layer_times()
    self_s, fn_s, fn_calls = lt["self_s"], lt["fn_s"], lt["fn_calls"]
    fn_id = {n: i for i, n in enumerate(tracer.names)}

    def total(name):
        f = fn_id.get(name)
        return sum(v for sid, v in tracer.values.items() if tracer.fn[sid] == f)

    pairs = tracer.values_under("crystal.coefficient_by_tableaux",
                                "tableaux.enumerate_tableaux")
    found = sum(c for c, _ in pairs)
    enumerated = sum(e for _, e in pairs)
    return {
        "tableaux.self_s": self_s["tableaux"],
        "tableaux.enumerate_tableaux_s": fn_s.get("tableaux.enumerate_tableaux", 0.0),
        "tableaux.tableaux_built": fn_calls.get("tableaux.SkewTableau.__post_init__", 0),
        "crystal.self_s": self_s["crystal"],
        "crystal.is_dominant_s": fn_s.get("crystal.is_dominant", 0.0),
        "crystal.is_dominant_calls": fn_calls.get("crystal.is_dominant", 0),
        "crystal.yield": found / enumerated if enumerated else 0.0,
        "crystal.decompose_s": fn_s.get("crystal.decompose", 0.0),
        "polynomials.self_s": self_s["polynomials"],
        "polynomials.flagged_skew_schur_s": fn_s.get("polynomials.flagged_skew_schur", 0.0),
        "polynomials.mul_s": fn_s.get("polynomials.IntPolynomial.__mul__", 0.0),
        "polynomials.demazure_Tw_s": fn_s.get("polynomials.demazure_Tw", 0.0),
        "polynomials.expand_in_schur_s": fn_s.get("polynomials.expand_in_schur", 0.0),
        "polynomials.schur_calls": fn_calls.get("polynomials.schur", 0),
        "polynomials.key_polynomial_s": fn_s.get("polynomials.key_polynomial", 0.0),
        "hives.self_s": self_s["hives"],
        "hives.skew_enum_s": fn_s.get("hives.enumerate_skew_hive_points", 0.0),
        "hives.skew_points": total("hives.enumerate_skew_hive_points"),
        "hives.tri_enum_s": fn_s.get("hives.enumerate_tri_hive_points", 0.0),
        "hives.tri_points": total("hives.enumerate_tri_hive_points"),
        "hives.psi_s": fn_s.get("hives.psi", 0.0),
        "burge.self_s": self_s["burge"],
        "burge.left_key_s": fn_s.get("burge.left_key", 0.0),
        "burge.left_key_calls": fn_calls.get("burge.left_key", 0),
        "burge.burge_s": fn_s.get("burge.burge", 0.0),
        "core.self_s": self_s["core"],
        "core.calls": lt["calls"]["core"],
        "cli.self_s": self_s["cli"],
        "route.tableau_s": fn_s.get("crystal.coefficient_by_tableaux", 0.0),
        "route.hive_s": fn_s.get("cli.hive_count", 0.0),
        "route.demazure_s": fn_s.get("polynomials.coefficient_table_by_demazure", 0.0),
    }
