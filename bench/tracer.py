"""Spans around the calls into each qball layer, recorded from outside.

The package imports functions by name (``from .families import tags_of``
in classifier and embedsearch, ``from .contfrac import hj_eval`` in
chainstring, ...), so wrapping a function in its defining module alone
would let most calls escape.  ``Tracer.install`` rebinds the wrapper
under every name in every loaded qball module that refers to the
original, and ``BindingCheck`` confirms from the interpreter's profile
hook that no call reached an original function around the wrapper.

Spans are aggregated by function as they close: a bundle pass makes
over a hundred thousand nested calls, too many to keep one record each.
Self time is a span's duration minus the time covered by its traced
children, which the stack of open spans tracks.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# layer -> traced functions (the per-layer metrics name them layer.function)
TRACED = {
    "cli": ("run",),
    "embedsearch": ("find_embedding", "verify_classification"),
    "families": ("member", "tags_of"),
    "classifier": ("classify_surgery", "normalize_monodromy", "classify_torus_bundle"),
    "chainstring": ("canonical_form", "cyclic_dual", "linear_dual"),
    "contfrac": ("hj_eval", "homology_order"),
    "lattice": ("classify_subset",),
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.raised: Counter = Counter()
        self.nodes = 0
        self.outcomes: Counter = Counter()
        self.zero_node_searches = 0
        self.member_keys: set = set()
        self.originals: dict = {}  # qualified name -> original function
        self._stack = [0.0]  # child time of each open span

    # -- installation ------------------------------------------------------

    def install(self) -> int:
        """Wrap every traced function at every binding; returns the count
        of rebound names."""
        layers = {layer: importlib.import_module(f"qball.{layer}") for layer in TRACED}
        modules = [m for name, m in list(sys.modules.items()) if name == "qball" or name.startswith("qball.")]
        rebound = 0
        for layer, names in TRACED.items():
            module = layers[layer]
            for fname in names:
                qualified = f"{layer}.{fname}"
                original = getattr(module, fname)
                self.originals[qualified] = original
                wrapper = self._wrap(qualified, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            rebound += 1
        return rebound

    def _observe(self, name, args, kwargs, result):
        if name == "embedsearch.find_embedding":
            self.nodes += result.nodes
            self.outcomes[result.outcome] += 1
            if result.nodes == 0:
                self.zero_node_searches += 1
        elif name == "families.member":
            mode = args[1] if len(args) > 1 else kwargs.get("mode", "strict")
            self.member_keys.add((tuple(args[0]), mode))

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        observe = self._observe if name in ("embedsearch.find_embedding", "families.member") else None

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                dt = clock() - t0
                children = stack.pop()
                stack[-1] += dt
                calls[name] += 1
                total_s[name] += dt
                self_s[name] += dt - children
            if observe is not None:
                observe(name, args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------------

    def counts(self) -> dict:
        """Every exact count; two runs on the same inputs must agree."""
        out = {f"{name}.calls": n for name, n in sorted(self.calls.items())}
        out.update({f"{name}.raised": n for name, n in sorted(self.raised.items())})
        out.update({f"outcome.{k}": n for k, n in sorted(self.outcomes.items())})
        out["embedsearch.nodes"] = self.nodes
        out["embedsearch.zero_node_searches"] = self.zero_node_searches
        out["families.member.distinct"] = len(self.distinct_member_keys())
        return out

    def distinct_member_keys(self) -> set:
        canonical = self.originals["chainstring.canonical_form"]
        return {(canonical(a), mode) for a, mode in self.member_keys}

    def to_json(self) -> dict:
        return {
            "counts": self.counts(),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
        }


class BindingCheck:
    """Counts calls of the original functions' code objects through the
    profile hook, which sees every call however the function was reached."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.codes = {fn.__code__: name for name, fn in tracer.originals.items()}
        self.seen: Counter = Counter()
        self._before: Counter = Counter()

    def _hook(self, frame, event, arg):
        if event == "call":
            name = self.codes.get(frame.f_code)
            if name is not None:
                self.seen[name] += 1

    def __enter__(self):
        self._before = Counter(self.tracer.calls)
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False

    def escapes(self) -> dict:
        """name -> calls the profile hook saw that the wrappers did not."""
        wrapped = self.tracer.calls - self._before
        out = {}
        for name in self.tracer.originals:
            missed = self.seen[name] - wrapped[name]
            if missed:
                out[name] = missed
        return out
