"""Outside-in layer tracing for closurelab.

The package is not modified.  ``Tracer.install`` replaces public callables
with timing wrappers: module functions in every ``closurelab`` module
namespace that holds them (``normal_form`` is imported into several
modules), and methods in their class dictionaries.  ``Tracer.uninstall``
puts every original back; ``snapshot``/``changed_since`` prove that the
restored namespaces are ``is``-identical to the ones before installation.

Two kinds of wrapper share one stack of open frames, so that every frame's
self time is its duration minus the time of the frames opened inside it:

- layer entry points record a span (name, start, end, parent span, op id);
- per-element methods (coefficient arithmetic, order keys, ``Poly``
  construction) only add to an aggregate of calls and self time, because
  they run millions of times per op.
"""

from __future__ import annotations

import functools
import sys
import time
import types

PACKAGE = "closurelab"
_clock = time.perf_counter


def _terms_in(args, result):
    return len(args[0].terms)


def _is_zero_remainder(args, result):
    rem = result[0] if isinstance(result, tuple) else result
    return 1 if rem.is_zero() else 0


def _basis_size(args, result):
    return len(result)


def _term_products(args, result):
    self, other = args[0], args[1]
    terms = getattr(other, "terms", None)
    return len(self.terms) * (len(terms) if isinstance(terms, tuple) else 1)


# (layer name, module, owner class or None, attribute names, kind, extras)
# kind "span" records spans; "agg" aggregates.  extras map a counter name to
# a function of (args, result) whose value is summed per layer.
LAYERS = (
    ("coefficients.cyclo_mul", "coefficients", "CycloNum", ("__mul__", "__rmul__"), "agg", {}),
    ("coefficients.cyclo_add", "coefficients", "CycloNum", ("__add__", "__radd__"), "agg", {}),
    ("coefficients.cyclo_inv", "coefficients", "CycloNum", ("inverse",), "agg", {}),
    ("coefficients.fp_mul", "coefficients", "PrimeFieldElem", ("__mul__", "__rmul__"), "agg", {}),
    ("coefficients.zpn_mul", "coefficients", "TruncatedPadic", ("__mul__", "__rmul__"), "agg", {}),
    ("polynomials.order_key", "polynomials", "WeightedGrevlex", ("key",), "agg", {}),
    ("polynomials.order_key", "polynomials", "BlockElimination", ("key",), "agg", {}),
    ("polynomials.construct", "polynomials", "Poly", ("__init__",), "agg", {}),
    ("polynomials.mul", "polynomials", "Poly", ("__mul__", "__rmul__"), "agg",
     {"term_products": _term_products}),
    ("polynomials.substitute", "polynomials", "Poly", ("substitute",), "agg", {}),
    ("padic.canon", "padic", "TruncatedModel", ("canon",), "agg", {}),
    ("groebner.normal_form", "groebner", None, ("normal_form",), "span",
     {"input_terms": _terms_in, "zero": _is_zero_remainder}),
    ("groebner.buchberger", "groebner", None, ("groebner",), "span", {"basis_size": _basis_size}),
    ("groebner.colon", "groebner", None, ("colon",), "span", {}),
    ("groebner.membership", "groebner", None, ("membership_with_basis",), "span", {}),
    ("groebner.cert_verify", "groebner", "MembershipCertificate", ("verify",), "span", {}),
    ("tower.colon_probe", "tower", None, ("colon_probe",), "span", {}),
    ("tower.embed", "tower", None, ("embed",), "span", {}),
    ("charp.find_multiplier", "charp", None, ("find_multiplier",), "span", {}),
    ("charp.tight_closure_witness", "charp", None, ("tight_closure_witness",), "span", {}),
    ("padic.successive_approx", "padic", None, ("successive_approx",), "span", {}),
    ("padic.verify_trace", "padic", None, ("verify_trace",), "span", {}),
    ("reports.serialize", "reports", "ExperimentReport", ("to_json", "fingerprint"), "span", {}),
    ("cli.main", "cli", None, ("main",), "span", {}),
)

# lru_cache'd builders whose cache_info() is read after a traced op
CACHES = {
    "tower.cache": ("tower", ("build_level", "variable_images", "relation_basis", "xy_image_basis")),
    "charp.bracket_cache": ("charp", ("_bracket_basis",)),
}


def package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if (name == PACKAGE or name.startswith(PACKAGE + ".")) and isinstance(mod, types.ModuleType)
    ]


def snapshot() -> dict:
    """Every binding in the package's module and class namespaces."""
    out = {}
    for mod in package_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    out[(mod.__name__, attr, cattr)] = cvalue
    return out


_MISSING = object()


def changed_since(before: dict) -> list:
    """Bindings of the snapshot that are gone or not ``is``-identical now."""
    after = snapshot()
    return sorted(".".join(k) for k, v in before.items() if after.get(k, _MISSING) is not v)


class Tracer:
    """Owns the open-frame stack, the recorded spans and the aggregates."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.stack = []  # open frames: [child_seconds, span_id]
        self.spans = []  # (span_id, name, start, end, parent_id, op_id)
        # layer -> {"calls": n, "self_s": s, extra: n}; a layer whose
        # callables are gone from the package reads 0 and is named in
        # ``unbound``
        self.totals = {}
        for name, _, _, _, _, extras in LAYERS:
            self.totals.setdefault(name, {"calls": 0, "self_s": 0.0, **{k: 0 for k in extras}})
        self.unbound = []
        self._patches = []  # (module or class, attribute, original)
        self._next_id = 1

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, kind, extras):
        stack, spans, clock = self.stack, self.spans, _clock
        totals = self.totals[name]
        extra_items = tuple(extras.items())
        tracer = self

        if kind == "agg":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = [0.0, stack[-1][1] if stack else 0]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    if stack:
                        stack[-1][0] += dur
                    totals["calls"] += 1
                    totals["self_s"] += dur - frame[0]
                for key, fx in extra_items:
                    totals[key] += fx(args, result)
                return result

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1] if stack else 0
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                totals["calls"] += 1
                totals["self_s"] += dur - frame[0]
                spans.append((span_id, name, t0, t1, parent, tracer.op_id))
            for key, fx in extra_items:
                totals[key] += fx(args, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        modules = package_modules()
        for name, modname, owner, attrs, kind, extras in LAYERS:
            home = sys.modules.get(f"{PACKAGE}.{modname}")
            for attr in attrs:
                if owner is not None:
                    cls = getattr(home, owner, None)
                    original = vars(cls).get(attr) if isinstance(cls, type) else None
                    if original is None:
                        self.unbound.append(f"{modname}.{owner}.{attr}")
                        continue
                    self._patch(cls, attr, original, self._wrap(name, original, kind, extras))
                    continue
                original = getattr(home, attr, None)
                if original is None:
                    self.unbound.append(f"{modname}.{attr}")
                    continue
                wrapper = self._wrap(name, original, kind, extras)
                for mod in modules:
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, binding, original, wrapper)

    def _patch(self, target, attr, original, wrapper):
        self._patches.append((target, attr, original))
        setattr(target, attr, wrapper)

    def uninstall(self):
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- results -----------------------------------------------------------

    @staticmethod
    def cache_stats() -> dict:
        """Summed cache_info() hits and misses of each cache group, for the
        lookups made so far in this process."""
        out = {}
        for group, (modname, names) in CACHES.items():
            mod = sys.modules[f"{PACKAGE}.{modname}"]
            hits = misses = 0
            for fn_name in names:
                info = getattr(mod, fn_name).cache_info()
                hits += info.hits
                misses += info.misses
            out[group] = {"hits": hits, "misses": misses}
        return out
