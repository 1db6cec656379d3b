"""In-memory spans and counters around ikdeg's layers, for the traced run.

`Tracer.install()` wraps the public functions of each ikdeg module in
spans (name, start, end, parent) and the element operators of `FieldElt`,
`CycInt` and `PadicElt` in counters only. Each wrapper is rebound in every
ikdeg module namespace, and every module-level dict, that held the
original, so `charsum.lower_conductor` is traced as well as
`cyclo.lower_conductor`. Nothing inside ikdeg is edited.

The child writes its spans and counters with `Tracer.dump()`; the parent
turns them into per-layer metrics with `self_times()` and `summarize()`.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from array import array

LAYERS = ("ff", "cyclo", "kernels", "charsum", "galois", "padic", "suites", "cli")

# Functions wrapped in spans, by module. Memoised helpers that run on every
# canonicalisation or primality test (cyclotomic_poly, euler_phi, is_prime)
# are left out: a span there would cost more than the work it measures.
SPANNED = {
    "ff": ("get_field",),
    "cyclo": ("lower_conductor", "embed_complex", "galois_apply", "change_conductor"),
    "kernels": ("linear_convolve", "cyclic_convolve"),
    "charsum": (
        "additive_char",
        "mult_char",
        "gauss_sum",
        "kloosterman_brute",
        "inverted_kloosterman_brute",
        "_character_terms",
        "ik_formula_scaled",
        "scaled_ik_at_p",
        "s1_identity_check",
        "bounds_check",
    ),
    "galois": ("conjugate_set", "degree_of", "min_poly", "equivariance_check", "ik_degree"),
    "padic": (
        "teichmuller",
        "zeta_p_padic",
        "_embed_table",
        "embed_cyclotomic",
        "stickelberger_check",
        "valuation_formulas",
        "_embedded_scaled_ik",
        "case_analysis",
        "run_case_analysis",
    ),
    "suites": (
        "identity_suite",
        "degree_suite",
        "divisibility_suite",
        "bounds_suite",
        "stickelberger_suite",
        "cases_suite",
        "run_all",
    ),
    "cli": ("census_record", "cmd_verify", "cmd_census", "cmd_sum"),
}

# Element operators: counted, never spanned.
COUNTED = {
    ("ff", "FieldElt"): (
        "__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__",
        "__truediv__", "__pow__", "inverse",
    ),
    ("cyclo", "CycInt"): (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__rmul__", "__pow__", "shifted", "canonical",
    ),
    ("padic", "PadicElt"): (
        "__init__", "__add__", "__radd__", "__sub__", "__neg__", "__mul__",
        "__rmul__", "__pow__",
    ),
}

# lru_cache objects whose cache_info() the summary reports.
CACHES = (
    ("ff", "get_field"),
    ("padic", "teichmuller"),
    ("padic", "zeta_p_padic"),
    ("padic", "_embedded_scaled_ik"),
)

SPAN_FIELDS = (("names", "i"), ("parents", "q"), ("starts", "d"), ("ends", "d"))


class Tracer:
    """Span and counter store for one traced process."""

    def __init__(self):
        self.span_names: list[str] = []  # span-name table; spans store indices
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._counters: dict[str, itertools.count] = {}
        self._originals: dict = {}
        self.kernel_lengths: dict[str, dict[int, int]] = {}
        self.kernel_bits: dict[str, dict[int, int]] = {}
        self.kernel_coeffs_in = 0
        self.ik_keys: set = set()
        self.brute_tuples = 0

    # -- wrappers -------------------------------------------------------

    def span(self, name, fn, before=None):
        """`fn` wrapped in a span called `name`; `before(*args)` runs first,
        outside the span, so its cost lands in the caller's self time."""
        name_id = len(self.span_names)
        self.span_names.append(name)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def counted(self, name, fn):
        counter = self._counters.setdefault(name, itertools.count())
        tick = counter.__next__

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def counts(self) -> dict[str, int]:
        # itertools.count() returns how many values it has handed out
        return {name: next(c) for name, c in sorted(self._counters.items())}

    # -- hooks ------------------------------------------------------------

    def _kernel_hook(self, kind):
        lengths = self.kernel_lengths.setdefault(kind, {})
        bits = self.kernel_bits.setdefault(kind, {})

        def hook(a, b, force=None):
            size = max(len(a), len(b))
            lengths[size] = lengths.get(size, 0) + 1
            top = max(max(a, default=0), -min(a, default=0), max(b, default=0), -min(b, default=0))
            nbits = top.bit_length()
            bits[nbits] = bits.get(nbits, 0) + 1
            self.kernel_coeffs_in += len(a) + len(b)

        return hook

    def _ik_hook(self, F, n, b):
        self.ik_keys.add((F.p, F.k, n, F.elt(b).coeffs))

    def _brute_hook(self, F, n, b, budget=None):
        self.brute_tuples += max(F.q - 1, 1) ** n

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap ikdeg's layers; call after `import ikdeg.cli`."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "ikdeg" or name.startswith("ikdeg."))
        }
        if "ikdeg.cli" not in modules:
            raise RuntimeError("import ikdeg.cli before installing the tracer")
        hooks = {
            "kernels.linear_convolve": self._kernel_hook("linear"),
            "kernels.cyclic_convolve": self._kernel_hook("cyclic"),
            "charsum.ik_formula_scaled": self._ik_hook,
            "charsum.inverted_kloosterman_brute": self._brute_hook,
            "charsum.kloosterman_brute": self._brute_hook,
        }
        replace = {}
        for layer, funcs in SPANNED.items():
            mod = modules[f"ikdeg.{layer}"]
            for fname in funcs:
                name = f"{layer}.{fname}"
                orig = getattr(mod, fname)
                self._originals[name] = orig
                replace[id(orig)] = (orig, self.span(name, orig, hooks.get(name)))
        for mod in modules.values():
            _rebind(vars(mod), replace)
        ff = modules["ikdeg.ff"]
        ff.Field.__init__ = self.span("ff.Field", ff.Field.__init__)
        for (layer, cls_name), ops in COUNTED.items():
            cls = getattr(modules[f"ikdeg.{layer}"], cls_name)
            for op in ops:
                setattr(cls, op, self.counted(f"{cls_name}.{op}", vars(cls)[op]))
        return self

    def cache_info(self) -> dict[str, dict[str, int]]:
        out = {}
        for layer, fname in CACHES:
            info = self._originals[f"{layer}.{fname}"].cache_info()
            out[f"{layer}.{fname}"] = {"hits": info.hits, "misses": info.misses}
        return out

    # -- output -----------------------------------------------------------

    def dump(self, meta_path, spans_path, extra=None):
        """Write counters and tables as JSON, spans as packed arrays."""
        meta = {
            "span_names": self.span_names,
            "n_spans": len(self.names),
            "counts": self.counts(),
            "caches": self.cache_info(),
            "kernel_lengths": self.kernel_lengths,
            "kernel_bits": self.kernel_bits,
            "kernel_coeffs_in": self.kernel_coeffs_in,
            "ik_distinct": len(self.ik_keys),
            "brute_tuples": self.brute_tuples,
        }
        meta.update(extra or {})
        with open(spans_path, "wb") as fh:
            for field, _code in SPAN_FIELDS:
                getattr(self, field).tofile(fh)
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def _rebind(namespace, replace, nested=True):
    """Swap wrapped originals in a module namespace and, one level down, in
    its dicts (suites.SUITES holds the suite functions themselves)."""
    for key, value in list(namespace.items()):
        hit = replace.get(id(value))
        if hit is not None and hit[0] is value:
            namespace[key] = hit[1]
        elif nested and isinstance(value, dict) and not key.startswith("__"):
            _rebind(value, replace, nested=False)


def load_spans(meta, spans_path):
    """Read the arrays `Tracer.dump` wrote; returns (names, parents, starts, ends)."""
    n = meta["n_spans"]
    out = []
    with open(spans_path, "rb") as fh:
        for _field, code in SPAN_FIELDS:
            arr = array(code)
            arr.fromfile(fh, n)
            out.append(arr)
    return tuple(out)


def self_times(parents, starts, ends):
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover (overlapping children are counted once)."""
    n = len(starts)
    children: dict[int, list[int]] = {}
    for i in range(n):
        children.setdefault(parents[i], []).append(i)
    out = []
    for i in range(n):
        lo, hi = starts[i], ends[i]
        covered = 0.0
        reach = lo
        for c in sorted(children.get(i, ()), key=starts.__getitem__):
            a, b = max(starts[c], reach), min(ends[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def inclusive_times(names, parents, starts, ends):
    """Wall time per span name, counting a span nested inside a span of the
    same name only once."""
    totals: dict[int, float] = {}
    for i in range(len(names)):
        name = names[i]
        j = parents[i]
        while j >= 0 and names[j] != name:
            j = parents[j]
        if j < 0:
            totals[name] = totals.get(name, 0.0) + (ends[i] - starts[i])
    return totals
