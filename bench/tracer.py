"""In-memory spans around diffalg's public functions, installed by patching.

A span is [name, start, end, parent index, covered], where `covered` is the
time of its direct children: child spans and the aggregated hot methods.
Self time = end - start - covered.  Hot arithmetic methods (DiffPoly.__mul__,
derive, coeffs_in, render) are aggregated as call counts and total time
instead of one span per call.  Functions are replaced in every diffalg
namespace that holds them, since engine, reduction and cli import tdet,
ritt_divide, render and friends by name.
"""

from __future__ import annotations

import json
import math
import sys
from time import perf_counter

SPANS = {
    "textio": ("parse_system",),
    "reduction": ("ritt_divide", "autoreduce_loop"),
    "tropical": (
        "tdet",
        "tdet_brute",
        "tdet_assignment",
        "to_first_form",
        "to_second_form",
        "detect_first_form",
        "detect_second_form",
        "detect_third_form",
        "order_matrix",
    ),
    "matching": ("hall_matching",),
    "pencil": ("build_pencil",),
    "engine": ("linear_reduce", "step_first_form", "step_second_form"),
}

# per-layer metric -> span names whose self times it sums
SELF_TIMES = {
    "textio.parse_s": ("parse_system",),
    "reduction.divide_s": ("ritt_divide",),
    "reduction.verify_s": ("verify",),
    "reduction.autoreduce_s": ("autoreduce_loop",),
    "tropical.tdet_s": ("tdet", "tdet_brute", "tdet_assignment"),
    "tropical.normalize_s": ("to_first_form", "to_second_form"),
    "tropical.detect_s": ("detect_first_form", "detect_second_form", "detect_third_form"),
    "tropical.order_matrix_s": ("order_matrix",),
    "matching.hall_s": ("hall_matching",),
    "pencil.build_s": ("build_pencil",),
    "engine.step_s": ("step_first_form", "step_second_form"),
    "engine.linear_reduce_self_s": ("linear_reduce",),
}

CALLS = {
    "textio.parse_calls": ("parse_system",),
    "reduction.divide_calls": ("ritt_divide",),
    "tropical.tdet_calls": ("tdet_brute", "tdet_assignment"),
    "tropical.normalize_calls": ("to_first_form", "to_second_form"),
    "matching.hall_calls": ("hall_matching",),
    "pencil.build_calls": ("build_pencil",),
    "engine.form_steps": ("step_first_form", "step_second_form"),
}

TOTALS = {
    "diffpoly.mul": "mul",
    "diffpoly.derive": "derive",
    "diffpoly.coeffs_in": "coeffs_in",
    "diffpoly.render": "render",
}


def _bits(c):
    return max(c.numerator.bit_length(), c.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.totals = {}
        self.counts = {
            "reduction.divide_steps": 0,
            "reduction.max_coeff_bits": 0,
            "reduction.max_remainder_terms": 0,
            "reduction.autoreduce_rounds": 0,
            "tropical.tdet_brute_perms": 0,
            "diffpoly.render_chars": 0,
            "engine.peels": 0,
        }
        self.patched = []
        self.agg_depth = 0

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kw):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                end = rec[2] = perf_counter()
                stack.pop()
                if stack:
                    spans[stack[-1]][4] += end - rec[1]
            if after is not None:
                t = perf_counter()
                after(args, result)
                if stack:
                    spans[stack[-1]][4] += perf_counter() - t
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _total(self, name, fn, after=None):
        tot = self.totals.setdefault(name, [0, 0.0])
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kw):
            self.agg_depth += 1
            t = perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                dt = perf_counter() - t
                self.agg_depth -= 1
                tot[0] += 1
                tot[1] += dt
                if not self.agg_depth and stack:
                    spans[stack[-1]][4] += dt
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- result hooks ------------------------------------------------------

    def _after_divide(self, args, cert):
        c = self.counts
        c["reduction.divide_steps"] += len(cert.multipliers)
        coeffs = list(cert.remainder.terms.values()) + list(cert.s.terms.values())
        if coeffs:
            c["reduction.max_coeff_bits"] = max(c["reduction.max_coeff_bits"], max(map(_bits, coeffs)))
        c["reduction.max_remainder_terms"] = max(c["reduction.max_remainder_terms"], len(cert.remainder.terms))

    def _after_autoreduce(self, args, res):
        self.counts["reduction.autoreduce_rounds"] += res.rounds

    def _after_brute(self, args, res):
        self.counts["tropical.tdet_brute_perms"] += math.factorial(len(args[0]))

    def _after_linear_reduce(self, args, res):
        self.counts["engine.peels"] += sum(1 for st in res.trace.steps if st.kind == "peel")

    def _after_render(self, text):
        self.counts["diffpoly.render_chars"] += len(text)

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr, new):
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new):
        for name, mod in list(sys.modules.items()):
            if name == "diffalg" or name.startswith("diffalg."):
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._replace(mod, attr, new)

    def install(self):
        """Wrap the public functions of every imported diffalg module."""
        hooks = {
            "ritt_divide": self._after_divide,
            "autoreduce_loop": self._after_autoreduce,
            "tdet_brute": self._after_brute,
            "linear_reduce": self._after_linear_reduce,
        }
        for modname, names in SPANS.items():
            mod = sys.modules["diffalg." + modname]
            for fname in names:
                original = getattr(mod, fname)
                self._replace_everywhere(original, self._span(fname, original, hooks.get(fname)))
        diffpoly = sys.modules["diffalg.diffpoly"]
        reduction = sys.modules["diffalg.reduction"]
        cert = reduction.DivisionCertificate
        self._replace(cert, "verify", self._span("verify", cert.verify))
        poly = diffpoly.DiffPoly
        mul = self._total("mul", poly.__mul__)
        self._replace(poly, "__mul__", mul)
        self._replace(poly, "__rmul__", mul)
        self._replace(poly, "derive", self._total("derive", poly.derive))
        self._replace(poly, "coeffs_in", self._total("coeffs_in", poly.coeffs_in))
        render = diffpoly.render
        self._replace_everywhere(render, self._total("render", render, self._after_render))

    def restore(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched = []

    # -- results -----------------------------------------------------------

    def summary(self):
        """Counts, self times and totals keyed by span/method name."""
        self_s, calls = {}, {}
        for name, start, end, _, covered in self.spans:
            self_s[name] = self_s.get(name, 0.0) + (end - start - covered)
            calls[name] = calls.get(name, 0) + 1
        return {
            "self_s": self_s,
            "calls": calls,
            "totals": self.totals,
            "counts": self.counts,
            "spans": len(self.spans),
        }

    def dump(self, path):
        """Write the summary and every span [name, start, end, parent]."""
        with open(path, "w") as fh:
            json.dump({"summary": self.summary(), "spans": [s[:4] for s in self.spans]}, fh, separators=(",", ":"))


def layer_metrics(summaries):
    """Merge summaries (one per process) into the per-layer metrics."""
    self_s, calls, totals, counts = {}, {}, {}, {}
    for s in summaries:
        for k, v in s["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in s["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, (n, t) in s["totals"].items():
            a = totals.setdefault(k, [0, 0.0])
            a[0] += n
            a[1] += t
        for k, v in s["counts"].items():
            if k.startswith("reduction.max_"):
                counts[k] = max(counts.get(k, 0), v)
            else:
                counts[k] = counts.get(k, 0) + v
    out = {}
    for metric, names in SELF_TIMES.items():
        out[metric] = sum(self_s.get(n, 0.0) for n in names)
    for metric, names in CALLS.items():
        out[metric] = sum(calls.get(n, 0) for n in names)
    for prefix, name in TOTALS.items():
        n, t = totals.get(name, [0, 0.0])
        out[prefix + "_s"] = t
        if name != "coeffs_in":
            out[prefix + "_calls"] = n
    out.update(counts)
    return out
