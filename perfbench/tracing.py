"""Spans around the public functions of each hz layer, for the traced run.

`Tracer.install` replaces each function listed in LAYERS with a wrapper in
every hz module that holds it (the defining module and each module that
imported it with `from ... import`), and each listed method on its class;
`Tracer.restore` puts the originals back.  A wrapper records one span
(name, start, end, parent span, item id) per call and counts calls that
leave by an exception.  Spans stay in memory until `write_spans`.

Nothing in a run executes concurrently, so no layer ever waits for
another: self time is the whole story and there is no waiting metric.
"""

import functools
import json
import sys
import time
from collections import Counter

# layer -> public names timed; "Class.method" names a method
LAYERS = {
    "sieve": ("ap_count", "check_assumptions", "prefilter", "unit_condition",
              "reverify"),
    "realquad": ("split_prime", "narrowly_principal_split", "unit_order_mod",
                 "make_field", "totally_positive_by_trace",
                 "PrimeIdealData.residue"),
    "asai": ("frobenius_class_quintic", "asai_frobenius_eigenvalues",
             "s5_double_cover_rep", "tensor_induce",
             "FiniteRep2.verify_homomorphism", "FiniteRep2.inverse",
             "AsaiRep.verify_homomorphism"),
    "qexp": ("from_json", "hilbert_domain", "HilbertQExp.__init__",
             "HilbertQExp.__add__", "HilbertQExp.__sub__", "hilbert_deplete",
             "conjugate_ratio_partner", "theta_d", "theta_d_inverse",
             "twist_star", "diagonal_restrict", "eisenstein_hilbert",
             "elliptic_twist"),
    "hecke": ("lvalue_weight2", "e_ord", "isotypic_project",
              "HeckeSpace.coordinates", "stabilize",
              "expansion_from_eigensystem",
              "ordinary_projection_of_derivative"),
    "padic": ("bezout_projector", "hensel_unit_root", "teichmuller"),
    "cli": ("main",),
}
# counted, not timed: a 1 us constructor would mostly measure the wrapper
COUNTED = {"padic": ("PadicNumber.__init__",)}
CLI_COMMANDS = ("sieve", "diag-restrict", "lvalue", "asai")
FUNNEL = ("checked", "excluded", "split_narrow", "unit_condition",
          "frobenius_distinct", "ordinary", "admissible")


def span_name(layer, name):
    """Metric prefix of a wrapped name: a constructor is named after its
    class, PadicNumber's as `PadicNumber.new`."""
    if name == "PadicNumber.__init__":
        return "padic.PadicNumber.new"
    return "%s.%s" % (layer, name.replace(".__init__", ""))


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, item id)
        self.counts = Counter()  # call counts of COUNTED names, funnel
        self.raised = Counter()
        self.item = None
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- install / restore -------------------------------------------------

    def install(self):
        hz_modules = [m for n, m in sorted(sys.modules.items())
                      if n == "hz" or n.startswith("hz.")]
        for layer, names in LAYERS.items():
            for name in names:
                self._patch(hz_modules, layer, name, self._timed)
        for layer, names in COUNTED.items():
            for name in names:
                self._patch(hz_modules, layer, name, self._counted)

    def restore(self):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _patch(self, hz_modules, layer, name, make_wrapper):
        module = sys.modules["hz." + layer]
        if "." in name:
            cls_name, method = name.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[method]
            self._set(owner, method, original,
                      make_wrapper(span_name(layer, name), original))
            return
        original = getattr(module, name)
        wrapper = make_wrapper(span_name(layer, name), original)
        for m in hz_modules:
            for attribute, value in list(vars(m).items()):
                if value is original:
                    self._set(m, attribute, original, wrapper)

    def _set(self, owner, attribute, original, wrapper):
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_return = {"sieve.check_assumptions": self._funnel,
                     "realquad.narrowly_principal_split": self._principal,
                     }.get(name)
        on_raise = {"sieve.check_assumptions": self._excluded}.get(name)
        is_main = name == "cli.main"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if is_main:
                label = "cli.main." + (args[0] if args else kwargs["argv"])[0]
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[label] += 1
                if on_raise is not None:
                    on_raise(exc)
                raise
            finally:
                spans[index] = (label, start, clock(), parent, self.item)
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counts at the sieve and realquad boundaries --------------------------

    def _funnel(self, result):
        self.counts["sieve.funnel.checked"] += 1
        for verdict in FUNNEL[2:]:
            if getattr(result, verdict):
                self.counts["sieve.funnel." + verdict] += 1

    def _excluded(self, exc):
        if isinstance(exc, sys.modules["hz.sieve"].ExcludedPrime):
            self.counts["sieve.funnel.excluded"] += 1

    def _principal(self, result):
        if result.status == "found":
            self.counts["realquad.narrowly_principal_split.found"] += 1

    # -- results -------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """name -> (calls, seconds of span time not covered by child spans).
    Spans are nested and never overlap, so a span's children cover
    exactly the sum of their durations."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for (name, start, end, _, _), child in zip(spans, covered):
        calls, seconds = out.get(name, (0, 0.0))
        out[name] = (calls + 1, seconds + (end - start - child))
    return out


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            prefixes = ([span_name(layer, fn)] if fn != "main" else
                        ["cli.main." + c for c in CLI_COMMANDS])
            for prefix in prefixes:
                names += [(prefix + ".calls", "count"),
                          (prefix + ".self_s", "s")]
    for layer, fns in COUNTED.items():
        names += [(span_name(layer, fn) + ".calls", "count") for fn in fns]
    names += [("sieve.funnel." + f, "count") for f in FUNNEL]
    names += [("sieve.funnel.admissible_per_checked", "ratio"),
              ("realquad.split_prime.per_prime", "ratio"),
              ("realquad.narrowly_principal_split.found_per_call", "ratio")]
    return names


def layer_metrics(tracer, raised_names):
    """The per-layer metrics of one traced phase, every name present (zero
    when a workload never reaches it)."""
    times = self_times(tracer.spans)
    counts = tracer.counts
    values = {}
    for name, _ in metric_names():
        prefix, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = times.get(prefix, (counts.get(prefix, 0),))[0]
        elif kind == "self_s":
            values[name] = times.get(prefix, (0, 0.0))[1]
        elif prefix == "sieve.funnel":
            values[name] = counts.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    checked = counts.get("sieve.funnel.checked", 0)
    values["sieve.funnel.admissible_per_checked"] = ratio(
        counts.get("sieve.funnel.admissible", 0), checked)
    values["realquad.split_prime.per_prime"] = ratio(
        values["realquad.split_prime.calls"], checked)
    values["realquad.narrowly_principal_split.found_per_call"] = ratio(
        counts.get("realquad.narrowly_principal_split.found", 0),
        values["realquad.narrowly_principal_split.calls"])
    for name in raised_names:
        values[name + ".raised"] = tracer.raised.get(name, 0)
    return values
