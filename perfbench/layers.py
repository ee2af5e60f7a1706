"""Per-layer call counts and self time, measured by wrapping hornsing from outside.

A layer is one hornsing module; each entry of `LAYERS` names a group of its
public functions or methods, the ratio of useful outcomes to calls where the
layer can waste work, and the workloads on which the group must run.  The
workloads are the ones whose end-to-end metrics a change to the group should
move; the traced run fails when a named function is missing or when a group
has no call on a workload it drives.

A wrapper's span is the call's wall time; its self time is the span minus the
spans of wrapped calls made inside it, so every second is booked to the
innermost wrapped group.  `Tracer` installs each wrapper in every module it
is given that holds the original under any name, which covers bindings made
by `from .x import y`, and puts the originals back on exit, so untraced
passes time unwrapped code.
"""

import sys
import time
from collections import namedtuple

Layer = namedtuple("Layer", "metric targets drives outcome")

_MPOLY_ARITH = tuple(
    "MPoly." + op
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__pow__", "__neg__")
)
_RATFUN_ARITH = tuple(
    "RatFun." + op
    for op in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__pow__", "__neg__", "inverse",
    )
)


def _nontrivial(g):
    return not g.is_constant()


def _complete(result):
    return result.complete


def _hit(report):
    return report.kind in ("equal", "proportional")


# metric "<module>.<group>", targets as "<Class>.<method>" or "<function>" of
# that module, workloads the group drives, outcome counted as useful
LAYERS = (
    Layer("exact.mpoly_arith", _MPOLY_ARITH, ("curve", "ising"), None),
    Layer("exact.poly_gcd", ("poly_gcd",), ("ising", "guess"), _nontrivial),
    Layer("exact.ratfun_arith", _RATFUN_ARITH, ("ising", "curve"), None),
    Layer("exact.ratfun_substitute", ("RatFun.substitute_ratfun",), ("ising", "curve"), None),
    Layer("exact.resultant", ("resultant",), ("curve",), None),
    Layer("exact.discriminant", ("discriminant",), ("curve",), None),
    Layer("exact.divexact", ("divexact",), ("curve",), None),
    Layer("exact.squarefree_primitive", ("squarefree_primitive",), ("curve",), None),
    Layer("exact.factor_univariate", ("factor_univariate",), ("curve",), _complete),
    Layer("exact.mpoly_eval", ("MPoly.evaluate", "RatFun.evaluate"), ("guess",), None),
    # only the fallback of odeguess._null_vector_exact after 60 primes calls it
    Layer("exact.nullspace", ("nullspace",), (), None),
    Layer(
        "exprio.parse",
        ("parse_expr", "parse_spec_text", "parse_series_text", "parse_operator_text",
         "parse_ode_text", "load_spec", "load_series", "load_operator", "load_ode"),
        ("curve", "ising"),
        None,
    ),
    Layer("exprio.convert", ("expr_to_ratfun", "expr_to_mpoly"), ("curve", "guess", "ising"), None),
    Layer("series.expand", ("expand_from_ratios", "expand_from_formula"), ("guess",), None),
    Layer("series.compat", ("check_compatibility",), ("guess",), None),
    Layer("series.restrict", ("restrict",), ("guess",), None),
    Layer("horn.limit_maps", ("horn_limit_maps",), ("curve",), None),
    Layer("horn.eliminate", ("eliminate",), ("curve",), None),
    Layer("curves.curve_new", ("Curve.__init__",), ("curve", "ising"), None),
    Layer("curves.singular_points", ("affine_singular_points",), ("curve",), None),
    Layer("curves.genus", ("genus_quadratic_fiber",), ("curve", "ising"), None),
    Layer("curves.verify_parametrization", ("verify_parametrization",), ("curve", "ising"), None),
    Layer("curves.substitute_compare", ("substitute_compare",), ("ising",), _hit),
    Layer("theta.log_basis", ("log_basis",), ("guess",), None),
    Layer("theta.convert", ("theta_from_dform", "dform_from_theta"), ("guess",), None),
    Layer("odeguess.guess_ode", ("guess_ode",), ("guess",), None),
    Layer(
        "odeguess.square_order",
        ("exterior_square_order", "symmetric_square_order"),
        ("square",),
        None,
    ),
    Layer("odeguess.singular_points", ("singular_points",), ("guess",), None),
    Layer("odeguess.annihilates_series", ("annihilates_series",), ("guess",), None),
    Layer("ising.kr_wr_report", ("kr_wr_report",), ("ising",), None),
    Layer("ising.elliptic_audit", ("elliptic_audit",), ("ising",), None),
    Layer("ising.chi_catalog", ("chi_catalog",), ("ising",), None),
    Layer("ising.chi_gcd", ("chi_gcd",), ("ising",), None),
)

OUTCOME_NAMES = {
    "exact.poly_gcd": "nontrivial_frac",
    "exact.factor_univariate": "complete_frac",
    "curves.substitute_compare": "hit_frac",
}
MODULES = tuple(dict.fromkeys(layer.metric.split(".")[0] for layer in LAYERS))


class MissingTarget(Exception):
    """A function named in LAYERS does not exist in its module."""


class Tracer:
    """Context manager that wraps every LAYERS target while it is active."""

    def __init__(self, modules):
        self.modules = tuple(modules)
        self.calls = dict.fromkeys((layer.metric for layer in LAYERS), 0)
        self.self_s = dict.fromkeys(self.calls, 0.0)
        self.useful = dict.fromkeys(self.calls, 0)
        self._children = [0.0]
        self._installed = []

    def _wrap(self, fn, metric, outcome):
        calls, self_s, useful, children = self.calls, self.self_s, self.useful, self._children
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                inner = children.pop()
                children[-1] += span
                self_s[metric] += span - inner
                calls[metric] += 1
            if outcome is not None and outcome(result):
                useful[metric] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        try:
            for layer in LAYERS:
                home = sys.modules["hornsing." + layer.metric.split(".")[0]]
                for target in layer.targets:
                    self._install(home, target, layer)
        except BaseException:
            self._restore()
            raise
        return self

    def _install(self, home, target, layer):
        owner_name, _, attr = target.rpartition(".")
        owner = getattr(home, owner_name, None) if owner_name else home
        orig = vars(owner).get(attr) if owner is not None else None
        if orig is None:
            raise MissingTarget("hornsing.%s has no %s" % (home.__name__.split(".")[1], target))
        wrapper = self._wrap(orig, layer.metric, layer.outcome)
        if owner_name:
            holders = [(owner, attr)]
        else:
            holders = [(m, name) for m in self.modules for name, v in vars(m).items() if v is orig]
        for holder, name in holders:
            self._installed.append((holder, name, orig))
            setattr(holder, name, wrapper)

    def _restore(self):
        while self._installed:
            holder, attr, orig = self._installed.pop()
            setattr(holder, attr, orig)

    def __exit__(self, *exc):
        self._restore()
        return False

    def idle_groups(self, workload):
        """Groups that should run on this workload but were never called."""
        return [
            layer.metric
            for layer in LAYERS
            if workload in layer.drives and not self.calls[layer.metric]
        ]

    def metrics(self, passes):
        """Per-pass calls and self time per group and module, plus outcome ratios."""
        out = {}
        for module in MODULES:
            out[module + ".self_s"] = (
                sum(s for m, s in self.self_s.items() if m.startswith(module + ".")) / passes,
                "s",
            )
        for layer in LAYERS:
            m = layer.metric
            out[m + ".calls"] = (self.calls[m] // passes, "count")
            out[m + ".self_s"] = (self.self_s[m] / passes, "s")
            if m in OUTCOME_NAMES:
                frac = self.useful[m] / self.calls[m] if self.calls[m] else 0.0
                out[m + "." + OUTCOME_NAMES[m]] = (frac, "ratio")
        return out
