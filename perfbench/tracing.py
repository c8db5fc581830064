"""Tracing from outside the program: wrappers patched over the public entry
points of each layer, where the callers look them up, and removed again.

Each wrapped name gets `calls`, inclusive busy seconds `s` (outermost calls
only, so recursion is not counted twice) and `self_s`, its time minus the time
spent in wrapped children.  Work a wrapper does itself (its bookkeeping and the
input probes below) is charged to the pseudo-layer `trace.probe`, so the self
times of all names partition the time spent inside the outermost wrapped call.

Names marked as spans also record `(id, name, start, end, parent id, task id)`
in memory; the hot arithmetic entry points, which run up to about 10^6 times
per workload, keep only their counters.
"""

from __future__ import annotations

import itertools
from time import perf_counter as clock

PROBE = "trace.probe"


class Stat:
    __slots__ = ("calls", "s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {PROBE: Stat()}
        self.spans: list[tuple] = []
        self.task = None
        self._stack: list[list[float]] = []  # child seconds of each open wrapped call
        self._span_stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, fn, name: str, span: bool = False, before=None, after=None):
        """A wrapper of `fn` that books its time under `name`.  `before(args)` and
        `after(args, result)` are probes that run outside the timed window."""
        stat = self.stats.setdefault(name, Stat())
        probe = self.stats[PROBE]
        stack = self._stack
        span_stack = self._span_stack
        spans = self.spans
        ids = self._ids

        def wrapper(*args, **kwargs):
            t_enter = clock()
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            if span:
                sid = next(ids)
                parent = span_stack[-1] if span_stack else None
                span_stack.append(sid)
            stat.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += t1 - t0 - frame[0]
                if not stat.depth:
                    stat.s += t1 - t0
                probe.self_s += t0 - t_enter
                if stack:
                    stack[-1][0] += t1 - t_enter
                if span:
                    span_stack.pop()
                    spans.append((sid, name, t0, t1, parent, self.task))
            if after is not None:
                after(args, result)
            tail = clock() - t1
            probe.self_s += tail
            if stack:
                stack[-1][0] += tail
            return result

        return wrapper


class Patches:
    """Attributes replaced by wrappers, with their originals for restoring."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self.saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        return all(vars(owner)[attr] is original for owner, attr, original in self.saved)


class Probes:
    """Input properties measured at the layer boundaries, and the N matrices
    kept for the oracle."""

    def __init__(self, keep_n=()):
        self.divexact_int = 0
        self.divexact_all = 0
        self.invert_triangular = 0
        self.invert_all = 0
        self.invert_dim_max = 0
        self.n_max_span = 0
        self.n_max_coeff_bits = 0
        self.n_nonzeros = 0
        self.keep_n = set(keep_n)
        self.kept: dict[tuple[int, int, int], list] = {}

    def divexact(self, args) -> None:
        a, b = args
        self.divexact_all += 1
        if (_int_coeffs(a) and _int_coeffs(b)
                and not b.is_zero() and b.coefficient(b.degree) in (1, -1)):
            self.divexact_int += 1

    def invert(self, args) -> None:
        a = args[0]
        n = len(a)
        self.invert_all += 1
        self.invert_dim_max = max(self.invert_dim_max, n)
        upper = all(a[i][j].is_zero() for i in range(n) for j in range(i))
        if upper or all(a[i][j].is_zero() for i in range(n) for j in range(i + 1, n)):
            self.invert_triangular += 1

    def matrix_n(self, args, result) -> None:
        i, mod = args
        for row in result.rows:
            for x in row:
                if x.is_zero():
                    continue
                self.n_nonzeros += 1
                for p in (x.num, x.den):
                    self.n_max_span = max(self.n_max_span, p.span)
                    for _, c in p.items():  # int or Fraction
                        bits = max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                        self.n_max_coeff_bits = max(self.n_max_coeff_bits, bits)
        if (mod.l1, mod.l2) in self.keep_n:
            self.kept[(mod.l1, mod.l2, i)] = result.rows


def _int_coeffs(p) -> bool:
    return all(type(c) is int for _, c in p.items())


def install(tracer: Tracer, probes: Probes, modules) -> Patches:
    """Patch every traced entry point where its callers look it up."""
    qarith, linalg, repmodule, crystal, coxeter, cartan, gkmodel, suites = modules
    patches = Patches()

    def patch(owner, attr, name, span=False, before=None, after=None):
        patches.replace(owner, attr, tracer.wrap(vars(owner)[attr], name, span, before, after))

    lp, rf = qarith.LaurentPoly, qarith.RatFunc
    patch(qarith, "poly_gcd", "qarith.poly_gcd")
    patch(lp, "divexact", "qarith.divexact", before=probes.divexact)
    lp_mul = tracer.wrap(vars(lp)["__mul__"], "qarith.lp_mul")
    patches.replace(lp, "__mul__", lp_mul)
    patches.replace(lp, "__rmul__", lp_mul)
    patch(lp, "__add__", "qarith.lp_add")
    patch(rf, "__mul__", "qarith.rf_mul")
    patch(rf, "__add__", "qarith.rf_add")

    patch(linalg, "invert", "linalg.invert", span=True, before=probes.invert)
    patch(linalg, "mat_mul", "linalg.mat_mul", span=True)
    patch(linalg, "is_identity", "linalg.is_identity", span=True)
    patch(linalg, "nullspace", "linalg.nullspace", span=True)

    patch(repmodule, "matrix_C", "repmodule.matrix_C", span=True)
    patch(repmodule, "matrix_N", "repmodule.matrix_N", span=True, after=probes.matrix_n)
    patch(repmodule, "act_divided", "repmodule.act_divided")
    patch(repmodule, "lusztig_T", "repmodule.lusztig_T", span=True)
    patch(repmodule, "sigma_J", "repmodule.sigma_J", span=True)
    patch(repmodule.ModuleVLambda, "strings", "repmodule.strings", span=True)

    patch(crystal, "enumerate_component", "crystal.enumerate_component", span=True)
    patch(crystal, "e_pow", "crystal.e_pow")
    patch(coxeter, "kernel_parabolic", "coxeter.kernel_parabolic", span=True)
    patch(cartan, "rho_functionals", "cartan.rho_functionals")
    patch(gkmodel, "normal_form", "gkmodel.normal_form")

    patch(suites, "conjecture_task", "suites.conjecture_task", span=True)
    patch(suites, "run_suite", "suites.run_suite", span=True)
    return patches
