"""Span tracer for the benchmark, installed from outside the package.

The tracer replaces the public functions and methods of each `hessgeo`
module with wrappers that record a span (name, start, end, parent span, run
id) and aggregate calls, inclusive time and self time per geometry.  Self
time is a span's duration minus the time its direct child spans cover.

Spans of the hot names (jet arithmetic, jet3, prepotential jets, Darboux
evaluations, domain draws, field derivatives) are aggregated but not stored:
a `check sk_flat` makes about a million of them.  Their children's parent
is the nearest stored ancestor.

Darboux evaluations are counted through the `metric` and
`complex_structure` of every `SpecialKahlerStructure`, not through the
private Newton and assembly steps, so that those steps can change freely.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

import numpy as np

HOT = frozenset(
    {
        "jets.ops",
        "expressions.jet3_real",
        "expressions.jet3_complex",
        "cmap.prepotential_jets",
        "cmap.darboux_eval",
        "structures.contains",
        "tensors.derivative",
    }
)

# (module, function) -> span name; patched wherever the module namespace
# or another hessgeo module binds the same function object.
FUNCTIONS = {
    ("expressions", "parse_expression"): "expressions.parse",
    ("tensors", "fd_tensor_derivative"): "tensors.fd",
    ("tensors", "fd_gradient"): "tensors.fd",
    ("tensors", "lie_derivative_metric"): "tensors.ops",
    ("tensors", "lie_derivative_2form"): "tensors.ops",
    ("tensors", "lie_derivative_endomorphism"): "tensors.ops",
    ("tensors", "exterior_derivative_2form"): "tensors.ops",
    ("tensors", "nijenhuis"): "tensors.ops",
    ("tensors", "pullback_metric"): "tensors.ops",
    ("tensors", "pullback_2form"): "tensors.ops",
    ("cones", "dilation_law"): "cones.laws",
    ("cones", "radiant_law"): "cones.laws",
    ("cones", "automorphism_samples"): "cones.automorphism_samples",
    ("rmap", "check_kahler"): "rmap.check_kahler",
    ("rmap", "check_potential_identity"): "rmap.check_potential_identity",
    ("rmap", "check_invariance_psi"): "rmap.check_invariance_psi",
    ("rmap", "check_lemma_xi_items"): "rmap.check_lemma_xi_items",
    ("rmap", "check_conformal_invariance"): "rmap.check_conformal_invariance",
    ("cmap", "build_hyperkahler"): "cmap.frame",
    ("cmap", "check_special_kahler_axioms"): "cmap.check_special_kahler_axioms",
    ("cmap", "check_hyperkahler"): "cmap.check_hyperkahler",
    ("cmap", "check_invariance_psi_hat"): "cmap.check_invariance_psi_hat",
    ("cmap", "check_conformal_hyperkahler"): "cmap.check_conformal_hyperkahler",
    ("cli", "resolve_geometry"): "cli.resolve",
}

# (module, class, method) -> span name
METHODS = {
    ("structures", "Domain", "sample"): "structures.sample",
    ("structures", "HessianStructure", "validate"): "structures.validate",
    ("structures", "SelfsimilarHessianStructure", "validate"): "structures.validate",
    ("cmap", "Prepotential", "jets"): "cmap.prepotential_jets",
    ("report", "VerificationReport", "to_json"): "report.render",
    ("report", "VerificationReport", "to_text"): "report.render",
}

JET_OPS = (
    "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "_compose",
    "_reciprocal", "ln", "exp", "sqrt", "powc",
)


class Tracer:
    """In-memory spans and per-geometry totals for one program process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.geometry = "-"
        self.spans = []
        # geometry -> name -> [calls, inclusive ns, self ns]
        self.totals = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
        self.counters = defaultdict(lambda: defaultdict(int))
        self.darboux_points = defaultdict(set)
        self.missing = []
        self.paused = False
        self._stack = []  # frames [nearest stored span id, child ns]
        self._next_id = 0
        self._patches = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        if self.paused:
            return fn(*args, **kwargs)
        stack = self._stack
        parent = stack[-1] if stack else None
        parent_id = parent[0] if parent else None
        stored = name not in HOT
        if stored:
            span_id = self._next_id
            self._next_id += 1
        else:
            span_id = parent_id
        frame = [span_id, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - start
            total = self.totals[self.geometry][name]
            total[0] += 1
            total[1] += duration
            total[2] += duration - frame[1]
            if parent is not None:
                parent[1] += duration
            if stored:
                self.spans.append(
                    (span_id, name, start, end, parent_id, self.run_id)
                )

    def count(self, name, amount=1):
        if not self.paused:
            self.counters[self.geometry][name] += amount

    @contextlib.contextmanager
    def suspended(self):
        """Calls made inside run untraced and leave no count behind."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def dump(self):
        return {
            "totals": {g: dict(t) for g, t in self.totals.items()},
            "counters": {g: dict(c) for g, c in self.counters.items()},
            "darboux_distinct": {g: len(s) for g, s in self.darboux_points.items()},
            "spans": self.spans,
            "missing": self.missing,
        }

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return traced

    def install(self):
        """Patch every loaded hessgeo module; `uninstall` undoes it."""
        modules = {
            name.rsplit(".", 1)[-1]: module
            for name, module in list(sys.modules.items())
            if name.startswith("hessgeo.") and module is not None
        }
        namespaces = [m for m in sys.modules.values() if _is_hessgeo(m)]
        for (mod, func), name in FUNCTIONS.items():
            original = getattr(modules.get(mod), func, None)
            if original is None:
                self.missing.append(f"{mod}.{func}")
                continue
            wrapper = self._wrap(name, original)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        self._set(namespace, attr, wrapper)
        for (mod, cls, meth), name in METHODS.items():
            klass = getattr(modules.get(mod), cls, None)
            if klass is None or meth not in vars(klass):
                self.missing.append(f"{mod}.{cls}.{meth}")
                continue
            self._set(klass, meth, self._wrap(name, vars(klass)[meth]))
        self._install_special(modules)

    def _install_special(self, modules):
        jet = getattr(modules.get("jets"), "Jet", None)
        for op in JET_OPS:
            if jet is not None and op in vars(jet):
                self._set(jet, op, self._wrap("jets.ops", vars(jet)[op]))
            else:
                self.missing.append(f"jets.Jet.{op}")
        self._install_jet3(modules)
        self._install_contains(modules)
        self._install_derivatives(modules)
        self._install_suites(modules)
        self._install_darboux(modules)

    def _install_jet3(self, modules):
        klass = getattr(modules.get("expressions"), "ScalarExpression", None)
        if klass is None or "jet3" not in vars(klass):
            self.missing.append("expressions.ScalarExpression.jet3")
            return
        original = vars(klass)["jet3"]
        tracer = self

        @functools.wraps(original)
        def jet3(expr, *args, **kwargs):
            name = "expressions.jet3_real" if expr.real else "expressions.jet3_complex"
            return tracer.call(name, original, (expr,) + args, kwargs)

        self._set(klass, "jet3", jet3)

    def _install_contains(self, modules):
        klass = getattr(modules.get("structures"), "Domain", None)
        if klass is None or "contains" not in vars(klass):
            self.missing.append("structures.Domain.contains")
            return
        original = vars(klass)["contains"]
        tracer = self

        @functools.wraps(original)
        def contains(*args, **kwargs):
            inside = tracer.call("structures.contains", original, args, kwargs)
            if inside:
                tracer.count("structures.contains.accepted")
            return inside

        self._set(klass, "contains", contains)

    def _install_derivatives(self, modules):
        """A field derivative that makes no FD call counts as analytic."""
        tensors = modules.get("tensors")
        tracer = self
        for klass in vars(tensors).values() if tensors else ():
            if not (
                isinstance(klass, type)
                and klass.__module__ == tensors.__name__
                and "derivative" in vars(klass)
            ):
                continue
            original = vars(klass)["derivative"]

            def derivative(*args, _original=original, **kwargs):
                totals = tracer.totals[tracer.geometry]
                before = totals["tensors.fd"][0]
                out = tracer.call("tensors.derivative", _original, args, kwargs)
                if totals["tensors.fd"][0] == before:
                    tracer.count("tensors.analytic_derivative")
                return out

            self._set(klass, "derivative", functools.wraps(original)(derivative))

    def _install_suites(self, modules):
        cli = modules.get("cli")
        original = getattr(cli, "run_suite", None)
        if original is None:
            self.missing.append("cli.run_suite")
            return
        tracer = self

        @functools.wraps(original)
        def run_suite(kind, obj, suite, *args, **kwargs):
            name = f"cli.suite_s.{tracer.geometry}.{suite}"
            return tracer.call(name, original, (kind, obj, suite) + args, kwargs)

        self._set(cli, "run_suite", run_suite)

    def _install_darboux(self, modules):
        klass = getattr(modules.get("cmap"), "SpecialKahlerStructure", None)
        if klass is None:
            self.missing.append("cmap.SpecialKahlerStructure")
            return
        original = vars(klass)["__init__"]
        tracer = self

        @functools.wraps(original)
        def __init__(sk, *args, **kwargs):
            original(sk, *args, **kwargs)
            sk.metric = DarbouxField(tracer, sk.metric)
            sk.complex_structure = DarbouxField(tracer, sk.complex_structure)

        self._set(klass, "__init__", __init__)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def darboux(self, q, fn, args, kwargs):
        if not self.paused:
            self.darboux_points[self.geometry].add(_point_key(q))
        return self.call("cmap.darboux_eval", fn, args, kwargs)


class DarbouxField:
    """A special-Kahler field whose evaluations (g, I, dg, dI at a Darboux
    point q) are counted; everything else is delegated."""

    def __init__(self, tracer, field):
        self._tracer = tracer
        self._field = field

    def __getattr__(self, attr):
        return getattr(self._field, attr)

    def __call__(self, q):
        return self._tracer.darboux(q, self._field, (q,), {})

    def derivative(self, q, *args, **kwargs):
        return self._tracer.darboux(q, self._field.derivative, (q,) + args, kwargs)


def _point_key(q):
    return np.asarray(q, dtype=float).tobytes()


def _is_hessgeo(module):
    name = getattr(module, "__name__", "")
    return name == "hessgeo" or name.startswith("hessgeo.")
