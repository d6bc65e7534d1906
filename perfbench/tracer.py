"""Spans and counters recorded around jetvar's public functions, from outside.

The tracer replaces each traced function or method with a wrapper at every
place it is looked up: on its class for methods, and on every ``jetvar``
module that holds the function under some name, because modules such as
``frontend.runner`` and ``eqmanifold`` import functions by name.  Nothing in
``src/`` is edited.

A span is [name, parent index, start, end, outermost]; ``outermost`` is true
when no enclosing open span has the same name, so recursive calls are not
counted twice in inclusive times.  Spans stay in memory for one operation and
are folded into per-operation aggregates when it ends.  Expression arithmetic
records a span only when its caller is not itself Expression arithmetic, so
``symexpr.arith`` covers the outermost arithmetic, ``derive`` and
``substitute`` calls of every other layer.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

ARITH = "symexpr.arith"
ROOT_SPAN = "frontend.cli.main"
RUN_CHECK = "frontend.runner.run_check"

LAYERS = ("frontend.cli", "frontend.parser", "frontend.runner", "symexpr", "jetcalc",
          "forms", "eqmanifold", "variational", "spatial")

# (layer, attribute path inside jetvar.<layer>)
SPAN_TARGETS = (
    ("frontend.parser", "parse"),
    ("frontend.runner", "run_check"),
    ("frontend.runner", "build"),
    ("jetcalc", "total_derivative"),
    ("jetcalc", "total_derivative_multi"),
    ("jetcalc", "euler_derivative"),
    ("jetcalc", "apply_evolutionary"),
    ("jetcalc", "linearization"),
    ("forms", "exterior_derivative"),
    ("forms", "horizontal_differential"),
    ("forms", "contract_evolutionary"),
    ("forms", "lie_derivative_evolutionary"),
    ("forms", "vertical_split"),
    ("forms", "cartan_degree_filter"),
    ("eqmanifold", "SolvedEquation.__init__"),
    ("eqmanifold", "SolvedEquation.rule_for"),
    ("eqmanifold", "SolvedEquation.restrict"),
    ("eqmanifold", "SolvedEquation.restrict_form"),
    ("eqmanifold", "SolvedEquation.restricted_total_derivative"),
    ("eqmanifold", "SolvedEquation.restricted_total_derivative_multi"),
    ("eqmanifold", "SolvedEquation.restricted_exterior_derivative"),
    ("eqmanifold", "SolvedEquation.is_symmetry"),
    ("eqmanifold", "SolvedEquation.check_integrability"),
    ("variational", "Lagrangian.euler"),
    ("variational", "Lagrangian.euler_form"),
    ("variational", "presymplectic_potential"),
    ("variational", "internal_lagrangian"),
    ("variational", "presymplectic_structure"),
    ("variational", "verify_omega_identity"),
    ("spatial", "s_degree_filter"),
    ("spatial", "reduce_mod_S2"),
    ("spatial", "s_presymplectic_representative"),
    ("spatial", "SpatialStructure.__init__"),
    ("spatial", "SpatialStructure.spatial_euler"),
    ("spatial", "SpatialStructure.is_spatial_divergence"),
    ("spatial", "extend_S_symmetry"),
    ("spatial", "ConstraintResolution.verify"),
    ("spatial", "ConstraintResolution.apply_to_expression"),
    ("spatial", "antisymmetric_potential_resolution"),
    ("spatial", "is_gauge_trivial"),
    ("spatial", "is_gauge_symmetry"),
    ("spatial", "is_spatial_gradient"),
)

ARITH_TARGETS = tuple(
    ("symexpr", f"Expression.{m}")
    for m in ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__truediv__",
              "__rtruediv__", "__pow__", "derive", "substitute")
) + (("symexpr", "partial"), ("symexpr", "substitute"))

# Spans the runner opens directly inside run_check, by pipeline stage.
STAGE_OF = {
    "eqmanifold.SolvedEquation.check_integrability": "integrability",
    "variational.presymplectic_potential": "euler",
    "variational.Lagrangian.euler": "euler",
    "eqmanifold.SolvedEquation.restrict": "euler",
    "variational.verify_omega_identity": "omega_identity",
    "variational.internal_lagrangian": "internal_lagrangian",
    "eqmanifold.SolvedEquation.restricted_exterior_derivative": "presymplectic",
    "spatial.s_presymplectic_representative": "s_presymplectic",
    "spatial.extend_S_symmetry": "s_symmetry",
    "eqmanifold.SolvedEquation.is_symmetry": "s_symmetry",
    "spatial.is_gauge_symmetry": "gauge",
}
STAGES = ("integrability", "euler", "omega_identity", "internal_lagrangian",
          "presymplectic", "s_presymplectic", "s_symmetry", "gauge")


def _resolve(layer: str, path: str):
    module = sys.modules[f"jetvar.{layer}"]
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Records spans and counters for one operation at a time."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.open = defaultdict(int)
        self.expressions = 0
        self.terms = 0
        self.rule_misses = 0
        self._requested = {}
        self._undo = []
        self.layer_of = {ROOT_SPAN: "frontend.cli"}

    # -- installation ----------------------------------------------------------

    def install(self):
        import jetvar.frontend.cli  # noqa: F401  (loads every traced module)

        for layer, path in SPAN_TARGETS:
            name = f"{layer}.{path}"
            self.layer_of[name] = layer
            before = self._note_rule_request if path.endswith(".rule_for") else None
            self._patch(layer, path, lambda fn, n=name, b=before: self._span(n, fn, b))
        self.layer_of[ARITH] = "symexpr"
        for layer, path in ARITH_TARGETS:
            self._patch(layer, path, self._arith)
        self._patch("symexpr", "Expression.__init__", self._count_expression)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, layer, path, make_wrapper):
        owner, _, original = _resolve(layer, path)
        wrapper = make_wrapper(original)
        wrapper.__wrapped__ = original
        if isinstance(owner, type):
            holders = [owner]
        else:
            holders = [m for n, m in sys.modules.items()
                       if m is not None and (n == "jetvar" or n.startswith("jetvar."))]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._undo.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    # -- wrappers ----------------------------------------------------------------

    def _span(self, name, fn, before=None):
        spans, stack, opened, clock = self.spans, self.stack, self.open, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            record = [name, stack[-1] if stack else -1, clock(), 0.0, not opened[name]]
            stack.append(len(spans))
            spans.append(record)
            opened[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                opened[name] -= 1
                stack.pop()

        return wrapper

    def _arith(self, fn):
        spans, stack = self.spans, self.stack
        traced = self._span(ARITH, fn)

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == ARITH:
                return fn(*args, **kwargs)
            return traced(*args, **kwargs)

        return wrapper

    def _count_expression(self, fn):
        def wrapper(expr, *args, **kwargs):
            fn(expr, *args, **kwargs)
            self.expressions += 1
            self.terms += len(expr.terms)

        return wrapper

    def _note_rule_request(self, args):
        eq, coord = args[0], args[1]
        _, seen = self._requested.setdefault(id(eq), (eq, set()))
        if coord not in seen:
            seen.add(coord)
            self.rule_misses += 1

    # -- one operation -----------------------------------------------------------

    def run(self, fn, *args):
        """Call fn(*args) as one traced operation; return (result, aggregates)."""
        self.spans.clear()
        self.stack.clear()
        self.open.clear()
        self.expressions = self.terms = self.rule_misses = 0
        self._requested.clear()
        result = self._span(ROOT_SPAN, fn)(*args)
        aggregates = self._aggregate()
        self.spans.clear()
        self._requested.clear()
        return result, aggregates

    def _aggregate(self) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        inclusive = defaultdict(float)
        own = defaultdict(float)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        stage_s = dict.fromkeys(STAGES, 0.0)
        decisions, top = [], []
        origin = spans[0][2]
        for i, (name, parent, start, end, outermost) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            if outermost:
                inclusive[name] += dur
            own[name] += dur - child[i]
            layer_self[self.layer_of[name]] += dur - child[i]
            if parent >= 0 and spans[parent][0] == RUN_CHECK and name in STAGE_OF:
                stage_s[STAGE_OF[name]] += dur
                if STAGE_OF[name] == "gauge":
                    decisions.append(dur)
            if parent <= 0 or spans[parent][0] == RUN_CHECK:
                top.append([name, parent, start - origin, end - origin])
        return {
            "calls": dict(calls),
            "inclusive_s": dict(inclusive),
            "self_s": dict(own),
            "layer_self_s": layer_self,
            "stage_s": stage_s,
            "gauge_decisions_s": decisions,
            "expressions": self.expressions,
            "terms": self.terms,
            "rule_misses": self.rule_misses,
            "spans": len(spans),
            "top_spans": top,
        }
