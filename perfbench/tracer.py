"""In-memory tracing of chenhopf's public functions, for the traced run.

``Tracer.install`` replaces each traced function at every module attribute
bound to it, because callers bind names with ``from ... import``: orbits
calls ``integrate`` through ``chenhopf.orbits.integrate``, not through
``chenhopf.integrators.integrate``. ``uninstall`` puts the originals back.

Hot leaves (the field, the flow, ...) only add to per-name call counts and
times. Everything above them records a span with its parent's id; a span's
self time is its duration minus the time its direct children cover, where a
leaf called from inside another leaf is not a direct child of the span.
"""
from __future__ import annotations

import time
from collections import defaultdict

from chenhopf import averaging, chen, cli, integrators, linear_flow, numerics, orbits

MODULES = {
    "chen": chen, "linear_flow": linear_flow, "numerics": numerics,
    "averaging": averaging, "integrators": integrators, "orbits": orbits, "cli": cli,
}

LEAVES = (
    "chen.standard_form_field",
    "chen.standard_form_jacobian",
    "chen.split_standard_form",
    "linear_flow.flow",
    "linear_flow.fundamental_matrix_inverse",
    "averaging.bifurcation_function",
    "numerics.eig4",
)

SPANS = (
    "numerics.periodic_trapezoid",
    "numerics.finite_difference_jacobian",
    "numerics.newton_solve",
    "averaging.bifurcation_function_quadrature",
    "averaging.averaged_zeros",
    "averaging.refine_zero",
    "integrators.integrate",
    "integrators.integrate_with_variational",
    "orbits.shoot",
    "orbits.find_bifurcating_orbits",
    "orbits.orbit_trajectory",
    "orbits.recurrence_defect",
    "orbits.unscale_orbit",
)

NEWTON = "numerics.newton_solve"


class OpStats:
    """Aggregates of one traced operation."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.leaf_children = defaultdict(int)   # direct leaf calls, by span name
        self.counters = defaultdict(int)        # Newton iterations and residual evals
        self.wall = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (op, span id, parent id, name, start, end)
        self.ops: list[OpStats] = []
        self._stats = OpStats()
        self._stack: list[list] = []   # [span id, name, child seconds, direct leaf calls]
        self._leaf_depth = 0
        self._next_id = 0
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ wrappers

    def _leaf(self, name, fn):
        def leaf(*args, **kwargs):
            self._leaf_depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                self._leaf_depth -= 1
                stats = self._stats
                stats.calls[name] += 1
                stats.seconds[name] += dt
                if not self._leaf_depth and self._stack:
                    frame = self._stack[-1]
                    frame[2] += dt
                    frame[3] += 1
        return leaf

    def _span(self, name, fn):
        def span(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            sid = self._next_id
            self._next_id += 1
            frame = [sid, name, 0.0, 0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                dur = end - start
                stats = self._stats
                stats.calls[name] += 1
                stats.seconds[name] += dur
                stats.self_seconds[name] += dur - frame[2]
                stats.leaf_children[name] += frame[3]
                if self._stack:
                    self._stack[-1][2] += dur
                self.spans.append((len(self.ops), sid, parent, name, start, end))
        return span

    def _newton(self, name, fn):
        traced = self._span(name, fn)

        def newton(residual, *args, **kwargs):
            def counted(v):
                self._stats.counters["residual_evals"] += 1
                return residual(v)
            report = traced(counted, *args, **kwargs)
            self._stats.counters["iterations"] += report.iterations
            return report
        return newton

    # ------------------------------------------------------- install / ops

    def install(self) -> None:
        for qual in LEAVES + SPANS:
            mod_name, attr = qual.split(".")
            original = getattr(MODULES[mod_name], attr)
            if qual == NEWTON:
                wrapper = self._newton(qual, original)
            elif qual in LEAVES:
                wrapper = self._leaf(qual, original)
            else:
                wrapper = self._span(qual, original)
            for module in MODULES.values():
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, bound, value))
                        setattr(module, bound, wrapper)

    def uninstall(self) -> None:
        for module, bound, value in reversed(self._patches):
            setattr(module, bound, value)
        self._patches.clear()

    def run_op(self, op, inp) -> float:
        """Run one operation under a root span; returns its wall time."""
        root = self._span("op", op)
        self._stats = OpStats()
        self.install()
        start = time.perf_counter()
        try:
            root(inp)
        finally:
            self._stats.wall = time.perf_counter() - start
            self.uninstall()
            self.ops.append(self._stats)
        return self._stats.wall
