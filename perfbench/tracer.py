"""Span tracer that wraps setkf's public functions from outside the package.

The modules bind each other's functions with ``from .x import y``, so a
function is replaced in every ``setkf`` module namespace that holds it, not
only in the module that defines it.  Nothing inside ``src/setkf`` changes.

Each call of a wrapped function records a span (name, start, end, parent,
operation id).  A layer's self time is its duration minus the time its
wrapped children took.  Aggregates are exact; the span log is kept in memory
up to ``span_cap`` entries and written out when the benchmark ends.
"""

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs that mark a layer boundary.  riccati.g_step is
# counted, not timed: it runs tens of thousands of times per design.
SPANNED = {
    "cli": ("main",),
    "harness": (
        "simulate",
        "monte_carlo",
        "compare_schedulers",
        "calibrate_open_loop",
        "calibrate_closed_loop",
        "calibrate_period",
    ),
    "estimation": (
        "trigger_decide",
        "olset_measurement_update",
        "clset_measurement_update",
        "standard_kf_update",
        "offline_drop_update",
        "time_update",
    ),
    "riccati": ("fixed_point",),
    "model": ("steady_state", "validate_model"),
    "analysis": (
        "olset_bounds",
        "closed_loop_rate_bounds",
        "sequential_drop_probability",
        "open_loop_report",
        "closed_loop_report",
    ),
    "design": (
        "feasibility_check",
        "lmi_feasible",
        "design_search",
        "design_search_closed_loop",
        "export_lmi",
    ),
}
COUNTED = {"riccati": ("g_step",)}

MEASUREMENT_UPDATES = (
    "estimation.olset_measurement_update",
    "estimation.clset_measurement_update",
    "estimation.standard_kf_update",
    "estimation.offline_drop_update",
)
CALIBRATIONS = (
    "harness.calibrate_open_loop",
    "harness.calibrate_closed_loop",
    "harness.calibrate_period",
)


class Tracer:
    """Wraps setkf functions; records spans only while ``enabled``."""

    def __init__(self, span_cap=100_000):
        self.enabled = False
        self.op_id = -1
        self.span_cap = span_cap
        self.spans = []
        self.spans_dropped = 0
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.g_steps = 0
        self.iters_max = 0
        self.sim_steps = 0
        self._stack = []
        self._next_id = 0
        self._patched = []

    # -- patching ---------------------------------------------------------

    def install(self):
        for short, names in SPANNED.items():
            for name in names:
                self._replace(short, name, self._spanned)
        for short, names in COUNTED.items():
            for name in names:
                self._replace(short, name, self._counted)

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _replace(self, short, name, make):
        orig = getattr(importlib.import_module(f"setkf.{short}"), name)
        wrapper = make(f"{short}.{name}", orig)
        for modname, mod in list(sys.modules.items()):
            if modname != "setkf" and not modname.startswith("setkf."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, orig))

    def _spanned(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            g_before = tracer.g_steps
            if name == "harness.simulate":
                tracer.sim_steps += args[0].horizon
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()
                if name == "riccati.fixed_point":
                    tracer.iters_max = max(tracer.iters_max, tracer.g_steps - g_before)

        return traced

    def _counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.enabled:
                tracer.g_steps += 1
            return fn(*args, **kwargs)

        return counted

    # -- spans ------------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1][3] if self._stack else -1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id, parent])
        self._next_id += 1

    def _exit(self):
        end = time.perf_counter()
        name, start, child_s, span_id, parent = self._stack.pop()
        dur = end - start
        st = self.stats[name]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child_s
        if self._stack:
            self._stack[-1][2] += dur
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, parent, self.op_id, name, start, end))
        else:
            self.spans_dropped += 1

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["span_id", "parent_id", "op_id", "name", "start_s", "end_s"],
                    "dropped": self.spans_dropped,
                    "spans": self.spans,
                },
                fh,
            )

    # -- per-layer metrics --------------------------------------------------

    def _sum(self, names, field):
        return sum(self.stats[n][field] for n in names if n in self.stats)

    def layer_metrics(self):
        """Per-layer values keyed by metric name, as (value, unit) pairs."""
        calls, total, own = 0, 1, 2

        def stat(name, field):
            return self._sum((name,), field)

        fp_calls = stat("riccati.fixed_point", calls)
        searches = stat("design.design_search", calls)
        sim_total = stat("harness.simulate", total)
        m = {
            "harness.simulate.calls": (stat("harness.simulate", calls), "count"),
            "harness.simulate.self_s": (stat("harness.simulate", own), "s"),
            "harness.us_per_run_step": (
                1e6 * sim_total / self.sim_steps if self.sim_steps else 0.0,
                "us",
            ),
            "harness.monte_carlo.self_s": (stat("harness.monte_carlo", own), "s"),
            "harness.calibrate.calls": (self._sum(CALIBRATIONS, calls), "count"),
            "harness.calibrate.total_s": (self._sum(CALIBRATIONS, total), "s"),
        }
        for layer, names in (
            ("estimation.trigger_decide", ("estimation.trigger_decide",)),
            ("estimation.measurement_update", MEASUREMENT_UPDATES),
            ("estimation.time_update", ("estimation.time_update",)),
        ):
            m[f"{layer}.calls"] = (self._sum(names, calls), "count")
            m[f"{layer}.self_s"] = (self._sum(names, own), "s")
            m[f"{layer}.total_s"] = (self._sum(names, total), "s")
        m.update(
            {
                "riccati.fixed_point.calls": (fp_calls, "count"),
                "riccati.fixed_point.self_s": (stat("riccati.fixed_point", own), "s"),
                "riccati.g_step.calls": (self.g_steps, "count"),
                "riccati.iters_per_solve": (
                    self.g_steps / fp_calls if fp_calls else 0.0,
                    "count",
                ),
                "riccati.iters_max": (self.iters_max, "count"),
                "model.steady_state.calls": (stat("model.steady_state", calls), "count"),
                "model.steady_state.self_s": (stat("model.steady_state", own), "s"),
                "design.feasibility_check.calls": (
                    stat("design.feasibility_check", calls),
                    "count",
                ),
                "design.oracle_calls_per_search": (
                    stat("design.feasibility_check", calls) / searches if searches else 0.0,
                    "count",
                ),
                "design.design_search.total_s": (stat("design.design_search", total), "s"),
                "design.lmi_feasible.calls": (stat("design.lmi_feasible", calls), "count"),
                "design.lmi_feasible.self_s": (stat("design.lmi_feasible", own), "s"),
                "analysis.olset_bounds.total_s": (stat("analysis.olset_bounds", total), "s"),
                "analysis.closed_loop_rate_bounds.total_s": (
                    stat("analysis.closed_loop_rate_bounds", total),
                    "s",
                ),
                "analysis.sequential_drop_probability.total_s": (
                    stat("analysis.sequential_drop_probability", total),
                    "s",
                ),
                "model.validate_model.calls": (stat("model.validate_model", calls), "count"),
                "model.validate_model.self_s": (stat("model.validate_model", own), "s"),
                "cli.main.self_s": (stat("cli.main", own), "s"),
            }
        )
        return m
