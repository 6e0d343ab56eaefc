"""Span and counter tracing of shockbox, installed from outside the package.

The tracer replaces module attributes where callers look them up (for
example ``shockbox.shockmodel.check_generator`` and
``shockbox.imprecise._ic_scan``) with thin wrappers, and restores them on
uninstall. Nothing under ``src/`` knows about it.

Three kinds of wrapper exist:

* span: a coarse call (a build step, a named check). It records
  (id, parent id, operation id, metric, start, end) in memory and adds its
  self time (duration minus the time its timed children cover) to its
  metric;
* leaf: a call made thousands of times per operation (``copula_grid``,
  ``BivariateBound.at``). It adds self time and a call count but records no
  span;
* count: a scalar evaluator called 10^4+ times per operation
  (``DistFn.eval``, ``Generator.eval``). It only counts calls.

Every timed wrapper reports its duration to the enclosing timed frame, so
self times of all frames of one operation add up to the operation's traced
wall time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

_perf = time.perf_counter

SPAN, LEAF, COUNT = "span", "leaf", "count"

# (module, attribute, kind, metric stem, extra counter, namespaces left alone)
#
# A wrapped attribute is replaced in every shockbox module that holds the
# same function object, except the namespaces listed last: pbox keeps the
# plain first_violation so that pbox.validate_s covers the order check it
# performs, and generators keeps the plain build_phi so that build_psi is
# one build with its knots counted once.
TARGETS = (
    ("cli", "load_scenario", SPAN, "cli.load_scenario", None, ()),
    ("cli", "_write_atomic", SPAN, "cli.write", "write_bytes", ()),
    ("cli", "_write_surfaces", SPAN, "cli.write", None, ()),
    ("cli", "cmd_pipeline", SPAN, "cli.command_self", None, ()),
    ("cli", "cmd_search", SPAN, "cli.command_self", None, ()),
    ("shockmodel", "_resolve_inputs", SPAN, "shockmodel.resolve_inputs", None, ()),
    ("shockmodel", "_run", SPAN, "shockmodel.run_self", None, ()),
    ("shockmodel", "oracle_joint", SPAN, "shockmodel.oracle", None, ()),
    ("shockmodel", "compare_oracle", SPAN, "shockmodel.oracle", None, ()),
    ("shockmodel", "random_discrete_scenario", SPAN, "shockmodel.random_scenario", None, ()),
    ("distfn", "_combine", SPAN, "distfn.combine", "breakpoints", ()),
    ("distfn", "first_violation", SPAN, "distfn.first_violation", None, ("pbox",)),
    ("distfn", "step_approximation", SPAN, "distfn.step_approximation", "breakpoints", ()),
    ("distfn", "DistFn.eval", COUNT, "distfn.eval", None, ()),
    ("distfn", "DistFn.left_limit", COUNT, "distfn.eval", None, ()),
    ("distfn", "DistFn.right_limit", COUNT, "distfn.eval", None, ()),
    ("distfn", "DistFn.eval_many", COUNT, "distfn.eval_many", "points", ()),
    ("pbox", "PBox.__post_init__", SPAN, "pbox.validate", None, ()),
    ("generators", "build_phi", SPAN, "generators.build", "knots", ("generators",)),
    ("generators", "build_psi", SPAN, "generators.build", "knots", ()),
    ("generators", "build_chi", SPAN, "generators.build", "knots", ()),
    ("generators", "check_generator", SPAN, "generators.check_generator", None, ()),
    ("generators", "Generator.eval", COUNT, "generators.eval", None, ()),
    ("generators", "blend_generators", SPAN, "generators.blend", None, ()),
    ("generators", "check_association", SPAN, "generators.check_association", None, ()),
    ("generators", "check_order", SPAN, "generators.check_order", None, ()),
    ("generators", "associated_envelope_gaps", SPAN, "generators.envelope_gaps", None, ()),
    ("copulas", "copula_grid", LEAF, "copulas.grid", "cells", ()),
    ("copulas", "BivariateBound.at", LEAF, "copulas.at", None, ()),
    ("copulas", "check_copula_axioms", SPAN, "copulas.axioms", None, ()),
    ("imprecise", "_ic_scan", SPAN, "imprecise.ic_scan", "elements", ()),
    ("imprecise", "check_imprecise_copula", SPAN, "imprecise.check_imprecise", None, ()),
    ("imprecise", "search_ic_violation", SPAN, "imprecise.search", "search_grid", ()),
    ("imprecise", "check_bivariate_pbox_conditions", SPAN, "imprecise.bivariate_pbox", None, ()),
    ("imprecise", "coherence_witness", SPAN, "imprecise.coherence", None, ()),
    ("imprecise", "verify_witness", SPAN, "imprecise.verify_witness", None, ()),
)

ROOT = "cli.main_self"


def _extra_amount(extra, args, result):
    """Size recorded by a wrapper's extra counter for one call."""
    if extra == "write_bytes":
        return len(args[1])
    if extra == "breakpoints":
        return len(result.breakpoints)
    if extra == "knots":
        return len(result.knot_us)
    if extra == "points":
        return int(np.size(args[1]))
    if extra == "cells":
        return len(args[1]) * len(args[2])
    if extra == "elements":
        rows, cols = args[0].shape
        return 4 * cols * rows * (rows + 1) // 2
    raise ValueError(f"unknown extra counter {extra!r}")


class Tracer:
    """Spans, self times and counters of one benchmark process."""

    def __init__(self):
        self.spans: list[tuple] = []
        # metric stem -> [self seconds, calls, extra amount]
        self.cells: dict[str, list] = defaultdict(lambda: [0.0, 0, 0])
        self.search_grids: dict[int, int] = defaultdict(int)
        self._stack: list[list] = []
        self._next_id = 0
        self._op = -1
        self._patches: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _timed(self, fn, metric, extra, record):
        stack = self._stack
        cell = self.cells[metric]
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if record:
                frame = [0.0, tracer._next_id]
                tracer._next_id += 1
            else:
                # a leaf is transparent: spans below it name the enclosing span
                frame = [0.0, parent]
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                duration = end - start
                cell[0] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            cell[1] += 1
            if record:
                spans.append((frame[1], parent, tracer._op, metric, start, end))
            if extra == "search_grid":
                tracer.search_grids[kwargs.get("n", 51)] += 1
            elif extra is not None:
                cell[2] += _extra_amount(extra, args, result)
            return result

        return wrapper

    def _counted(self, fn, metric, extra):
        cell = self.cells[metric]

        def wrapper(*args, **kwargs):
            cell[1] += 1
            if extra is not None:
                cell[2] += _extra_amount(extra, args, None)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every target in every loaded module of ``package``."""
        prefix = package.__name__ + "."
        modules = {
            name[len(prefix):]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith(prefix) and mod is not None
        }
        for mod_name, attr, kind, metric, extra, keep in TARGETS:
            owner = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, kind, metric, extra))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, kind, metric, extra)
            for name, mod in modules.items():
                if name in keep:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def _wrap(self, fn, kind, metric, extra):
        if kind == COUNT:
            return self._counted(fn, metric, extra)
        return self._timed(fn, metric, extra, record=kind == SPAN)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- operations ---------------------------------------------------------

    def call_op(self, op_id: int, fn, *args):
        """Run one operation as the root span of its own span tree."""
        self._op = op_id
        root = self._timed(fn, ROOT, None, record=True)
        try:
            return root(*args)
        finally:
            self._op = -1


def layer_metrics(tracer: Tracer, ops: int, scenarios: int) -> dict:
    """Per-operation layer metrics from a tracer's totals over ``ops`` operations.

    Times are seconds of self time per operation; counts are per operation
    too, and repeat exactly between runs that execute the same operations in
    the same proportions.
    """

    cells = tracer.cells

    def per_op_s(stem):
        return cells[stem][0] / ops if stem in cells else 0.0

    def calls(stem):
        return cells[stem][1] / ops if stem in cells else 0

    def amount(stem):
        return cells[stem][2] / ops if stem in cells else 0

    # search rescans each scenario with findings on a 2n - 1 grid
    grids = tracer.search_grids
    rescans = grids.get(2 * min(grids) - 1, 0) if grids else 0
    return {
        "cli.main_self_s": per_op_s(ROOT),
        "cli.command_self_s": per_op_s("cli.command_self"),
        "cli.load_scenario_s": per_op_s("cli.load_scenario"),
        "cli.write_s": per_op_s("cli.write"),
        "cli.write_bytes": amount("cli.write"),
        "shockmodel.resolve_inputs_s": per_op_s("shockmodel.resolve_inputs"),
        "shockmodel.discretization_atoms": amount("distfn.step_approximation"),
        "shockmodel.oracle_s": per_op_s("shockmodel.oracle"),
        "shockmodel.run_self_s": per_op_s("shockmodel.run_self"),
        "shockmodel.random_scenario_s": per_op_s("shockmodel.random_scenario"),
        "distfn.combine_s": per_op_s("distfn.combine"),
        "distfn.combine_calls": calls("distfn.combine"),
        "distfn.combine_breakpoints": amount("distfn.combine"),
        "distfn.eval_calls": calls("distfn.eval"),
        "distfn.eval_many_points": amount("distfn.eval_many"),
        "distfn.first_violation_s": per_op_s("distfn.first_violation"),
        "distfn.step_approximation_s": per_op_s("distfn.step_approximation"),
        "pbox.validate_s": per_op_s("pbox.validate"),
        "generators.build_s": per_op_s("generators.build"),
        "generators.build_knots": amount("generators.build"),
        "generators.check_generator_s": per_op_s("generators.check_generator"),
        "generators.check_generator_calls": calls("generators.check_generator"),
        "generators.eval_calls": calls("generators.eval"),
        "generators.blend_s": per_op_s("generators.blend"),
        "generators.check_association_s": per_op_s("generators.check_association"),
        "generators.check_order_s": per_op_s("generators.check_order"),
        "generators.envelope_gaps_s": per_op_s("generators.envelope_gaps"),
        "copulas.grid_s": per_op_s("copulas.grid"),
        "copulas.grid_calls": calls("copulas.grid"),
        "copulas.grid_cells": amount("copulas.grid"),
        "copulas.at_s": per_op_s("copulas.at"),
        "copulas.at_calls": calls("copulas.at"),
        "copulas.axioms_s": per_op_s("copulas.axioms"),
        "imprecise.ic_scan_s": per_op_s("imprecise.ic_scan"),
        "imprecise.ic_scan_calls": calls("imprecise.ic_scan"),
        "imprecise.ic_scan_elements": amount("imprecise.ic_scan"),
        "imprecise.check_imprecise_s": per_op_s("imprecise.check_imprecise"),
        "imprecise.search_s": per_op_s("imprecise.search"),
        "imprecise.bivariate_pbox_s": per_op_s("imprecise.bivariate_pbox"),
        "imprecise.coherence_s": per_op_s("imprecise.coherence"),
        "imprecise.verify_witness_s": per_op_s("imprecise.verify_witness"),
        "imprecise.rescan_ratio": rescans / scenarios if scenarios else 0.0,
    }


# Metrics that are exact counts: two traced runs of one seed must agree.
EXACT_COUNTERS = (
    "distfn.eval_calls",
    "generators.eval_calls",
    "copulas.at_calls",
    "copulas.grid_cells",
    "imprecise.ic_scan_calls",
    "imprecise.ic_scan_elements",
)
