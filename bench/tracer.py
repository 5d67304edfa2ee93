"""Spans and counters recorded around the program's public functions.

The tracer replaces module attributes and class methods of ``proxcert`` with
thin wrappers; no file of the program changes.  A wrapped function records a
span (name, op, start, end, parent) in flat in-memory arrays, and a wrapped
leaf method only bumps a counter keyed by the innermost open span, because
it is called too often for a span of its own.  Spans are written out once,
when the run ends.
"""

from __future__ import annotations

import array
import collections
import importlib
import os
import sys
import time

import numpy as np

clock = time.perf_counter

BOUND_SERIES = (
    "bound_basic_det_series",
    "bound_basic_det_corollary_series",
    "bound_basic_random_series",
    "bound_basic_stationary_series",
    "bound_acc_det_series",
    "bound_acc_det_corollary_series",
    "bound_acc_random_series",
    "bound_schmidt_basic_series",
    "bound_schmidt_acc_series",
    "evaluate_all_series",
)
ARTIFACT_WRITERS = (
    "write_trace_csv",
    "write_bounds_csv",
    "write_comparison_csv",
    "save_iterates_bin",
    "save_trace_npz",
    "write_summary",
)

# module -> functions that get a span
FUNCTION_SPANS = {
    "proxcert.errors": (
        "approx_prox",
        "inner_solver_prox",
        "sample_truncated_gaussian",
        "quantized_gradient",
    ),
    "proxcert.problems": ("power_iteration", "problem_from_json"),
    "proxcert.solvers": ("run_basic", "run_accelerated", "reference_solution", "alpha_series"),
    "proxcert.bounds": BOUND_SERIES + ("check_bound_validity",),
    "proxcert.experiments.mpc": ("mpc_to_lasso",),
    "proxcert.artifacts": ARTIFACT_WRITERS,
    "proxcert.cli": ("main",),
}
# (module, class) -> methods that get a span
METHOD_SPANS = {
    ("proxcert.problems", "CompositeProblem"): ("grad", "f_value"),
    ("proxcert.problems", "QuadraticSmooth"): ("lipschitz",),
    ("proxcert.bounds", "BoundParams"): ("from_trace",),
    ("proxcert.bounds", "ObservedGaps"): ("from_trace",),
}
# (module, class) -> methods that are only counted
METHOD_COUNTS = {
    ("proxcert.problems", "L1Term"): ("prox", "value_delta"),
    ("proxcert.errors", "FixedPointFormat"): ("quantize",),
}


def _layer(module):
    """Layer name of a program module: ``proxcert.experiments.mpc`` -> ``experiments``."""
    return module.split(".")[1]


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array.array("i")
        self.op = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = []
        self.stack_names = []
        self.counts = collections.Counter()
        self.current_op = -1
        self._restore = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def mark_op(self):
        self.current_op += 1

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        nid = self._id(name)
        tr = self

        def wrapper(*args, **kwargs):
            idx = len(tr.start)
            tr.name.append(nid)
            tr.op.append(tr.current_op)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.end.append(0.0)
            tr.stack.append(idx)
            tr.stack_names.append(nid)
            tr.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = clock()
                tr.stack.pop()
                tr.stack_names.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn, amount):
        tr = self

        def wrapper(*args, **kwargs):
            ctx = tr.stack_names[-1] if tr.stack_names else -1
            tr.counts[(name, ctx)] += amount(args)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after(self, name):
        """Counters taken from a wrapped call's arguments or result."""
        if name == "problems.power_iteration":

            def hook(args, result):
                if isinstance(result, tuple) and not result[1]:
                    self.counts[("lipschitz_fallbacks", -1)] += 1

            return hook
        if name in ("solvers.run_basic", "solvers.run_accelerated"):
            ref = self._id("solvers.reference_solution")

            def hook(args, result):
                key = "reference_iterations" if ref in self.stack_names else "iterations"
                self.counts[(key, -1)] += result.num_steps

            return hook
        if name.startswith("artifacts."):

            def hook(args, result):
                if os.path.exists(args[0]):
                    self.counts[("artifact_bytes", -1)] += os.path.getsize(args[0])

            return hook
        return None

    # -- install / uninstall -----------------------------------------------

    def _replace_everywhere(self, orig, new):
        """Rebind every ``proxcert`` module attribute that is ``orig``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "proxcert" or mod_name.startswith("proxcert.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    self._restore.append((mod, attr, orig))

    def install(self):
        for mod_name, funcs in FUNCTION_SPANS.items():
            mod = importlib.import_module(mod_name)
            for attr in funcs:
                name = f"{_layer(mod_name)}.{attr}"
                orig = getattr(mod, attr)
                self._replace_everywhere(orig, self._span(name, orig, self._after(name)))
        for (mod_name, cls_name), methods in METHOD_SPANS.items():
            cls = getattr(importlib.import_module(mod_name), cls_name)
            for attr in methods:
                self._wrap_method(cls, attr, lambda n, f: self._span(n, f))
        for (mod_name, cls_name), methods in METHOD_COUNTS.items():
            cls = getattr(importlib.import_module(mod_name), cls_name)
            for attr in methods:
                # quantize counts the elements it is given, the others their calls
                amount = (lambda a: int(np.size(a[1]))) if attr == "quantize" else (lambda a: 1)
                self._wrap_method(cls, attr, lambda n, f, am=amount: self._counted(n, f, am))

    def _wrap_method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        name = f"{_layer(cls.__module__)}.{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make(name, raw.__func__)))
        else:
            setattr(cls, attr, make(name, raw))
        self._restore.append((cls, attr, raw))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def count(self, counter, context=None):
        """Counter total, over every context or inside spans named ``context``."""
        if context is None:
            return sum(v for (c, _), v in self.counts.items() if c == counter)
        return self.counts.get((counter, self._ids.get(context, -2)), 0)

    def layer_metrics(self, ops):
        """Per-op layer metrics over the traced ops (times in ms)."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        ids = self._ids
        # spans inside a reference solve, and series spans nested in another
        ref_id = ids.get("solvers.reference_solution", -2)
        series_ids = {ids[f"bounds.{s}"] for s in BOUND_SERIES if f"bounds.{s}" in ids}
        under_ref = np.zeros(len(dur), dtype=bool)
        nested_series = np.zeros(len(dur), dtype=bool)
        for i in np.flatnonzero(has_parent):
            p = parent[i]
            under_ref[i] = under_ref[p] or name[p] == ref_id
            nested_series[i] = name[p] in series_ids

        def sel(*names):
            wanted = [ids[n] for n in names if n in ids]
            return np.isin(name, wanted)

        def ms(mask, values=dur):
            return 1e3 * float(values[mask].sum()) / ops

        def calls(n):
            return int(sel(n).sum())

        def ratio(num, den):
            return num / den if den else 0.0

        runs = sel("solvers.run_basic", "solvers.run_accelerated") & ~under_ref
        iterations = self.count("iterations")
        prox_calls = calls("errors.approx_prox")
        inner_calls = calls("errors.inner_solver_prox")
        qgrad_calls = calls("errors.quantized_gradient")
        return {
            "errors.approx_prox_ms": ms(sel("errors.approx_prox")),
            "errors.approx_prox_per_op": prox_calls / ops,
            "errors.gap_evals_per_prox": ratio(
                self.count("problems.L1Term.value_delta", "errors.approx_prox"), prox_calls
            ),
            "errors.sample_ms": ms(sel("errors.sample_truncated_gaussian")),
            "errors.inner_prox_ms": ms(sel("errors.inner_solver_prox")),
            "errors.inner_iters_per_prox": ratio(
                self.count("problems.L1Term.prox", "errors.inner_solver_prox"), inner_calls
            ),
            "errors.quantized_grad_ms": ms(sel("errors.quantized_gradient")),
            "errors.quantized_elems_per_grad": ratio(
                self.count("errors.FixedPointFormat.quantize", "errors.quantized_gradient"),
                qgrad_calls,
            ),
            "problems.grad_ms": ms(sel("problems.CompositeProblem.grad")),
            "problems.grad_per_op": calls("problems.CompositeProblem.grad") / ops,
            "problems.f_value_ms": ms(sel("problems.CompositeProblem.f_value")),
            "problems.f_value_per_op": calls("problems.CompositeProblem.f_value") / ops,
            "problems.prox_per_op": self.count("problems.L1Term.prox") / ops,
            "problems.lipschitz_ms": ms(sel("problems.QuadraticSmooth.lipschitz")),
            "problems.lipschitz_fallbacks_per_op": self.count("lipschitz_fallbacks") / ops,
            "problems.from_json_ms": ms(sel("problems.problem_from_json")),
            "solvers.run_ms": ms(runs),
            "solvers.run_self_ms": ms(runs, self_time),
            "solvers.iterations_per_op": iterations / ops,
            "solvers.iter_us": ratio(1e6 * float(dur[runs].sum()), iterations),
            "solvers.reference_ms": ms(sel("solvers.reference_solution")),
            "solvers.reference_iters_per_op": self.count("reference_iterations") / ops,
            "solvers.alpha_series_ms": ms(sel("solvers.alpha_series")),
            "bounds.params_ms": ms(sel("bounds.BoundParams.from_trace")),
            "bounds.series_ms": ms(sel(*[f"bounds.{s}" for s in BOUND_SERIES]) & ~nested_series),
            "bounds.observed_ms": ms(sel("bounds.ObservedGaps.from_trace")),
            "bounds.validity_ms": ms(sel("bounds.check_bound_validity")),
            "experiments.condense_ms": ms(sel("experiments.mpc_to_lasso")),
            "experiments.condense_per_op": calls("experiments.mpc_to_lasso") / ops,
            "artifacts.write_ms": ms(sel(*[f"artifacts.{w}" for w in ARTIFACT_WRITERS])),
            "artifacts.bytes_per_op": self.count("artifact_bytes") / ops,
            "cli.self_ms": ms(sel("cli.main"), self_time),
        }
