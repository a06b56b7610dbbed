"""Span tracing of the solver's layers, installed from the benchmark's side.

Each target is a public function (or class method) of a library module, or
one of the two external kernels the solver blocks on (``scipy.optimize.linprog``
and ``numpy.linalg``).  It is wrapped by attribute replacement on the owning
module or class object, and on every ``minimax_fold`` module that imported it
by name.  A wrapped call records one span: name, start, end, parent span and
op id.  Spans stay in memory until the run ends.  A target that no longer
exists is reported as absent, with a note, instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

# Spans by which dense linear algebra and Jacobian assembly are split.
SPLIT_BY = {
    "minimax_solver.maximize": "maximize",
    "minimax_solver.continuation_sweep": "continuation_sweep",
    "minimax_solver.newton_multistart": "newton_multistart",
    "verification.verify_certificate": "verify_certificate",
}

UNITS = {"calls": "count", "s": "s", "self_s": "s", "nonzero_exit": "count",
         "failed": "count", "cells": "count", "dense_bytes": "B", "order3": "count"}


def _dense_order3(args, kwargs, result):
    order = args[0].shape[-1]
    return {"order3": float(order) ** 3}


def _linprog_work(args, kwargs, result):
    rows, cols = kwargs["A_ub"].shape
    return {"cells": rows * cols, "failed": int(not result.success)}


def _jacobian_bytes(args, kwargs, result):
    big = result.stiffness.shape[0]
    return {"dense_bytes": 3 * big * big * 8}


def _certificate_counts(args, kwargs, result):
    return {"slp_iterations": result.iterations,
            "polish_iterations": result.polish_iterations,
            "polished": int(result.status == "polished"),
            "polish_failed": int(result.status == "polish_failed")}


def _exit_code(args, kwargs, result):
    return {"nonzero_exit": int(result != 0)}


# (label, module, attribute path, reported stats, hook returning extra counts)
TARGETS = [
    ("harness.run", "minimax_fold.harness", "run",
     ("calls", "s", "self_s", "nonzero_exit"), _exit_code),
    ("perturbation.two_sided_example", "minimax_fold.perturbation", "two_sided_example",
     ("calls", "s"), None),
    ("minimax_solver.maximize", "minimax_fold.minimax_solver", "maximize",
     ("calls", "s", "self_s"), _certificate_counts),
    ("minimax_solver.continuation_sweep", "minimax_fold.minimax_solver", "continuation_sweep",
     ("calls", "s", "self_s"), None),
    ("minimax_solver.newton_multistart", "minimax_fold.minimax_solver", "newton_multistart",
     ("calls", "s", "self_s"), None),
    ("minimax_solver.amplitude_line_search", "minimax_fold.minimax_solver",
     "amplitude_line_search", ("calls", "s", "self_s"), None),
    ("lp.linprog", "scipy.optimize", "linprog", ("calls", "s", "failed", "cells"), _linprog_work),
    ("rayleigh.galerkin_terms", "minimax_fold.rayleigh", "galerkin_terms",
     ("calls", "s", "self_s"), None),
    ("rayleigh.quotient_gradients", "minimax_fold.rayleigh", "quotient_gradients",
     ("calls", "s", "self_s"), None),
    ("model.jacobian_parts", "minimax_fold.model", "jacobian_parts",
     ("calls", "s", "self_s", "dense_bytes"), _jacobian_bytes),
    ("model.eval_residual_terms", "minimax_fold.model", "eval_residual_terms",
     ("calls", "s", "self_s"), None),
    ("model.adjoint_curvature", "minimax_fold.model", "adjoint_curvature",
     ("calls", "s", "self_s"), None),
    ("model.eval_jacobian", "minimax_fold.model", "eval_jacobian",
     ("calls", "s", "self_s"), None),
    ("dense_la.svd", "numpy.linalg", "svd", ("calls", "s", "order3"), _dense_order3),
    ("dense_la.solve", "numpy.linalg", "solve", ("calls", "s", "order3"), _dense_order3),
    ("dense_la.eigvalsh", "numpy.linalg", "eigvalsh", ("calls", "s", "order3"), _dense_order3),
    ("mesh_fem.OperatorMatrix.solve", "minimax_fold.mesh_fem", "OperatorMatrix.solve",
     ("calls", "s"), None),
    ("mesh_fem.OperatorMatrix.matvec", "minimax_fold.mesh_fem", "OperatorMatrix.matvec",
     ("calls", "s"), None),
    ("verification.verify_certificate", "minimax_fold.verification", "verify_certificate",
     ("calls", "s"), None),
]

# Labels whose stats are also reported per enclosing SPLIT_BY span.
SPLIT_STATS = {
    "dense_la.svd": ("calls", "s", "order3"),
    "dense_la.solve": ("calls", "s", "order3"),
    "dense_la.eigvalsh": ("calls", "s", "order3"),
    "model.jacobian_parts": ("calls", "s"),
}

DERIVED = {
    "minimax_solver.slp_iterations": "count",
    "minimax_solver.polish_iterations": "count",
    "minimax_solver.polish_success_ratio": "ratio",
    "minimax_solver.maximize_per_op": "count/op",
    "lp.calls_per_maximize": "count/call",
    "lp.share_of_maximize": "ratio",
    "share.model_dense_la_of_pass": "ratio",
    "trace.overhead_s": "s",
}


def metric_names() -> dict:
    """Every per-layer metric the traced run can report, with its unit."""
    names = {}
    for label, _, _, stats, _ in TARGETS:
        for stat in stats:
            names[f"{label}.{stat}"] = UNITS[stat]
    for label, stats in SPLIT_STATS.items():
        for span in SPLIT_BY.values():
            for stat in stats:
                names[f"{label}.in_{span}.{stat}"] = UNITS[stat]
    names.update(DERIVED)
    return names


class Tracer:
    """In-memory span recorder; wrappers record only while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.op = None
        self.spans = []   # [label, start, end, parent index, op id, child seconds, extras]
        self.absent = {}  # label -> note
        self._stack = []
        self._restore = []

    def _open(self, label):
        parent = self._stack[-1] if self._stack else None
        rec = [label, 0.0, 0.0, parent, self.op, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()
        if rec[3] is not None:
            self.spans[rec[3]][5] += rec[2] - rec[1]

    def _wrap(self, label, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = tracer._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if hook is not None:
                rec[6] = hook(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        for label, module_name, path, _, hook in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for name in owners:
                    owner = getattr(owner, name)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent[label] = f"{module_name}.{path} not found; its metrics are absent"
                continue
            wrapper = self._wrap(label, original, hook)
            holders = [owner]
            if not isinstance(owner, type):
                holders += [mod for name, mod in list(sys.modules.items())
                            if name.startswith("minimax_fold") and mod is not owner
                            and getattr(mod, attr, None) is original]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._restore.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def op_span(self, op_id, name):
        """A root span for one op; the spans inside it carry its op id."""
        self.op = op_id
        rec = self._open(f"op:{name}")
        try:
            yield
        finally:
            self._close(rec)
            self.op = None

    def layer_metrics(self, n_ops: int, traced_pass_s: float, untraced_pass_s: float):
        """(metrics, bases of the shares) of the recorded spans; absent targets are left out."""
        agg = defaultdict(float)
        for label, start, end, parent, _, child, extras in self.spans:
            dur = end - start
            agg[f"{label}.calls"] += 1
            agg[f"{label}.s"] += dur
            agg[f"{label}.self_s"] += dur - child
            for key, value in (extras or {}).items():
                agg[f"{label}.{key}"] += value
            if label in SPLIT_STATS:
                enclosing = parent
                while enclosing is not None and self.spans[enclosing][0] not in SPLIT_BY:
                    enclosing = self.spans[enclosing][3]
                if enclosing is not None:
                    prefix = f"{label}.in_{SPLIT_BY[self.spans[enclosing][0]]}"
                    agg[f"{prefix}.calls"] += 1
                    agg[f"{prefix}.s"] += dur
                    agg[f"{prefix}.order3"] += (extras or {}).get("order3", 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        maximize_calls = agg["minimax_solver.maximize.calls"]
        model_self = sum(agg[f"{label}.self_s"] for label, *_ in TARGETS
                         if label.startswith("model."))
        dense_la = sum(agg[f"{label}.s"] for label, *_ in TARGETS if label.startswith("dense_la."))
        derived = {
            "minimax_solver.slp_iterations": agg["minimax_solver.maximize.slp_iterations"],
            "minimax_solver.polish_iterations": agg["minimax_solver.maximize.polish_iterations"],
            "minimax_solver.polish_success_ratio": ratio(
                agg["minimax_solver.maximize.polished"],
                agg["minimax_solver.maximize.polished"]
                + agg["minimax_solver.maximize.polish_failed"]),
            "minimax_solver.maximize_per_op": ratio(maximize_calls, n_ops),
            "lp.calls_per_maximize": ratio(agg["lp.linprog.calls"], maximize_calls),
            "lp.share_of_maximize": ratio(agg["lp.linprog.s"], agg["minimax_solver.maximize.s"]),
            "share.model_dense_la_of_pass": ratio(model_self + dense_la, traced_pass_s),
            "trace.overhead_s": traced_pass_s - untraced_pass_s,
        }
        bases = {
            "lp.share_of_maximize": {"lp.linprog.s": agg["lp.linprog.s"],
                                     "minimax_solver.maximize.s":
                                         agg["minimax_solver.maximize.s"]},
            "share.model_dense_la_of_pass": {"model.*.self_s": model_self,
                                             "dense_la.*.s": dense_la,
                                             "traced pass_s": traced_pass_s},
            "trace.overhead_s": {"traced pass_s": traced_pass_s,
                                 "untraced pass_s": untraced_pass_s},
        }
        metrics = {}
        for name, unit in metric_names().items():
            if any(name.startswith(label + ".") for label in self.absent):
                continue
            value = derived[name] if name in derived else agg[name]
            metrics[name] = {"value": value, "unit": unit}
        return metrics, bases

    def write(self, path):
        """Write every span as one JSON line, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for label, start, end, parent, op, _, _ in self.spans:
                fh.write(json.dumps({"name": label, "start": round(start - t0, 7),
                                     "end": round(end - t0, 7), "parent": parent,
                                     "op": op}) + "\n")
