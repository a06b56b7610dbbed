"""Regenerate reference.json, the table the benchmark checks results against.

Each reference value comes from a method other than the one it checks:

* ``fold``: the fold located by pseudo-arclength continuation; it checks the
  minimax ``lambda*`` that ``maximize`` (and every CLI study) reports.
* ``minimax``: ``lambda*`` from ``maximize`` with default options; it checks
  the fold that ``continuation_sweep`` reports.
* ``eig``: the smallest generalized eigenvalue of the P1 stiffness and mass
  matrices, built here in closed form and solved densely with
  ``scipy.linalg.eigh``; it checks the linear diagnostic mode.

The two nonlinear references are computed independently and must agree to
``TOL`` before the table is written.  Run from the repository root:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import scipy.linalg

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from minimax_fold import build_mesh, continuation_sweep, maximize  # noqa: E402
from minimax_fold.model import builtin_problem  # noqa: E402

import workloads  # noqa: E402

TOL = workloads.REL_TOL


def nonlinear_entry(problem: str, params: dict, n: int) -> dict:
    spec = builtin_problem(problem, params)
    mesh = build_mesh(n)
    lam = maximize(spec, mesh).lambda_star
    sweep = continuation_sweep(spec, mesh, lambda_max_guess=lam)
    if sweep.fold_lambda is None:
        raise RuntimeError(f"{problem} {params} n={n}: continuation found no fold")
    gap = abs(lam - sweep.fold_lambda) / abs(sweep.fold_lambda)
    if gap > TOL:
        raise RuntimeError(f"{problem} {params} n={n}: minimax/fold gap {gap:.3e}")
    return {"minimax": lam, "fold": sweep.fold_lambda, "rel_gap": gap}


def linear_entry(n: int) -> dict:
    """Smallest eigenvalue of -u'' = lambda u with P1 elements on n uniform cells."""
    h = 1.0 / n
    size = n - 1
    stiff = (np.diag(np.full(size, 2.0 / h)) + np.diag(np.full(size - 1, -1.0 / h), 1)
             + np.diag(np.full(size - 1, -1.0 / h), -1))
    mass = (np.diag(np.full(size, 4.0 * h / 6.0)) + np.diag(np.full(size - 1, h / 6.0), 1)
            + np.diag(np.full(size - 1, h / 6.0), -1))
    eig = scipy.linalg.eigh(stiff, mass, eigvals_only=True, subset_by_index=[0, 0])
    return {"eig": float(eig[0])}


def main() -> None:
    table = {}
    for problem, params, n in workloads.reference_points():
        key = workloads.ref_key(problem, params, n)
        if problem == "linear_diagnostic":
            table[key] = linear_entry(n)
        else:
            table[key] = nonlinear_entry(problem, params, n)
        print(key, table[key], flush=True)
    (HERE / "reference.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
