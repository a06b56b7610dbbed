"""Shift bounds for the maximal bifurcation value under reaction perturbations.

Adding Psi to the operator side shifts the extended Rayleigh quotient by
exactly <Psi(u), v> / <g(u), v>, so the minimax value obeys

    inf over directions at the base maximizer  <=  lambda*_pert - lambda*_base,

and the reverse role swap yields the upper bound.  The worked example
Psi(u) = -kappa(x) u^gamma1 gives the two-sided estimate

    0 <= lambda*_base - lambda*_pert <= |kappa|_inf |u*_base|_inf^(gamma1 - q).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import mesh_fem, model, rayleigh
from .mesh_fem import Coefficient, Mesh1D
from .minimax_solver import MinimaxCertificate, SolverOptions, continue_certificate, maximize
from .model import FEField, ProblemSpec

_BOUND_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class PerturbationSpec:
    """Reaction perturbation Psi: (x, t) -> R^m, evaluable on the closed cone."""

    psi: Callable[[np.ndarray, np.ndarray], np.ndarray]


def psi_loads(spec: ProblemSpec, mesh: Mesh1D, psi: PerturbationSpec,
              samples: tuple) -> np.ndarray:
    """Load vectors <Psi(u), psi_i>, shape (m, n_interior), from the
    quadrature samples of one field u (``model.quadrature_samples``)."""
    x, t, shape = samples
    vals = np.asarray(psi.psi(x, t), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("perturbation sample is not finite")
    return mesh_fem.quadrature_loads(mesh, vals.reshape((spec.m,) + shape))


def direction_quotients(spec: ProblemSpec, mesh: Mesh1D, psi: PerturbationSpec,
                        u: FEField) -> np.ndarray:
    """Per-direction quotients <Psi(u), eta_i> / <g(u), eta_i> (flat order),
    both loads on one sampling of u."""
    samples = model.quadrature_samples(spec, mesh, u.values)
    numer = psi_loads(spec, mesh, psi, samples).ravel()
    _, g_load = model.eval_residual_terms(spec, mesh, u, samples)
    denom = g_load.ravel()
    if np.any(denom <= rayleigh.TOL_DENOM):
        raise rayleigh.DenominatorError("a direction pairing <g(u), eta_i> is not positive")
    return numer / denom


def lower_shift(spec: ProblemSpec, mesh: Mesh1D, base_cert: MinimaxCertificate,
                psi: PerturbationSpec) -> float:
    """Lower bound on lambda*_pert - lambda*_base from the base maximizer.

    Equals the minimum over nodal directions of <Psi(u*), eta_i>/<g(u*), eta_i>
    (the same cone reduction as the inner minimum).
    """
    if not base_cert.valid:
        raise ValueError("lower_shift requires a VALID base certificate")
    return float(direction_quotients(spec, mesh, psi, base_cert.u_star).min())


def kappa_samples(kappa: Coefficient) -> tuple:
    """kappa as a function of x, and its values at 513 equispaced points of [0, 1].

    Raises ``ValueError`` at a negative value: the two-sided estimate
    presumes Psi = -kappa u^gamma1 <= 0, which can only lower the extreme value.
    """
    kappa_fn = (lambda x, k=float(kappa): np.full_like(np.asarray(x, dtype=float), k)) \
        if np.isscalar(kappa) else kappa
    values = kappa_fn(np.linspace(0.0, 1.0, 513))
    if np.any(values < 0.0):
        raise ValueError("perturbation coefficient kappa must be nonnegative, "
                         f"got {float(np.min(values))}")
    return kappa_fn, values


@dataclass(frozen=True)
class PerturbationReport:
    """Two-sided estimate for the extra-reaction example kappa(x) u^gamma1.

    ``lower_shift <= lambda_pert - lambda_base <= upper_shift`` holds whenever
    ``bounds_hold``; ``analytic_cap`` is the closed-form bound
    |kappa|_inf |u*_base|_inf^(gamma1 - q) on the decrease of the extreme
    value.  The dual-side assumption (existence of a minimax-realizing dual
    field) is not provable numerically; both bounds here come from the primal
    estimate applied in the two directions.  ``start`` is how the perturbed
    solve began (``continue_certificate``): ``continued`` from the base
    certificate, ``fallback`` to ``maximize``, or ``multistart``.
    """

    lambda_base: float
    lambda_pert: float
    lower_shift: float
    upper_shift: float
    analytic_cap: float
    bounds_hold: bool
    kappa_norm: float
    u_star_sup: float
    start: str
    base_cert: Optional[MinimaxCertificate] = field(default=None, repr=False)
    pert_cert: Optional[MinimaxCertificate] = field(default=None, repr=False)


def two_sided_example(q: float, gamma: float, gamma1: float, kappas: Sequence[Coefficient],
                      mesh: Mesh1D, options: SolverOptions | None = None) -> tuple:
    """Two-sided estimates for a kappa sequence, one ``PerturbationReport`` each.

    The base scalar problem (kappa = 0) is solved once by ``maximize`` and
    shared.  Each kappa then continues the base certificate on the same mesh
    (``continue_certificate``: a fold polish from the base maximizer, with
    ``maximize`` only as a fallback).  ``bounds_hold`` gives each bound the
    slack ``_BOUND_TOL`` (1e-8, the certificate bar ``_TOL_CERT``).  Raises
    ``RuntimeError`` when a certificate is not VALID, and ``ValueError``,
    before any solve, when a kappa is negative (``kappa_samples``).
    """
    if not (0.0 < q < 1.0 and gamma > 1.0 and gamma1 > 1.0):
        raise ValueError("need 0 < q < 1 and gamma, gamma1 > 1")
    sampled = [kappa_samples(kappa) for kappa in kappas]
    base_spec = model.scalar_power(q=q, gamma=gamma)
    base_cert = maximize(base_spec, mesh, options=options)
    if not base_cert.valid:
        raise RuntimeError(f"solver failure: base status {base_cert.status!r}")
    u_sup = base_cert.u_star.sup_norm  # P1 fields attain their sup at nodes

    reports = []
    for kappa_fn, values in sampled:
        kappa_norm = float(np.abs(values).max())
        pert_spec = model.perturbed_scalar(q=q, gamma=gamma, gamma1=gamma1, kappa=kappa_fn)
        pert_cert = continue_certificate(pert_spec, mesh, base_cert, options)
        if not pert_cert.valid:
            raise RuntimeError(f"solver failure: perturbed status {pert_cert.status!r}")

        def psi_down(x, t):  # perturbs base -> perturbed
            return -kappa_fn(x)[None] * np.power(t, gamma1)

        def psi_up(x, t):  # perturbs perturbed -> base
            return kappa_fn(x)[None] * np.power(t, gamma1)

        lo = lower_shift(base_spec, mesh, base_cert, PerturbationSpec(psi_down))
        hi = -float(direction_quotients(pert_spec, mesh, PerturbationSpec(psi_up),
                                        pert_cert.u_star).min())

        shift = pert_cert.lambda_star - base_cert.lambda_star
        cap = kappa_norm * u_sup ** (gamma1 - q)
        bounds_hold = bool(
            lo - _BOUND_TOL <= shift <= hi + _BOUND_TOL
            and -_BOUND_TOL <= -shift <= cap + _BOUND_TOL
        )
        reports.append(PerturbationReport(
            lambda_base=base_cert.lambda_star,
            lambda_pert=pert_cert.lambda_star,
            lower_shift=float(lo),
            upper_shift=float(hi),
            analytic_cap=float(cap),
            bounds_hold=bounds_hold,
            kappa_norm=kappa_norm,
            u_star_sup=float(u_sup),
            start=pert_cert.start,
            base_cert=base_cert,
            pert_cert=pert_cert,
        ))
    return tuple(reports)
