"""Discrete Picone inequalities and the compactness-energy diagnostics.

For a symmetric matrix A with nonpositive off-diagonal entries, u >= 0 and
v > 0 (entrywise),

    u^T A u - (A v) . (u^2 / v) = -1/2 sum_{ij} a_ij v_i v_j (u_i/v_i - u_j/v_j)^2 >= 0.

The quotients u^2/v are taken on the nodal coefficient vectors, never as
pointwise functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model, rayleigh
from .mesh_fem import Mesh1D, OperatorMatrix
from .minimax_solver import MinimaxCertificate
from .model import FEField, ProblemSpec


@dataclass(frozen=True)
class PiconeGap:
    """gap = u^T A u - (A v).(u^2/v) together with its quadratic-form value."""

    gap: float
    decomposition_sum: float
    scale: float


def _as_dense(a) -> np.ndarray:
    if isinstance(a, OperatorMatrix):
        return a.to_dense()
    return np.asarray(a, dtype=float)


def discrete_picone_gap(a, u: np.ndarray, v: np.ndarray) -> PiconeGap:
    """Evaluate the discrete Picone gap and its decomposition identity.

    Rejects asymmetric matrices, positive off-diagonal entries, negative u
    and nonpositive v.
    """
    mat = _as_dense(a)
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("matrix must be square")
    scale = float(np.abs(mat).max())
    if np.abs(mat - mat.T).max() > 1e-12 * max(scale, 1.0):
        raise ValueError("matrix must be symmetric")
    off = mat - np.diag(np.diag(mat))
    if off.max() > 1e-14 * max(scale, 1.0):
        raise ValueError("off-diagonal entries must be nonpositive")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (n,) or v.shape != (n,):
        raise ValueError("vector shapes must match the matrix")
    if np.any(u < 0.0):
        raise ValueError("u must be entrywise nonnegative")
    if np.any(v <= 0.0):
        raise ValueError("v must be entrywise positive")

    z = u / v
    dz = z[:, None] - z[None, :]
    # Residual form sum_ij a_ij u_i v_j (z_j - z_i) of u^T A u - (A v).(u^2/v):
    # the diagonal cancels exactly instead of through rounding of two large
    # quadratic forms, so the gap keeps its relative accuracy.
    gap = float(-np.sum(off * np.outer(u, v) * dz))
    decomposition = float(-0.5 * np.sum(off * np.outer(v, v) * dz**2))
    return PiconeGap(gap=gap, decomposition_sum=decomposition,
                     scale=scale * float(u @ u) if n else 0.0)


@dataclass(frozen=True)
class PSEnergyReport:
    """Energy inequality and nondegeneracy functional at a certificate.

    ``energy_margin`` is (theta - q) lambda* <g(u*), u*> - (theta - 1) a(u*, u*);
    nonnegative at genuine solutions.  The nondegeneracy line evaluates
    1 - chi <= <f_u(u) v, v> - chi <f(u), v^2/u> with chi the midpoint of
    (q, 1) and v renormalized to a(v, v) = 1 (the inequality presumes that
    normalization).  ``consistent`` is False when the energy inequality
    fails, which flags a non-solution input.  Neither line applies at q = 1.
    """

    applicable: bool
    energy_lhs: float
    energy_rhs: float
    energy_margin: float
    nondeg_lhs: float
    nondeg_rhs: float
    nondeg_margin: float
    chi: float
    consistent: bool


def ps_energy_diagnostic(spec: ProblemSpec, mesh: Mesh1D,
                         cert: MinimaxCertificate) -> PSEnergyReport:
    """Evaluate the superlinearity energy bound at the certificate pair."""
    u, v, lam = cert.u_star, cert.v_star, cert.lambda_star
    if spec.q >= 1.0:
        return PSEnergyReport(False, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                              (1.0 + spec.q) / 2.0, True)

    blocks = model.stiffness_blocks(spec, mesh)
    terms = rayleigh.galerkin_terms(spec, mesh, u, blocks)
    a_uu = float((u.values * terms.stiff_action).sum())
    g_uu = float((u.values * terms.g_load).sum())
    lhs = (spec.theta - 1.0) * a_uu
    rhs = (spec.theta - spec.q) * lam * g_uu
    margin = rhs - lhs

    # renormalize v to unit energy before the nondegeneracy functional
    a_vv = sum(float(v.values[k] @ blocks[k].matvec(v.values[k])) for k in range(spec.m))
    v_hat = FEField(mesh, v.values / np.sqrt(a_vv))
    chi = (1.0 + spec.q) / 2.0
    parts = model.jacobian_parts(spec, mesh, u, blocks=blocks, samples=terms.samples)
    v_flat = v_hat.values.ravel()
    fu_vv = float(v_flat @ model.band_matvec(parts.mass_f_band, v_flat))
    with np.errstate(divide="ignore"):
        w = v_hat.values**2 / u.values  # nodal quotient v^2/u
    f_w = float((w * terms.f_load).sum())
    nondeg_lhs = 1.0 - chi
    nondeg_rhs = fu_vv - chi * f_w

    scale = max(abs(lhs), abs(rhs), 1.0)
    return PSEnergyReport(
        applicable=True,
        energy_lhs=lhs,
        energy_rhs=rhs,
        energy_margin=margin,
        nondeg_lhs=nondeg_lhs,
        nondeg_rhs=nondeg_rhs,
        nondeg_margin=nondeg_rhs - nondeg_lhs,
        chi=chi,
        consistent=bool(margin >= -1e-10 * scale),
    )
