"""Independent recomputation of certificate residuals.

Everything here is assembled from scratch with plain per-element loops and
dense matrices, deliberately sharing no code with the production assembly in
``mesh_fem``/``model``.  The quadrature rule is the same 2-point Gauss rule
(the certificate is defined with respect to it); only the code path differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh_fem import Mesh1D
from .minimax_solver import MinimaxCertificate
from .model import FEField, ProblemSpec

_GAUSS_REL = (0.5 - 0.5 / 3**0.5, 0.5 + 0.5 / 3**0.5)
_TOL = 1e-8


def _coeff(co, x):
    if callable(co):
        return float(np.broadcast_to(np.asarray(co(np.asarray([x]))), (1,))[0])
    return float(co)


def _gauss_points(mesh: Mesh1D):
    pts = []
    for e in range(mesh.n_elements):
        x_l = float(mesh.nodes[e])
        h = float(mesh.element_sizes[e])
        for rel in _GAUSS_REL:
            pts.append((e, x_l + rel * h, 0.5 * h, 1.0 - rel, rel))
    return pts


def _field_at(mesh: Mesh1D, values: np.ndarray, e: int, lam_l: float, lam_r: float):
    full = np.zeros(mesh.nodes.size)
    full[1:-1] = values
    return lam_l * full[e] + lam_r * full[e + 1]


def oracle_loads(spec: ProblemSpec, mesh: Mesh1D, u: FEField):
    """Loop-assembled (<f(u), psi_i>, <g(u), psi_i>), shapes (m, n_interior)."""
    m, n = spec.m, mesh.n_interior
    f_load = np.zeros((m, n))
    g_load = np.zeros((m, n))
    for e, x, w, lam_l, lam_r in _gauss_points(mesh):
        t = np.array([[_field_at(mesh, u.values[k], e, lam_l, lam_r)] for k in range(m)])
        fv = np.asarray(spec.f(np.array([x]), t), dtype=float)[:, 0]
        gv = np.array([_coeff(spec.a_coeff[k], x) * t[k, 0] ** spec.q for k in range(m)])
        for local, lam in ((e - 1, lam_l), (e, lam_r)):
            if 0 <= local < n:
                f_load[:, local] += w * lam * fv
                g_load[:, local] += w * lam * gv
    return f_load, g_load


def oracle_stiffness(spec: ProblemSpec, mesh: Mesh1D):
    """Loop-assembled dense component stiffness matrices."""
    n = mesh.n_interior
    mats = [np.zeros((n, n)) for _ in range(spec.m)]
    for e, x, w, lam_l, lam_r in _gauss_points(mesh):
        h = float(mesh.element_sizes[e])
        for k in range(spec.m):
            sig = _coeff(spec.sigma[k], x)
            cc = _coeff(spec.c[k], x)
            locals_ = ((e - 1, -1.0 / h, lam_l), (e, 1.0 / h, lam_r))
            for ia, da, la in locals_:
                if not 0 <= ia < n:
                    continue
                for ib, db, lb in locals_:
                    if 0 <= ib < n:
                        mats[k][ia, ib] += w * (sig * da * db + cc * la * lb)
    return mats


def oracle_jacobian(spec: ProblemSpec, mesh: Mesh1D, u: FEField, lam: float):
    """Loop-assembled dense Jacobian of the residual at (u, lambda)."""
    m, n = spec.m, mesh.n_interior
    big = m * n
    jac = np.zeros((big, big))
    stiff = oracle_stiffness(spec, mesh)
    for k in range(m):
        sl = slice(k * n, (k + 1) * n)
        jac[sl, sl] += stiff[k]
    for e, x, w, lam_l, lam_r in _gauss_points(mesh):
        t = np.array([[_field_at(mesh, u.values[k], e, lam_l, lam_r)] for k in range(m)])
        fj = np.asarray(spec.f_jac(np.array([x]), t), dtype=float)[:, :, 0]
        gt = np.array([spec.q * _coeff(spec.a_coeff[k], x) * t[k, 0] ** (spec.q - 1.0)
                       for k in range(m)])
        locals_ = ((e - 1, lam_l), (e, lam_r))
        for ia, la in locals_:
            if not 0 <= ia < n:
                continue
            for ib, lb in locals_:
                if not 0 <= ib < n:
                    continue
                for k in range(m):
                    for l in range(m):
                        jac[k * n + ia, l * n + ib] -= w * la * lb * fj[k, l]
                    jac[k * n + ia, k * n + ib] -= lam * w * la * lb * gt[k]
    return jac


@dataclass(frozen=True)
class CertificateAudit:
    """Residuals recomputed from scratch, plus agreement with the stored ones."""

    valid: bool
    primal_residual: float
    adjoint_residual: float
    stationarity_residual: float
    complementarity_residual: float
    sigma_min: float
    jac_norm: float
    max_stored_discrepancy: float


def verify_certificate(spec: ProblemSpec, mesh: Mesh1D,
                       cert: MinimaxCertificate) -> CertificateAudit:
    """Recompute all certificate residuals on the independent oracle path.

    VALID requires the four recomputed relative residuals below ``_TOL``
    (1e-8, the solver's bar ``_TOL_CERT``) and sigma_min(J) below 1e-6 * |J|
    (dense SVD).
    """
    m, n = spec.m, mesh.n_interior
    u, v, lam, mu = cert.u_star, cert.v_star, cert.lambda_star, cert.mu

    f_load, g_load = oracle_loads(spec, mesh, u)
    stiff = oracle_stiffness(spec, mesh)
    action = np.stack([stiff[k] @ u.values[k] for k in range(m)])
    res = (action - f_load - lam * g_load).ravel()
    primal_scale = max(np.abs(action).max(), np.abs(f_load).max(),
                       abs(lam) * np.abs(g_load).max(), 1e-300)
    primal = float(np.abs(res).max() / primal_scale)

    jac = oracle_jacobian(spec, mesh, u, lam)
    svals = np.linalg.svd(jac, compute_uv=False)
    jac_norm = float(svals[0])
    sigma_min = float(svals[-1])

    mass_g = _oracle_mass_g(spec, mesh, u)
    jac_a = jac + lam * mass_g  # stiffness minus reaction mass
    jac_scale = max(np.abs(jac_a).max(), abs(lam) * np.abs(mass_g).max(), 1e-300)

    v_flat = v.values.ravel()
    adjoint = float(np.linalg.norm(jac.T @ v_flat)
                    / (jac_scale * max(np.linalg.norm(v_flat), 1e-300)))

    numer = (action - f_load).ravel()
    denom = g_load.ravel()
    quotients = numer / denom
    grads = (jac_a - quotients[:, None] * mass_g) / denom[:, None]
    row_mag = (np.linalg.norm(jac_a, axis=1)
               + np.abs(quotients) * np.linalg.norm(mass_g, axis=1)) / denom
    grad_scale = max(float(row_mag.max()), 1e-300)
    stationarity = float(np.linalg.norm(grads.T @ mu) / grad_scale)
    complementarity = float((mu * np.abs(lam - quotients)).max() / (1.0 + abs(lam)))

    stored = np.array([cert.primal_residual, cert.adjoint_residual,
                       cert.stationarity_residual, cert.complementarity_residual])
    recomputed = np.array([primal, adjoint, stationarity, complementarity])
    discrepancy = float(np.abs(stored - recomputed).max())

    singular_enough = sigma_min <= 1e-6 * jac_norm or jac_norm <= 1e-12 * jac_scale
    valid = bool(primal < _TOL and adjoint < _TOL and stationarity < _TOL
                 and complementarity < _TOL and singular_enough
                 and v.nonnegative and u.interior)
    return CertificateAudit(
        valid=valid,
        primal_residual=primal,
        adjoint_residual=adjoint,
        stationarity_residual=stationarity,
        complementarity_residual=complementarity,
        sigma_min=sigma_min,
        jac_norm=jac_norm,
        max_stored_discrepancy=discrepancy,
    )


def _oracle_mass_g(spec: ProblemSpec, mesh: Mesh1D, u: FEField):
    m, n = spec.m, mesh.n_interior
    big = m * n
    mass = np.zeros((big, big))
    for e, x, w, lam_l, lam_r in _gauss_points(mesh):
        t = np.array([[_field_at(mesh, u.values[k], e, lam_l, lam_r)] for k in range(m)])
        gt = np.array([spec.q * _coeff(spec.a_coeff[k], x) * t[k, 0] ** (spec.q - 1.0)
                       for k in range(m)])
        locals_ = ((e - 1, lam_l), (e, lam_r))
        for ia, la in locals_:
            if not 0 <= ia < n:
                continue
            for ib, lb in locals_:
                if 0 <= ib < n:
                    for k in range(m):
                        mass[k * n + ia, k * n + ib] += w * la * lb * gt[k]
    return mass
