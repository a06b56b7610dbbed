"""Independent recomputation of certificate residuals.

Everything here is assembled from scratch with plain per-element loops,
deliberately sharing no code with the production assembly in
``mesh_fem``/``model``/``rayleigh``.  The quadrature rule is the same 2-point
Gauss rule (the certificate is defined with respect to it); only the code
path differs.

The loops write the stiffness, the Jacobian and the reaction mass as
(row, col, value) triplets, and every product and row or column norm is an
``np.bincount`` over them, so the audit takes time and memory linear in
``m * n``.  It takes no factorization: the singularity test rests on two norm
inequalities (Golub and Van Loan, *Matrix Computations*, 4th ed., 2.3),

    sigma_min(J) <= |J^T w|_2 / |w|_2          for every w != 0,
    max_j |J e_j|_2 <= |J|_2 <= sqrt(|J|_1 |J|_inf).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh_fem import Mesh1D
from .minimax_solver import MinimaxCertificate
from .model import FEField, ProblemSpec

_GAUSS_REL = (0.5 - 0.5 / 3**0.5, 0.5 + 0.5 / 3**0.5)
_TOL = 1e-8


def _coeff(co, x: np.ndarray) -> np.ndarray:
    """A coefficient (constant or function of x) at the points ``x``."""
    return np.broadcast_to(np.asarray(co(x) if callable(co) else co, dtype=float), x.shape)


@dataclass(frozen=True)
class Triplets:
    """A square matrix of order ``size`` as (row, col, value) arrays, one
    entry per position."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    size: int

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, weights=self.vals * x[self.cols], minlength=self.size)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.cols, weights=self.vals * x[self.rows], minlength=self.size)

    def row_sums(self, power: int) -> np.ndarray:
        """sum_j |a_ij|^power for every row i."""
        return np.bincount(self.rows, weights=np.abs(self.vals) ** power, minlength=self.size)

    def col_sums(self, power: int) -> np.ndarray:
        """sum_i |a_ij|^power for every column j."""
        return np.bincount(self.cols, weights=np.abs(self.vals) ** power, minlength=self.size)


@dataclass(frozen=True)
class OracleSystem:
    """Loop-assembled loads and operators at u, component-major of order m*n.

    The three operators share one pattern.  ``jac_a`` is the stiffness minus
    the reaction Jacobian mass <f'(u) psi_j, psi_i>; the Jacobian of the
    residual at lambda is ``jac_a - lambda * mass_g``.
    """

    f_load: np.ndarray  # <f(u), psi_i>, shape (m, n)
    g_load: np.ndarray  # <g(u), psi_i>, shape (m, n)
    stiff: Triplets  # the block-diagonal stiffness a_k(psi_j, psi_i)
    jac_a: Triplets
    mass_g: Triplets  # <g'(u) psi_j, psi_i>

    def jacobian(self, lam: float) -> Triplets:
        a = self.jac_a
        return Triplets(a.rows, a.cols, a.vals - lam * self.mass_g.vals, a.size)


def oracle_assembly(spec: ProblemSpec, mesh: Mesh1D, u: FEField) -> OracleSystem:
    """Loads and operators at u, from a loop over the Gauss points of every element.

    The loop writes each point's contributions to the element's two local
    hat functions, and to their four pairs, into preallocated value arrays.
    The rows and columns follow from the element alone; the entries of a
    boundary node are dropped, and those at one position are summed.
    """
    m, n = spec.m, mesh.n_interior
    sizes = mesh.element_sizes.tolist()
    elem = np.repeat(np.arange(mesh.n_elements), len(_GAUSS_REL))
    x = np.array([x_l + rel * h for x_l, h in zip(mesh.nodes.tolist(), sizes)
                  for rel in _GAUSS_REL])
    full = np.zeros((m, mesh.nodes.size))
    full[:, 1:-1] = u.values
    t = np.array([[(1.0 - rel) * left + rel * right for left, right in zip(comp[:-1], comp[1:])
                   for rel in _GAUSS_REL] for comp in full.tolist()])  # (m, points)
    a = np.stack([_coeff(co, x) for co in spec.a_coeff])
    # per point: f^k, g^k = a_k t_k^q, its derivative, sigma_k, c_k, then df^k/dt_l
    per_point = np.concatenate([np.asarray(spec.f(x, t), dtype=float), a * t**spec.q,
                                spec.q * a * t ** (spec.q - 1.0),
                                np.stack([_coeff(co, x) for co in spec.sigma]),
                                np.stack([_coeff(co, x) for co in spec.c]),
                                np.asarray(spec.f_jac(x, t), dtype=float).reshape(m * m, -1)])
    loads = np.zeros((2, x.size, 2, m))  # [f or g, point, local function, component]
    # [stiffness, f'-mass, g'-mass][point, test function, trial function, component, component]
    local = np.zeros((3, x.size, 2, 2, m, m))
    comps, sides = tuple(range(m)), (0, 1)  # loop ranges, built once
    for p, (e, vals) in enumerate(zip(elem.tolist(), per_point.T.tolist())):
        h = sizes[e]
        w, rel = 0.5 * h, _GAUSS_REL[p % 2]
        hat, slope = (1.0 - rel, rel), (-1.0 / h, 1.0 / h)
        for ia in sides:
            for k in comps:
                loads[0, p, ia, k] = w * hat[ia] * vals[k]
                loads[1, p, ia, k] = w * hat[ia] * vals[m + k]
            for ib in sides:
                mass = w * hat[ia] * hat[ib]
                for k in comps:
                    local[0, p, ia, ib, k, k] = w * (vals[3 * m + k] * slope[ia] * slope[ib]
                                                     + vals[4 * m + k] * hat[ia] * hat[ib])
                    local[2, p, ia, ib, k, k] = mass * vals[2 * m + k]
                    for l in comps:
                        local[1, p, ia, ib, k, l] = mass * vals[5 * m + k * m + l]
    node = elem[:, None] + np.arange(-1, 1)  # node e - 1 + i of local function i
    inside = (node >= 0) & (node < n)
    index = node[:, :, None] + np.arange(m) * n  # (point, local function, component)
    big = m * n
    f_load, g_load = (np.bincount(index[inside].ravel(), weights=load[inside].ravel(),
                                  minlength=big)
                      for load in loads)
    shape = local.shape[1:]
    keep = np.broadcast_to((inside[:, :, None] & inside[:, None, :])[..., None, None], shape)
    rows = np.broadcast_to(index[:, :, None, :, None], shape)[keep]
    cols = np.broadcast_to(index[:, None, :, None, :], shape)[keep]
    key, inverse = np.unique(rows * big + cols, return_inverse=True)
    stiff, jac_a, mass_g = (
        Triplets(key // big, key % big, np.bincount(inverse, weights=vals[keep]), big)
        for vals in (local[0], local[0] - local[1], local[2]))
    return OracleSystem(f_load=f_load.reshape(m, n), g_load=g_load.reshape(m, n),
                        stiff=stiff, jac_a=jac_a, mass_g=mass_g)


@dataclass(frozen=True)
class CertificateAudit:
    """Residuals recomputed from scratch, plus agreement with the stored ones.

    ``sigma_min`` is |J^T v*|_2 / |v*|_2, an upper bound on the smallest
    singular value of the recomputed Jacobian J, and ``jac_norm`` is
    max_j |J e_j|_2, a lower bound on |J|_2.
    """

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
    (1e-8, the solver's bar ``_TOL_CERT``) and J singular to working
    precision: |J^T v*| / |v*| <= 1e-6 max_j |J e_j|, which implies
    sigma_min(J) <= 1e-6 |J|_2, or J itself at roundoff,
    sqrt(|J|_1 |J|_inf) <= 1e-12 times the scale of its terms.
    """
    m, n = spec.m, mesh.n_interior
    u, v, lam, mu = cert.u_star, cert.v_star, cert.lambda_star, cert.mu

    system = oracle_assembly(spec, mesh, u)
    f_load, g_load = system.f_load, system.g_load
    action = system.stiff.matvec(u.values.ravel()).reshape(m, n)
    res = (action - f_load - lam * g_load).ravel()
    primal_scale = max(np.abs(action).max(), np.abs(f_load).max(),
                       abs(lam) * np.abs(g_load).max(), 1e-300)
    primal = float(np.abs(res).max() / primal_scale)

    jac, jac_a, mass_g = system.jacobian(lam), system.jac_a, system.mass_g
    jac_scale = max(np.abs(jac_a.vals).max(), abs(lam) * np.abs(mass_g.vals).max(), 1e-300)
    v_flat = v.values.ravel()
    sigma_min = float(np.linalg.norm(jac.rmatvec(v_flat)) / max(np.linalg.norm(v_flat), 1e-300))
    adjoint = sigma_min / jac_scale
    jac_norm = float(np.sqrt(jac.col_sums(2).max()))
    jac_norm_upper = float(np.sqrt(jac.col_sums(1).max() * jac.row_sums(1).max()))

    numer = (action - f_load).ravel()
    denom = g_load.ravel()
    quotients = numer / denom
    # the gradient of quotient i is (row i of jac_a - quotient_i row i of mass_g) / denom_i
    weights = mu / denom
    grad_mu = jac_a.rmatvec(weights) - mass_g.rmatvec(quotients * weights)
    row_mag = (np.sqrt(jac_a.row_sums(2))
               + np.abs(quotients) * np.sqrt(mass_g.row_sums(2))) / denom
    grad_scale = max(float(row_mag.max()), 1e-300)
    stationarity = float(np.linalg.norm(grad_mu) / grad_scale)
    complementarity = float((mu * np.abs(lam - quotients)).max() / (1.0 + abs(lam)))

    stored = np.array([cert.primal_residual, cert.adjoint_residual,
                       cert.stationarity_residual, cert.complementarity_residual])
    recomputed = np.array([primal, adjoint, stationarity, complementarity])
    discrepancy = float(np.abs(stored - recomputed).max())

    singular_enough = sigma_min <= 1e-6 * jac_norm or jac_norm_upper <= 1e-12 * jac_scale
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
