"""Reference code that only the tests call, and that they compare against.

The library keeps its operators as tridiagonal bands and evaluates quotients
along the nodal directions only.  The tests check it against what is kept
here: dense expansions of the bands, nodal interpolation of continuous
functions with its relative error, the certificate audit on dense matrices
with a full SVD, the quotient R(u, v) for any cone pair,
the discrete Picone identity with the superlinearity energy bound
(acceptance criteria 5, 6 and 9) and the condition-(U) rates (criterion 7).

For a symmetric matrix A with nonpositive off-diagonal entries, u >= 0 and
v > 0 (entrywise),

    u^T A u - (A v) . (u^2 / v) = -1/2 sum_{ij} a_ij v_i v_j (u_i/v_i - u_j/v_j)^2 >= 0.

The quotients u^2/v are taken on the nodal coefficient vectors, never as
pointwise functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from minimax_fold import model, rayleigh, verification
from minimax_fold.mesh_fem import (
    Mesh1D,
    OperatorMatrix,
    build_mesh,
    element_quadrature,
    interpolant_values,
)
from minimax_fold.minimax_solver import MinimaxCertificate
from minimax_fold.model import ConeError, FEField, ProblemSpec
from minimax_fold.rayleigh import TOL_DENOM, DenominatorError, GalerkinTerms, galerkin_terms

# ---------------------------------------------------------------------------
# mesh and finite-element references


def distance_to_boundary(x):
    """d(x) = min(x, 1 - x), distance to the endpoints of (0, 1)."""
    x = np.asarray(x, dtype=float)
    return np.minimum(x, 1.0 - x)


def tridiag_to_dense(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Dense symmetric matrix with main diagonal ``diag`` and off-diagonal ``off``."""
    a = np.diag(diag)
    if diag.size > 1:
        a += np.diag(off, 1) + np.diag(off, -1)
    return a


def to_dense(a: OperatorMatrix) -> np.ndarray:
    """The dense matrix of an ``OperatorMatrix``."""
    return tridiag_to_dense(a.diag, a.off)


def nodal_interpolate(mesh: Mesh1D, u: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Interior nodal values u(x_i) (the interpolation operator onto P1)."""
    vals = np.asarray(u(mesh.interior_nodes), dtype=float)
    if vals.shape != mesh.interior_nodes.shape:
        vals = np.broadcast_to(vals, mesh.interior_nodes.shape).astype(float)
    return vals


# relative positions used for dense per-element sampling (never exactly nodal)
_DENSE_REL = np.arange(1, 33) / 33.0


def relative_interp_error(mesh: Mesh1D, u: Callable[[np.ndarray], np.ndarray],
                          q: float) -> float:
    """Sup over a dense sample grid of |I_r u(x) - u(x)| / u(x).

    ``u`` must be positive on (0, 1) with u(0) = u(1) = 0 and bounded below by
    a multiple of the boundary distance; the lower bound is checked at the
    quadrature points only.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"exponent q must lie in (0, 1), got {q}")
    ends = np.asarray(u(np.array([0.0, 1.0])), dtype=float)
    if np.abs(ends).max() > 1e-12:
        raise ValueError("u must vanish at both endpoints")
    xq, _, _, _ = element_quadrature(mesh)
    uq = np.asarray(u(xq.ravel()), dtype=float)
    if np.any(uq <= 0.0):
        raise ValueError("u must be positive at interior sample points")
    if np.min(uq / distance_to_boundary(xq.ravel())) <= 0.0:
        raise ValueError("u is not bounded below by a multiple of d(x)")

    coeffs = nodal_interpolate(mesh, u)
    left = mesh.nodes[:-1, None]
    x_dense = (left + _DENSE_REL[None, :] * mesh.element_sizes[:, None]).ravel()
    exact = np.asarray(u(x_dense), dtype=float)
    if np.any(exact <= 0.0):
        raise ValueError("u must be positive at interior sample points")
    approx = interpolant_values(mesh, coeffs, x_dense)
    return float(np.abs(approx - exact).__truediv__(exact).max())


# ---------------------------------------------------------------------------
# the certificate audit on dense matrices


def triplets_to_dense(t: verification.Triplets) -> np.ndarray:
    """The dense matrix of the audit's (row, col, value) triplets."""
    dense = np.zeros((t.size, t.size))
    np.add.at(dense, (t.rows, t.cols), t.vals)
    return dense


def dense_audit(spec: ProblemSpec, mesh: Mesh1D,
                cert: MinimaxCertificate) -> verification.CertificateAudit:
    """``verify_certificate`` on the dense expansion of its loop-assembled
    operators, with a full SVD: ``sigma_min`` and ``jac_norm`` are the
    extreme singular values of J, and J is singular enough when
    sigma_min <= 1e-6 |J|_2, or |J|_2 <= 1e-12 times the scale of its terms.
    Cubic in m*n; a reference up to m*n of a few thousand."""
    m, n = spec.m, mesh.n_interior
    u, v, lam, mu = cert.u_star, cert.v_star, cert.lambda_star, cert.mu

    system = verification.oracle_assembly(spec, mesh, u)
    stiff, jac_a, mass_g = (triplets_to_dense(t)
                            for t in (system.stiff, system.jac_a, system.mass_g))
    f_load, g_load = system.f_load, system.g_load
    action = (stiff @ u.values.ravel()).reshape(m, n)
    res = (action - f_load - lam * g_load).ravel()
    primal_scale = max(np.abs(action).max(), np.abs(f_load).max(),
                       abs(lam) * np.abs(g_load).max(), 1e-300)
    primal = float(np.abs(res).max() / primal_scale)

    jac = jac_a - lam * mass_g
    svals = np.linalg.svd(jac, compute_uv=False)
    jac_scale = max(np.abs(jac_a).max(), abs(lam) * np.abs(mass_g).max(), 1e-300)
    v_flat = v.values.ravel()
    adjoint = float(np.linalg.norm(jac.T @ v_flat)
                    / (jac_scale * max(np.linalg.norm(v_flat), 1e-300)))

    quotients = (action - f_load).ravel() / g_load.ravel()
    grads = (jac_a - quotients[:, None] * mass_g) / g_load.ravel()[:, None]
    row_mag = (np.linalg.norm(jac_a, axis=1)
               + np.abs(quotients) * np.linalg.norm(mass_g, axis=1)) / g_load.ravel()
    stationarity = float(np.linalg.norm(grads.T @ mu) / max(float(row_mag.max()), 1e-300))
    complementarity = float((mu * np.abs(lam - quotients)).max() / (1.0 + abs(lam)))

    stored = np.array([cert.primal_residual, cert.adjoint_residual,
                       cert.stationarity_residual, cert.complementarity_residual])
    recomputed = np.array([primal, adjoint, stationarity, complementarity])
    singular_enough = svals[-1] <= 1e-6 * svals[0] or svals[0] <= 1e-12 * jac_scale
    tol = verification._TOL
    valid = bool(primal < tol and adjoint < tol and stationarity < tol
                 and complementarity < tol and singular_enough
                 and v.nonnegative and u.interior)
    return verification.CertificateAudit(
        valid=valid, primal_residual=primal, adjoint_residual=adjoint,
        stationarity_residual=stationarity, complementarity_residual=complementarity,
        sigma_min=float(svals[-1]), jac_norm=float(svals[0]),
        max_stored_discrepancy=float(np.abs(stored - recomputed).max()))


# ---------------------------------------------------------------------------
# the quotient of a cone pair


def rayleigh_quotient(spec: ProblemSpec, mesh: Mesh1D, u: FEField, v: FEField,
                      terms: GalerkinTerms | None = None) -> float:
    """Evaluate R(u, v) = [a_m(u, v) - <f(u), v>] / <g(u), v>."""
    if not u.nonnegative or not v.nonnegative:
        raise ConeError("rayleigh quotient requires closed-cone fields")
    if terms is None:
        terms = galerkin_terms(spec, mesh, u)
    numerator = float(((terms.stiff_action - terms.f_load) * v.values).sum())
    denominator = float((terms.g_load * v.values).sum())
    if denominator <= TOL_DENOM:
        raise DenominatorError(
            f"<g(u), v> = {denominator:.3e} <= {TOL_DENOM:.0e}; quotient undefined"
        )
    return numerator / denominator


# ---------------------------------------------------------------------------
# discrete Picone inequalities and the compactness-energy diagnostics


@dataclass(frozen=True)
class PiconeGap:
    """gap = u^T A u - (A v).(u^2/v) together with its quadratic-form value."""

    gap: float
    decomposition_sum: float
    scale: float


def _as_dense(a) -> np.ndarray:
    if isinstance(a, OperatorMatrix):
        return to_dense(a)
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
    terms = galerkin_terms(spec, mesh, u, blocks)
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


# ---------------------------------------------------------------------------
# condition (U): interpolation and quotient-approximation rates


def exact_unit_source_profile(q: float):
    """Closed-form w with -w'' = d(x)^q, w(0) = w(1) = 0 (admissible probe).

    On [0, 1/2]: w(x) = c1 x - x^(2+q) / ((1+q)(2+q)), c1 = (1/2)^(1+q)/(1+q);
    mirrored on [1/2, 1].
    """
    c1 = 0.5 ** (1.0 + q) / (1.0 + q)
    denom = (1.0 + q) * (2.0 + q)

    def w(x):
        x = np.asarray(x, dtype=float)
        xm = np.minimum(x, 1.0 - x)
        return c1 * xm - np.power(xm, 2.0 + q) / denom

    def neg_second(x):
        return distance_to_boundary(x) ** q

    return w, neg_second


@dataclass(frozen=True)
class ProbeRow:
    probe: str
    n: int
    h: float
    rel_interp_error: float
    r_sup_diff: float
    admissible: bool


@dataclass(frozen=True)
class ConditionUReport:
    """Decay of the relative interpolation error and of sup_i |R(u) - R(I_r u)|."""

    rows: tuple
    slopes: dict

    def slope(self, probe: str) -> Optional[float]:
        return self.slopes.get(probe)


_HIGH_ORDER_POINTS = 12


def _high_order_loads(spec: ProblemSpec, mesh: Mesh1D, u_fn):
    """Loads <f(u), psi_i>, <g(u), psi_i> for a continuous u, with the
    ``_HIGH_ORDER_POINTS``-point Gauss rule on each element."""
    from numpy.polynomial.legendre import leggauss

    pts, wts = leggauss(_HIGH_ORDER_POINTS)
    pts = 0.5 * (pts + 1.0)
    wts = 0.5 * wts
    n = mesh.n_interior
    f_load = np.zeros((spec.m, n))
    g_load = np.zeros((spec.m, n))
    for e in range(mesh.n_elements):
        x_l = float(mesh.nodes[e])
        h = float(mesh.element_sizes[e])
        x = x_l + pts * h
        w = wts * h
        lam_r = pts
        lam_l = 1.0 - pts
        t = np.tile(np.asarray(u_fn(x), dtype=float), (spec.m, 1))
        fv = np.asarray(spec.f(x, t), dtype=float)
        gv = model.g_values(spec, x, t)
        for local, lam in ((e - 1, lam_l), (e, lam_r)):
            if 0 <= local < n:
                f_load[:, local] += (fv * lam * w).sum(axis=1)
                g_load[:, local] += (gv * lam * w).sum(axis=1)
    return f_load, g_load


def _continuous_quotients(spec: ProblemSpec, mesh: Mesh1D, u_fn) -> np.ndarray:
    """R(u, eta_i) for a continuous scalar u: the principal part integrates exactly.

    a(u, eta_i) = sum_e psi_i'|_e (u(right) - u(left)) because the P1 test
    derivative is constant per element.
    """
    jumps = np.asarray(u_fn(mesh.nodes[1:]), dtype=float) \
        - np.asarray(u_fn(mesh.nodes[:-1]), dtype=float)
    slopes = 1.0 / mesh.element_sizes
    # psi_i rises on the element left of node i and falls on the one right of it
    a_pair = slopes[:-1] * jumps[:-1] - slopes[1:] * jumps[1:]
    f_load, g_load = _high_order_loads(spec, mesh, u_fn)
    return (a_pair[None, :] - f_load).ravel() / g_load.ravel()


def condition_u_check(spec: ProblemSpec, mesh_sizes: Sequence[int],
                      probes=None) -> ConditionUReport:
    """Interpolation-error and quotient-approximation decay for admissible probes.

    Each probe is (name, u, neg_second_derivative_or_None).  Probes must be
    positive in (0, 1), vanish at the endpoints and have 0 <= -u'' bounded by
    a multiple of d(x)^q (checked by sampling; inadmissible probes are
    reported per row, not fatal).
    """
    if spec.m != 1:
        raise ValueError("condition-(U) probes are scalar")
    if probes is None:
        w, neg = exact_unit_source_profile(spec.q)
        probes = [("unit_source_profile", w, neg)]

    xs = np.linspace(1e-4, 1.0 - 1e-4, 2001)
    rows = []
    for name, u_fn, neg_second in probes:
        u_vals = np.asarray(u_fn(xs), dtype=float)
        admissible = bool(np.all(u_vals > 0.0)
                          and abs(float(u_fn(np.array([0.0]))[0])) < 1e-12
                          and abs(float(u_fn(np.array([1.0]))[0])) < 1e-12)
        if neg_second is not None and admissible:
            nv = np.asarray(neg_second(xs), dtype=float)
            dq = distance_to_boundary(xs) ** spec.q
            admissible = bool(np.all(nv >= -1e-10) and np.all(nv <= 1e6 * dq + 1e-10))
        for n in mesh_sizes:
            mesh = build_mesh(int(n))
            try:
                rel = relative_interp_error(mesh, u_fn, spec.q)
            except ValueError:
                rows.append(ProbeRow(name, int(n), mesh.h_max, math.nan, math.nan, False))
                continue
            exact_q = _continuous_quotients(spec, mesh, u_fn)
            interp = FEField(mesh, nodal_interpolate(mesh, u_fn)[None, :])
            approx_q = rayleigh.inner_min(spec, mesh, interp).quotients
            sup_diff = float(np.abs(exact_q - approx_q).max())
            rows.append(ProbeRow(name, int(n), mesh.h_max, rel, sup_diff, admissible))

    slopes = {}
    for name in {r.probe for r in rows}:
        sel = [r for r in rows if r.probe == name and r.admissible and r.rel_interp_error > 0]
        if len(sel) >= 3:
            hs = np.log([r.h for r in sel])
            es = np.log([r.rel_interp_error for r in sel])
            slopes[name] = float(np.polyfit(hs, es, 1)[0])
    return ConditionUReport(rows=tuple(rows), slopes=slopes)
