"""Cooperative elliptic reaction systems with a sublinear parameter term.

A problem instance couples m scalar operators L_k u = -(sigma_k u')' + c_k u
with a reaction f(x, u) and the parameter term g_k(x, u) = a_k(x) * u_k^q,
0 < q < 1.  The structural hypotheses (sublinear diagonal parameter term,
growth bounds, cooperativity, theta-superlinearity, boundary degeneracy) are
checked by sampling; they cannot be proved for black-box callables.

The Galerkin Jacobian is block-tridiagonal (each of its m x m blocks is a
tridiagonal matrix), so ``jacobian_parts`` assembles it on an (m*n, 3m)
band, and dense matrices are expanded only on request.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import mesh_fem
from .mesh_fem import Coefficient, Mesh1D

# Reaction callbacks receive x of shape (P,) and t of shape (m, P) and return
# arrays of shape (m, P), (m, m, P) and (m, m, m, P) respectively.
ReactionValue = Callable[[np.ndarray, np.ndarray], np.ndarray]
ReactionJacobian = Callable[[np.ndarray, np.ndarray], np.ndarray]
ReactionHessian = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: relative floor for the open-cone guard: fields with a coefficient below
#: CONE_FLOOR_REL * max(coefficients) are rejected where the linearization of
#: the parameter term (t^{q-1} singularity at 0) is evaluated.
CONE_FLOOR_REL = 1e-12


class ConeError(ValueError):
    """A field violates the positivity required by the discrete cone."""


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Immutable description of the m-component system.

    ``a_bounds = (a_0, a_1)`` are the declared bounds of the parameter-term
    coefficients a_k.  ``f_hess`` is optional; it is only needed by the
    fold-polishing Newton stage, which falls back to finite differences when
    it is absent.  ``diagnostic`` marks the linear eigenvalue mode (q = 1,
    f = 0) that is used solely to cross-check the solver against a
    generalized eigensolver.
    """

    m: int
    sigma: tuple
    c: tuple
    a_coeff: tuple
    a_bounds: tuple
    q: float
    f: ReactionValue
    f_jac: ReactionJacobian
    gamma0: float
    gamma: float
    theta: float
    f_hess: Optional[ReactionHessian] = None
    diagnostic: bool = False
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("component count m must be >= 1")
        for label, coeffs in (("sigma", self.sigma), ("c", self.c), ("a_coeff", self.a_coeff)):
            if len(coeffs) != self.m:
                raise ValueError(f"{label} must supply one coefficient per component")
        a0, a1 = self.a_bounds
        if not 0.0 < a0 <= a1:
            raise ValueError("parameter-term bounds must satisfy 0 < a_0 <= a_1")
        if self.diagnostic:
            if self.q != 1.0:
                raise ValueError("diagnostic mode requires q = 1")
            return
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"exponent q must lie in (0, 1), got {self.q}")
        if not 1.0 < self.theta < self.gamma0 <= self.gamma:
            raise ValueError("growth constants must satisfy 1 < theta < gamma0 <= gamma")


@dataclass(frozen=True)
class FEField:
    """m x n_interior nodal coefficients of a vector P1 field."""

    mesh: Mesh1D
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[1] != self.mesh.n_interior:
            raise ValueError(
                f"field shape {vals.shape} does not match mesh with "
                f"{self.mesh.n_interior} interior nodes"
            )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def interior(self) -> bool:
        """Membership in the open cone: all coefficients strictly positive."""
        return bool(np.all(self.values > 0.0))

    @property
    def nonnegative(self) -> bool:
        return bool(np.all(self.values >= 0.0))

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self.values).max()) if self.values.size else 0.0

    def flatten(self) -> np.ndarray:
        return self.values.ravel().copy()

    def evaluate(self, x) -> np.ndarray:
        """Pointwise values of the P1 field, shape (m, len(x))."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.stack([mesh_fem.interpolant_values(self.mesh, row, x)
                         for row in self.values])

    def transfer_to(self, mesh: Mesh1D) -> "FEField":
        """Re-interpolate onto another mesh (nodal evaluation of the P1 field)."""
        return FEField(mesh, self.evaluate(mesh.interior_nodes))

    @staticmethod
    def from_flat(mesh: Mesh1D, m: int, flat: np.ndarray) -> "FEField":
        return FEField(mesh, np.asarray(flat, dtype=float).reshape(m, mesh.n_interior))


def _cone_bounds(u):
    """Smallest coefficient and relative cone floor of each field of ``u``."""
    values = u.values if isinstance(u, FEField) else np.asarray(u, dtype=float)
    low = np.atleast_1d(values.min(axis=(-2, -1)))
    return low, CONE_FLOOR_REL * np.atleast_1d(np.abs(values).max(axis=(-2, -1)))


def in_open_cone(u) -> np.ndarray:
    """Per field of ``u`` (as in ``require_open_cone``), whether that check
    accepts it: one bool per field of a stack, one in all for an FEField."""
    low, floor = _cone_bounds(u)
    return (low > 0.0) & (low >= floor)


def require_open_cone(u, context: str = "operation") -> None:
    """Reject fields outside the open cone or below the relative floor.

    ``u`` is an FEField, or coefficients (S, m, n_interior) of a stack of S
    fields; each field of a stack is held to the floor of its own sup norm.
    """
    low, floor = _cone_bounds(u)
    if not np.all(low > 0.0):
        raise ConeError(f"{context} requires a field in the open cone")
    below = np.flatnonzero(low < floor)
    if below.size:
        i = below[0]
        raise ConeError(f"{context}: coefficient {low[i]:.3e} below cone floor {floor[i]:.3e}")


# ---------------------------------------------------------------------------
# parameter term g_k(x, t) = a_k(x) t_k^q and its t-derivatives


def _coefficient_samples(coeffs: tuple, x: np.ndarray) -> np.ndarray:
    return np.stack([mesh_fem._sample(co, x) for co in coeffs])


def g_values(spec: ProblemSpec, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    a = _coefficient_samples(spec.a_coeff, x)
    return a * np.power(t, spec.q)


def g_t_values(spec: ProblemSpec, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    a = _coefficient_samples(spec.a_coeff, x)
    return spec.q * a * np.power(t, spec.q - 1.0)


def g_tt_values(spec: ProblemSpec, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    if spec.q == 1.0:
        return np.zeros_like(t)
    a = _coefficient_samples(spec.a_coeff, x)
    return spec.q * (spec.q - 1.0) * a * np.power(t, spec.q - 2.0)


def quadrature_samples(spec: ProblemSpec, mesh: Mesh1D, values: np.ndarray):
    """Quadrature samples of P1 fields with coefficients ``values``.

    ``values`` is (m, n) for one field or (S, m, n) for a stack of S fields.
    Returns x flat over P points, t over (m, P), and the shape ([S,]
    n_elements, 2) the P samples of one component fold back to; a stack puts
    its points one field after another.
    """
    xq, _, _, _ = mesh_fem.element_quadrature(mesh)
    tq = mesh_fem.values_at_quadrature(mesh, values)
    shape = tq.shape[:-3] + tq.shape[-2:]
    x = np.tile(xq.ravel(), math.prod(tq.shape[:-3]))
    return x, tq.swapaxes(0, -3).reshape(spec.m, -1), shape


def eval_residual_terms(spec: ProblemSpec, mesh: Mesh1D, u, samples=None):
    """Load vectors (<f(u), psi_i>, <g(u), psi_i>), each of shape (m, n_interior).

    ``u`` is an FEField, or coefficients (S, m, n_interior) of a stack of S
    fields; a stack is sampled in one call to each reaction callback, and
    its loads come back shaped (S, m, n_interior).  ``samples`` passes the
    ``quadrature_samples`` of ``u`` when the caller already holds them.
    """
    values = u.values if isinstance(u, FEField) else np.asarray(u, dtype=float)
    if not np.all(values >= 0.0):
        raise ConeError("residual terms require a field in the closed cone")
    x, t, shape = quadrature_samples(spec, mesh, values) if samples is None else samples
    fv = np.asarray(spec.f(x, t), dtype=float)
    if not np.all(np.isfinite(fv)):
        raise ValueError("reaction sample is not finite")
    samples = np.stack([fv, g_values(spec, x, t)]).reshape((2, spec.m) + shape)
    f_load, g_load = mesh_fem.quadrature_loads(mesh, samples.swapaxes(1, -3))
    return f_load, g_load


def stiffness_blocks(spec: ProblemSpec, mesh: Mesh1D) -> tuple:
    return tuple(
        mesh_fem.assemble_stiffness(mesh, spec.sigma[k], spec.c[k])
        for k in range(spec.m)
    )


@functools.lru_cache(maxsize=16)
def band_pattern(m: int, n: int):
    """Where the entries of an (m*n, 3m) band sit in the dense (m*n, m*n) matrix.

    Band entry (k*n + i, 3*l + s) couples unknown (k, i) with (l, i + s - 1).
    Returns read-only (flat band index, row, column) of the entries whose
    neighbour lies inside the mesh, in row-major order, so columns ascend
    within a row.
    """
    i = np.arange(n)[None, :, None, None]
    j = i + np.arange(3)[None, None, None, :] - 1
    inside = np.broadcast_to((j >= 0) & (j < n), (m, n, m, 3))
    rows = np.broadcast_to(np.arange(m * n).reshape(m, n, 1, 1), inside.shape)
    cols = np.broadcast_to(np.arange(m)[None, None, :, None] * n + j, inside.shape)
    index = np.flatnonzero(inside)
    pattern = (index, rows.ravel()[index], cols.ravel()[index])
    for a in pattern:
        a.flags.writeable = False
    return pattern


def band_to_dense(band: np.ndarray, m: int, n: int) -> np.ndarray:
    """Dense (m*n, m*n) matrix of an (m*n, 3m) band (layout of ``band_pattern``).

    A stack of bands (S, m*n, 3m) gives a stack of matrices (S, m*n, m*n).
    """
    index, rows, cols = band_pattern(m, n)
    lead = band.shape[:-2]
    dense = np.zeros(lead + (m * n, m * n))
    dense[..., rows, cols] = band.reshape(lead + (-1,))[..., index]
    return dense


def band_matvec(band: np.ndarray, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """B x, or B^T x, for an (m*n, 3m) band B (layout of ``band_pattern``), flat.

    A stack of bands (S, m*n, 3m) and vectors (S, m*n) gives the (S, m*n)
    products, each equal to that of its band alone.
    """
    lead = band.shape[:-2]
    big, width = band.shape[-2:]
    m = width // 3
    n = big // m
    blocks = band.reshape(lead + (m, n, m, 3))  # [k, i, l, s] couples (k, i) with (l, i + s - 1)
    x = x.reshape(lead + (m, n))
    if not transpose:
        padded = np.zeros(lead + (m, n + 2))
        padded[..., 1:-1] = x
        neighbours = np.stack([padded[..., s:s + n] for s in range(3)], axis=-1)
        return np.einsum("...kils,...lis->...ki", blocks, neighbours).reshape(lead + (big,))
    terms = np.einsum("...kils,...ki->...lis", blocks, x)
    out = np.zeros(lead + (m, n + 2))
    for s in range(3):
        out[..., s:s + n] += terms[..., s]
    return out[..., 1:-1].reshape(lead + (big,))


def _block_diagonal_band(rows: np.ndarray) -> np.ndarray:
    """(..., m*n, 3m) band of a block-diagonal matrix from its (..., m, n, 3) block bands."""
    lead, (m, n, _) = rows.shape[:-3], rows.shape[-3:]
    band = np.zeros(lead + (m, n, m, 3))
    for k in range(m):
        band[..., k, :, k, :] = rows[..., k, :, :]
    return band.reshape(lead + (m * n, 3 * m))


@dataclass(frozen=True)
class JacobianParts:
    """Building blocks of the Galerkin Jacobian at u, stored on the band.

    Each ``*_band`` array is (m*n, 3m) in the layout of ``band_pattern``:
    entry (k*n + i, 3*l + s) couples unknown (k, i) with (l, i + s - 1), and
    entries whose neighbour lies outside the mesh are zero; the parts of a
    stack of S fields have (S, m*n, 3m) bands.  ``stiffness`` is the dense
    (m*n, m*n) stiffness, expanded on first access; ``band_to_dense``
    expands any of the bands.
    """

    m: int
    n: int
    stiffness_band: np.ndarray
    mass_f_band: np.ndarray
    mass_g_band: np.ndarray

    def jacobian_band(self, lam) -> np.ndarray:
        """Band of J(u, lambda) = stiffness - mass_f - lambda * mass_g.

        For a stack, ``lam`` may be one value per field, shaped (S, 1, 1).
        """
        return self.stiffness_band - self.mass_f_band - lam * self.mass_g_band

    def __getitem__(self, i: int) -> JacobianParts:
        """Parts of field i of a stack."""
        return JacobianParts(m=self.m, n=self.n, stiffness_band=self.stiffness_band[i],
                             mass_f_band=self.mass_f_band[i], mass_g_band=self.mass_g_band[i])

    @functools.cached_property
    def stiffness(self) -> np.ndarray:
        return band_to_dense(self.stiffness_band, self.m, self.n)


def jacobian_parts(spec: ProblemSpec, mesh: Mesh1D, u,
                   blocks: tuple | None = None, samples=None) -> JacobianParts:
    """Assemble the stiffness, reaction-mass and parameter-mass bands at u.

    Block (k, l) of the reaction mass is the tridiagonal mass matrix weighted
    by df^k/dt_l evaluated along u; the parameter mass is block diagonal with
    weights dg^k/dt_k.  Only the diagonals are assembled.  Requires u in the
    open cone (the parameter-term linearization is singular on the boundary).
    ``u`` is an FEField, or coefficients (S, m, n_interior) of a stack of S
    fields, assembled in one call to each reaction callback, with bands equal
    to those of each field alone.  ``samples`` passes the
    ``quadrature_samples`` of ``u`` when the caller already holds them.
    """
    require_open_cone(u, "jacobian assembly")
    m, n = spec.m, mesh.n_interior
    if blocks is None:
        blocks = stiffness_blocks(spec, mesh)
    values = u.values if isinstance(u, FEField) else np.asarray(u, dtype=float)
    lead = values.shape[:-2]

    x, t, shape = quadrature_samples(spec, mesh, values) if samples is None else samples
    fj = np.asarray(spec.f_jac(x, t), dtype=float).reshape((m, m) + shape)
    if not np.all(np.isfinite(fj)):
        raise ValueError("reaction Jacobian sample is not finite")
    gt = g_t_values(spec, x, t).reshape((m,) + shape)

    # one weighted-mass pass for the m*m reaction blocks and the m parameter blocks
    weights = np.concatenate([fj.reshape((m * m,) + shape), gt])
    rows = np.moveaxis(mesh_fem.tridiag_band(*mesh_fem.weighted_mass(mesh, weights)), 0, -3)
    mass_f = rows[..., :m * m, :, :].reshape(lead + (m, m, n, 3)).swapaxes(-3, -2)
    stiffness = np.broadcast_to(np.stack([blk.band for blk in blocks]), lead + (m, n, 3))
    return JacobianParts(
        m=m, n=n,
        stiffness_band=_block_diagonal_band(stiffness),
        mass_f_band=mass_f.reshape(lead + (m * n, 3 * m)),
        mass_g_band=_block_diagonal_band(rows[..., m * m:, :, :]))


def eval_jacobian(spec: ProblemSpec, mesh: Mesh1D, u: FEField, lam: float) -> np.ndarray:
    """Galerkin matrix of L - f_u(u) - lambda g_u(u), shape (m*n, m*n).

    Component blocks are ordered k-major: flat index = k * n_interior + i.
    """
    return band_to_dense(jacobian_parts(spec, mesh, u).jacobian_band(lam), spec.m, mesh.n_interior)


def adjoint_curvature(spec: ProblemSpec, mesh: Mesh1D, u, w: np.ndarray,
                      v: np.ndarray, lam) -> np.ndarray:
    """Directional second derivative C(w) v = d/de J(u + e v, lambda)^T w, flat.

    C(w) is the Hessian of u -> w . F(u, lambda), so it is symmetric and
    C(w) v is also the gradient of u -> w^T J(u, lambda) v.  With the
    analytic reaction Hessian it is one load vector with the weight
    sum_{k,l} d2f^k/dt_l dt_s w^k v^l + lambda g^s_tt w^s v^s in component s.
    Without one it is a central difference of J^T w between two band
    assemblies at u +- e v, with e small enough that both stay in the cone.

    ``u`` is an FEField, or coefficients (S, m, n_interior) of a stack of S
    fields; then ``w`` and ``v`` hold one vector per field, ``lam`` one value
    per field, and the (S, m*n) result one row per field, equal to that
    field's curvature alone.  A stack is sampled, or assembled at its 2S
    difference points, in one call.
    """
    require_open_cone(u, "adjoint curvature")
    m, n = spec.m, mesh.n_interior
    values = u.values if isinstance(u, FEField) else np.asarray(u, dtype=float)
    lead = values.shape[:-2]
    w = np.asarray(w, dtype=float).reshape(lead + (m, n))
    v = np.asarray(v, dtype=float).reshape(lead + (m, n))
    lam = np.asarray(lam, dtype=float).reshape(lead + (1, 1))
    if spec.f_hess is not None:
        x, t, shape = quadrature_samples(spec, mesh, values)
        fh = np.asarray(spec.f_hess(x, t), dtype=float).reshape((m, m, m) + shape)
        gtt = g_tt_values(spec, x, t).reshape((m,) + shape)
        # component axis first, as the samples of a stack are laid out
        wq = np.moveaxis(mesh_fem.values_at_quadrature(mesh, w), -3, 0)
        vq = np.moveaxis(mesh_fem.values_at_quadrature(mesh, v), -3, 0)
        weight = np.einsum("kls...,k...,l...->s...", fh, wq, vq) + lam * gtt * wq * vq
        loads = mesh_fem.quadrature_loads(mesh, np.moveaxis(weight, 0, -3))
        return -loads.reshape(lead + (m * n,))

    fields, ws, vs, lams = (a.reshape((-1,) + a.shape[-2:]) for a in (values, w, v, lam))
    steps = np.zeros(len(fields))
    for i, (field_i, v_i) in enumerate(zip(fields, vs)):
        size = np.abs(v_i).max()
        if size > 0.0:
            moving = v_i != 0.0
            steps[i] = min(1e-6 * (1.0 + np.abs(field_i).max()) / size,
                           0.5 * float((field_i[moving] / np.abs(v_i[moving])).min()))
    out = np.zeros((len(fields), m * n))  # a field with v = 0 has no curvature
    moved = np.flatnonzero(steps)
    if moved.size:
        # both difference points of every field in one assembly; the stiffness
        # does not depend on u, and leaving it out keeps its O(1/h) entries out
        # of the difference
        e = steps[moved, None, None]
        parts = jacobian_parts(spec, mesh, np.concatenate([fields[moved] + (-e) * vs[moved],
                                                           fields[moved] + e * vs[moved]]))
        weighted = parts.mass_f_band + np.concatenate([lams[moved]] * 2) * parts.mass_g_band
        action = band_matvec(weighted, np.concatenate([ws[moved]] * 2), transpose=True)
        out[moved] = (action[:moved.size] - action[moved.size:]) / (2.0 * steps[moved, None])
    return out.reshape(lead + (m * n,))


# ---------------------------------------------------------------------------
# structural hypothesis checks


@dataclass(frozen=True)
class HypothesisCheck:
    key: str
    description: str
    passed: bool
    margin: float
    worst_x: float
    worst_t: tuple


@dataclass(frozen=True)
class HypothesisReport:
    """Sampled verdicts for the five structural hypotheses.

    ``growth_constant`` is the fitted constant of the growth bound; it is
    reported, never asserted against a fixed value.
    """

    checks: tuple
    growth_constant: float

    def __getitem__(self, key: str) -> HypothesisCheck:
        for chk in self.checks:
            if chk.key == key:
                return chk
        raise KeyError(key)

    @property
    def all_passed(self) -> bool:
        return all(chk.passed for chk in self.checks)


_X_SAMPLES = np.arange(1, 26) / 26.0


def _t_samples(m: int) -> np.ndarray:
    """Deterministic grid in (0, 4]^m, shape (K, m): log-spaced axis values
    from 1e-3, 7 of them for m <= 2 and 4 above, full product."""
    axis = np.geomspace(1e-3, 4.0, 7 if m <= 2 else 4)
    grids = np.meshgrid(*([axis] * m), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _argmin_sample(values: np.ndarray, x: np.ndarray, t: np.ndarray):
    idx = int(np.argmin(values))
    return float(values[idx]), float(x[idx]), tuple(np.round(t[:, idx], 12))


def check_hypotheses(spec: ProblemSpec) -> HypothesisReport:
    """Sample the five structural hypotheses on a deterministic grid.

    The grid is every pair of the 25 points ``_X_SAMPLES`` in (0, 1) and the
    strictly positive t of ``_t_samples(m)``; boundary slices (one
    coordinate set to zero) are generated from it for the degeneracy check.
    A report is always produced, never an exception.
    """
    xs = _X_SAMPLES
    ts = _t_samples(spec.m)
    m = spec.m
    K, J = ts.shape[0], xs.size

    x_flat = np.repeat(xs, K)
    t_flat = np.tile(ts.T, J)  # (m, J*K)

    fv = np.asarray(spec.f(x_flat, t_flat), dtype=float)
    fj = np.asarray(spec.f_jac(x_flat, t_flat), dtype=float)
    tnorm = np.linalg.norm(t_flat, axis=0)
    checks = []

    # h1: parameter-term coefficients within their declared positive bounds
    a = _coefficient_samples(spec.a_coeff, x_flat)
    a0, a1 = spec.a_bounds
    margins = np.minimum(a - a0, a1 - a).min(axis=0)
    val, wx, _ = _argmin_sample(margins, x_flat, t_flat)
    checks.append(HypothesisCheck("h1", "parameter term a_k within (a_0, a_1)",
                                  val >= -1e-12, val, wx, ()))

    # h2: reaction nonnegative with a finite fitted growth constant
    scale = np.power(tnorm, spec.gamma0 if not spec.diagnostic else 1.0) \
        + np.power(tnorm, spec.gamma if not spec.diagnostic else 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        c_fit = float(np.nanmax(np.abs(fv) / np.maximum(scale, 1e-300)))
    fmin = fv.min(axis=0)
    val, wx, wt = _argmin_sample(fmin, x_flat, t_flat)
    checks.append(HypothesisCheck("h2", "reaction nonnegative with fitted growth bound",
                                  bool(val >= -1e-12 and np.isfinite(c_fit)), val, wx, wt))

    # h3: cooperativity, all reaction derivatives nonnegative
    jmin = fj.min(axis=(0, 1))
    val, wx, wt = _argmin_sample(jmin, x_flat, t_flat)
    checks.append(HypothesisCheck("h3", "cooperative system (f_u >= 0)",
                                  val >= -1e-12, val, wx, wt))

    # h4: theta-superlinearity t_k df^k/dt_k >= theta f^k
    if spec.diagnostic:
        checks.append(HypothesisCheck("h4", "theta-superlinearity (vacuous, f = 0)",
                                      True, 0.0, float(xs[0]), ()))
    else:
        own = np.einsum("kkp->kp", fj.reshape(m, m, -1))
        h4 = t_flat * own - spec.theta * fv + 1e-10 * (1.0 + fv)
        val, wx, wt = _argmin_sample(h4.min(axis=0), x_flat, t_flat)
        checks.append(HypothesisCheck("h4", "theta-superlinearity of the reaction",
                                      val >= 0.0, val, wx, wt))

    # h5: own-variable boundary degeneracy, f^j and its derivatives vanish on t_j = 0
    worst = 0.0
    worst_x, worst_t = float(xs[0]), ()
    for j in range(m):
        t_b = t_flat.copy()
        t_b[j, :] = 0.0
        fb = np.asarray(spec.f(x_flat, t_b), dtype=float)
        jb = np.asarray(spec.f_jac(x_flat, t_b), dtype=float)
        viol = np.abs(fb[j]) + np.abs(jb[j]).sum(axis=0)
        idx = int(np.argmax(viol))
        if viol[idx] > worst:
            worst = float(viol[idx])
            worst_x, worst_t = float(x_flat[idx]), tuple(np.round(t_b[:, idx], 12))
    checks.append(HypothesisCheck("h5", "boundary degeneracy of the reaction",
                                  worst <= 1e-12, -worst, worst_x, worst_t))

    return HypothesisReport(checks=tuple(checks), growth_constant=c_fit)


# ---------------------------------------------------------------------------
# built-in problem catalog


def _as_tuple(value, m):
    if np.isscalar(value) or callable(value):
        return tuple([value] * m)
    out = tuple(value)
    if len(out) != m:
        raise ValueError(f"expected {m} per-component values, got {len(out)}")
    return out


def _non_default(**arguments) -> dict:
    """The arguments, given as ``name=(value, default)``, whose value differs
    from the default, as ``ProblemSpec.params`` records them: a function, or
    a sequence holding one, as ``"callable"`` and a sequence as a list."""
    out = {}
    for name, (value, default) in arguments.items():
        sequence = value is not None and not np.isscalar(value) and not callable(value)
        if callable(value) or (sequence and any(map(callable, value))):
            out[name] = "callable"
        elif sequence:
            out[name] = [float(v) for v in value]
        elif value != default:
            out[name] = value
    return out


def scalar_power(q: float = 0.5, gamma: float = 2.0, theta: float | None = None,
                 a: Coefficient = 1.0) -> ProblemSpec:
    """-(u')' - u^gamma = lambda a(x) u^q on (0, 1)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"exponent q must lie in (0, 1), got {q}")
    if gamma <= 1.0:
        raise ValueError(f"growth exponent gamma must exceed 1, got {gamma}")

    def f(x, t):
        return np.power(t, gamma)

    def f_jac(x, t):
        return (gamma * np.power(t, gamma - 1.0))[None]

    def f_hess(x, t):
        return (gamma * (gamma - 1.0) * np.power(t, gamma - 2.0))[None, None]

    return ProblemSpec(
        m=1, sigma=(1.0,), c=(0.0,), a_coeff=(a,), a_bounds=_bounds_of(a),
        q=q, f=f, f_jac=f_jac, f_hess=f_hess,
        gamma0=gamma, gamma=gamma,
        theta=(1.0 + gamma) / 2.0 if theta is None else theta,
        name="scalar_power",
        params={"q": q, "gamma": gamma, **_non_default(a=(a, 1.0), theta=(theta, None))},
    )


def perturbed_scalar(q: float = 0.5, gamma: float = 2.0, gamma1: float = 3.0,
                     kappa: Coefficient = 0.1, theta: float | None = None) -> ProblemSpec:
    """Scalar power problem with the extra reaction kappa(x) u^gamma1."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"exponent q must lie in (0, 1), got {q}")
    if gamma <= 1.0 or gamma1 <= 1.0:
        raise ValueError("growth exponents must exceed 1")

    def kappa_at(x):
        return mesh_fem._sample(kappa, np.asarray(x, dtype=float))

    if not np.all(np.isfinite(kappa_at(np.linspace(0.0, 1.0, 257)))):
        raise ValueError("perturbation coefficient kappa must be finite")

    def f(x, t):
        return np.power(t, gamma) + kappa_at(x)[None] * np.power(t, gamma1)

    def f_jac(x, t):
        return (gamma * np.power(t, gamma - 1.0)
                + kappa_at(x)[None] * gamma1 * np.power(t, gamma1 - 1.0))[None]

    def f_hess(x, t):
        return (gamma * (gamma - 1.0) * np.power(t, gamma - 2.0)
                + kappa_at(x)[None] * gamma1 * (gamma1 - 1.0)
                * np.power(t, gamma1 - 2.0))[None, None]

    g0 = min(gamma, gamma1)
    return ProblemSpec(
        m=1, sigma=(1.0,), c=(0.0,), a_coeff=(1.0,), a_bounds=(1.0, 1.0),
        q=q, f=f, f_jac=f_jac, f_hess=f_hess,
        gamma0=g0, gamma=max(gamma, gamma1),
        theta=(1.0 + g0) / 2.0 if theta is None else theta,
        name="perturbed_scalar",
        params={"q": q, "gamma": gamma, "gamma1": gamma1,
                "kappa": kappa if np.isscalar(kappa) else "callable",
                **_non_default(theta=(theta, None))},
    )


def cooperative_product(m: int = 2, q: float = 0.5, beta=2.0, alpha=0.5,
                        a: Coefficient = 1.0, b: Coefficient = 1.0,
                        theta: float | None = None) -> ProblemSpec:
    """Cooperative system f^k = b_k t_k^beta_k prod_{j != k} (1 + t_j)^alpha_kj.

    ``alpha`` is a scalar (applied to every off-diagonal pair) or an (m, m)
    array whose diagonal is ignored.
    """
    if m < 1:
        raise ValueError("component count m must be >= 1")
    if not 0.0 < q < 1.0:
        raise ValueError(f"exponent q must lie in (0, 1), got {q}")
    beta_t = np.array([float(v) for v in _as_tuple(beta, m)])
    if np.any(beta_t <= 1.0):
        raise ValueError("own-variable exponents beta_k must exceed 1")
    if np.isscalar(alpha):
        alpha_t = np.full((m, m), float(alpha))
    else:
        alpha_t = np.asarray(alpha, dtype=float)
        if alpha_t.shape != (m, m):
            raise ValueError(f"alpha must be scalar or shape {(m, m)}")
    np.fill_diagonal(alpha_t, 0.0)
    if np.any(alpha_t < 0.0):
        raise ValueError("coupling exponents alpha_kj must be nonnegative")
    a_funcs = _as_tuple(a, m)
    b_funcs = _as_tuple(b, m)

    def _b_samples(x):
        return np.stack([mesh_fem._sample(bf, np.asarray(x, dtype=float))
                         for bf in b_funcs])

    # the coupling factors of f^k, in the order they multiply its own power
    couplings = [[j for j in range(m) if j != k and alpha_t[k, j] != 0.0] for k in range(m)]

    def _factors(x, t):
        """b samples, 1 + t and every power (1 + t_j)^alpha_kj, computed once per call."""
        shifted = 1.0 + t
        powers = {(k, j): np.power(shifted[j], alpha_t[k, j])
                  for k in range(m) for j in couplings[k]}
        return _b_samples(x), shifted, powers

    def _coupled(k, prod, powers):
        for j in couplings[k]:
            prod = prod * powers[k, j]
        return prod

    def _values(t, bs, powers):
        out = np.empty_like(t)
        for k in range(m):
            out[k] = bs[k] * _coupled(k, np.power(t[k], beta_t[k]), powers)
        return out

    def _own_derivative(k, t, bs, powers):
        """df^k/dt_k."""
        return _coupled(k, bs[k] * beta_t[k] * np.power(t[k], beta_t[k] - 1.0), powers)

    def f(x, t):
        bs, _, powers = _factors(x, t)
        return _values(t, bs, powers)

    def f_jac(x, t):
        bs, shifted, powers = _factors(x, t)
        fv = _values(t, bs, powers)
        out = np.zeros((m, m) + t.shape[1:])
        for k in range(m):
            out[k, k] = _own_derivative(k, t, bs, powers)
            for l in couplings[k]:
                out[k, l] = fv[k] * alpha_t[k, l] / shifted[l]
        return out

    def f_hess(x, t):
        bs, shifted, powers = _factors(x, t)
        fv = _values(t, bs, powers)
        out = np.zeros((m, m, m) + t.shape[1:])
        with np.errstate(divide="ignore", invalid="ignore"):
            for k in range(m):
                own = _own_derivative(k, t, bs, powers)
                out[k, k, k] = own * (beta_t[k] - 1.0) / np.maximum(t[k], 1e-300)
                for l in couplings[k]:
                    al = alpha_t[k, l]
                    cross = own * al / shifted[l]
                    out[k, k, l] = cross
                    out[k, l, k] = cross
                    out[k, l, l] = fv[k] * al * (al - 1.0) / shifted[l] ** 2
                    for s in couplings[k]:
                        if s != l:
                            out[k, l, s] = fv[k] * al * alpha_t[k, s] / (shifted[l] * shifted[s])
        return out

    gamma0 = float(beta_t.min())
    gamma = float((beta_t + alpha_t.sum(axis=1)).max())
    return ProblemSpec(
        m=m, sigma=tuple([1.0] * m), c=tuple([0.0] * m),
        a_coeff=a_funcs, a_bounds=_bounds_over(a_funcs),
        q=q, f=f, f_jac=f_jac, f_hess=f_hess,
        gamma0=gamma0, gamma=gamma,
        theta=(1.0 + gamma0) / 2.0 if theta is None else theta,
        name="cooperative_product",
        params={"m": m, "q": q, "beta": beta_t.tolist(), "alpha": alpha_t.tolist(),
                **_non_default(a=(a, 1.0), b=(b, 1.0), theta=(theta, None))},
    )


def linear_diagnostic(m: int = 1, a: Coefficient = 1.0) -> ProblemSpec:
    """Linear eigenvalue mode: f = 0, g(t) = a(x) t (q = 1).

    Violates the sublinearity hypothesis on purpose; it turns the minimax
    formula into the Collatz-Wielandt characterization of the smallest
    generalized eigenvalue and is accepted by the solver only because f = 0.
    """
    if m < 1:
        raise ValueError("component count m must be >= 1")

    def f(x, t):
        return np.zeros_like(t)

    def f_jac(x, t):
        return np.zeros((m, m) + t.shape[1:])

    def f_hess(x, t):
        return np.zeros((m, m, m) + t.shape[1:])

    a_funcs = _as_tuple(a, m)
    return ProblemSpec(
        m=m, sigma=tuple([1.0] * m), c=tuple([0.0] * m),
        a_coeff=a_funcs, a_bounds=_bounds_over(a_funcs),
        q=1.0, f=f, f_jac=f_jac, f_hess=f_hess,
        gamma0=2.0, gamma=2.0, theta=1.5, diagnostic=True,
        name="linear_diagnostic", params={"m": m, **_non_default(a=(a, 1.0))},
    )


def _bounds_of(coeff: Coefficient) -> tuple:
    """Empirical positive bounds of a coefficient on a fixed dense grid."""
    if np.isscalar(coeff):
        v = float(coeff)
        if v <= 0.0:
            raise ValueError("parameter-term coefficient must be positive")
        return (v, v)
    vals = mesh_fem._sample(coeff, np.linspace(0.0, 1.0, 257))
    lo, hi = float(vals.min()), float(vals.max())
    if lo <= 0.0:
        raise ValueError("parameter-term coefficient must be positive")
    return (lo, hi)


def _bounds_over(coeffs) -> tuple:
    """Positive bounds of per-component coefficients: the extremes of theirs."""
    bounds = [_bounds_of(co) for co in coeffs]
    return (min(lo for lo, _ in bounds), max(hi for _, hi in bounds))


CATALOG = {
    "scalar_power": scalar_power,
    "cooperative_product": cooperative_product,
    "perturbed_scalar": perturbed_scalar,
    "linear_diagnostic": linear_diagnostic,
}


def builtin_problem(name: str, params: dict | None = None, **kwargs) -> ProblemSpec:
    """Instantiate a catalog problem by name and JSON-style parameter mapping."""
    if name not in CATALOG:
        raise ValueError(f"unknown problem {name!r}; catalog: {sorted(CATALOG)}")
    merged = dict(params or {})
    merged.update(kwargs)
    return CATALOG[name](**merged)
