"""Maximization of the inner minimum lambda_r(u) = min_i R(u, eta_i).

The driver is sequential linear programming: at each iterate the per-direction
quotients are linearized and the LP

    max dlam  s.t.  R_i(u) + grad R_i(u) . du >= lambda + dlam,
                    |du|_inf <= trust radius,  u + du above the cone floor

is solved; the LP duals are the running Fritz John multiplier estimates, and
the trust radius is scaled by the ratio of actual to predicted gain
(``_trust_radius``).  The starts of a multistart advance in
lockstep: each round every running start solves one LP, and the fields the
round needs are assembled as one stack, which costs little more than one
field on the small meshes the multistart runs on.  The starts share one
HiGHS instance, and each solves every LP from its own previous optimal
basis (``WarmLP``).  The LP rows are read off the banded gradient stencil
(``LPRows``), and each iterate is assembled once: an accepted trial point
brings its terms along, and a rejected step re-solves with the same rows.
The multistart works in two phases, for every problem:

1. every start runs the SLP only until its scaled predicted gain is at most
   ``_HANDOVER_GAIN``, which is enough to land in the contraction basin of
   the fold: below it the SLP converges only linearly;
2. every converged start is polished by Newton on the minimally augmented
   fold system

       F(u, lambda) = 0,   s(u, lambda) = 0,

   where s, with the right and left null vectors v and w of J, solves the
   bordered system [J b; c^T 0][v; s] = [0; 1] and its transpose (Govaerts,
   Numerical Methods for Bifurcations of Dynamical Equilibria, SIAM 2000,
   ch. 3).  Each iterate takes one banded LU of J, with linear fill, and
   mixed block elimination on it solves that system and gives the Newton
   step.  The starts are polished in lockstep too: each round assembles
   their fields as one stack, and each start factors its own J.  The polish
   drives the residuals to the rounding error of their own evaluation, eps
   times the magnitudes of the terms they sum (pure SLP stalls near the fold
   at quotient spreads of order (distance)^2 and cannot reach the
   singular-value tolerance).

``lambda*`` is the largest polished value, and the multi-start agreement is
judged on the polished values; ``polish_failed`` means no start polished.
In the linear diagnostic mode (f = 0) the fold is the smallest generalized
eigenvalue, multiple for m >= 2 equal components, and the same polish finds
it; a certificate is VALID only at a polished point.  The certificate is
read off the polish's last point, with no assembly or LU of its own: its
adjoint null vector w gives the final multipliers through kappa_i = mu_i /
<g(u*), eta_i> and, with v, an upper bound on sigma_min(J); |J|_2 comes
from the top eigenvalue of the banded J^T J.  The same multipliers bound
the gain of the SLP's LP at u* by weak duality (``_ascent_bound``), so a
VALID certificate also shows, without solving that LP, that it predicts no
gain above ``_LOOSE_GAIN``.  No SVD is taken and no dense matrix is built,
in the Newton and continuation oracles either.

On a mesh that halves to at least ``_COARSE_ELEMENTS`` elements, in either
mode, ``maximize`` is nested iteration (Hackbusch, Multi-Grid Methods and
Applications, Springer 1985, ch. 5): the multistart runs on the coarsest
mesh, and its fold is carried up each doubling by one polish; on the target
mesh the certificate, with its no-ascent bound, must be VALID, or
the multistart runs on the target mesh as the fallback.  The SLP and HiGHS
thus run only in a multistart.  ``continue_certificate`` does the same for
one step: it carries a VALID certificate to a finer mesh or a nearby
problem.  Both carry through ``_carry``, so a carry is refused in one
place, and only ``_multistart`` and ``_carry`` polish and certify.  Each
certificate records which path made it in ``start``.

Everything is deterministic for fixed options and seed: fixed iteration
order, seeded multi-starts, no timing dependence.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import InitVar, dataclass, field, replace
from typing import Optional

import numpy as np

from . import _kernels, model, rayleigh
from .mesh_fem import Mesh1D, mesh_from_nodes
from .model import FEField, ProblemSpec

_highs = _kernels.highs


@dataclass(frozen=True)
class SolverOptions:
    """Options for ``maximize``: the two values a run may vary.

    ``n_starts`` randomized cone starts, drawn from ``seed``, are run and the
    largest polished value is kept.  Construction raises ``ValueError``
    unless ``n_starts`` is an integer >= 1 and ``seed`` an integer >= 0.
    Every other limit is a module constant, the hand-over gain
    ``_HANDOVER_GAIN`` and the certificate's validity bar ``_TOL_CERT``
    included.  ``tol_kkt``, which bounded the final gain of the SLP-only
    path that is gone, is still accepted at construction, so that callers
    that pass it run unchanged, and is ignored; it is no field, so a
    configuration file that sets it is refused.
    """

    n_starts: int = 8
    seed: int = 0
    tol_kkt: InitVar[Optional[float]] = None

    def __post_init__(self, tol_kkt):
        for name, least in (("n_starts", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
                    or value < least:
                raise ValueError(f"solver option {name} must be an integer >= {least}, "
                                 f"not {value!r}")


@dataclass(frozen=True)
class MinimaxCertificate:
    """Certified local solution of the discrete minimax problem.

    Residuals are reported in relative form:
      * ``primal_residual``: sup norm of the Galerkin residual at
        (u*, lambda*) over the sup norm of its constituent terms;
      * ``adjoint_residual``: |J^T v*|_2 / (scale |v*|_2) with scale the
        entrywise magnitude of the matrices J is assembled from (|J|_2
        itself vanishes at a singular point of a 1-unknown problem);
      * ``stationarity_residual``: |sum_i mu_i grad R_i|_2 over the largest
        direction-gradient norm;
      * ``complementarity_residual``: max_i mu_i |lambda* - R_i| / (1 + |lambda*|).
    ``sigma_min`` is the upper bound min(|J v|_2 / |v|_2, |J^T w|_2 / |w|_2)
    on the smallest singular value of J, from the null vectors v, w of the
    polish's last bordered solve; its digits at the rounding level move with
    any change to those vectors.  ``jac_norm`` is |J|_2, the square root of
    the top eigenvalue of J^T J (LAPACK ``dsbevx`` on its band).
    ``valid`` requires status ``polished``, all four residuals below
    ``_TOL_CERT`` (1e-8), sigma_min below 1e-6 * |J|_2 (or J itself at
    assembly roundoff), both fields inside their cones, and no ascent: the
    weak-duality bound ``_ascent_bound`` of mu on the scaled gain of the LP
    the SLP would solve first from u*, on its box of ``_TRUST_RADIUS_INIT``
    and the cone floor, is at most ``_LOOSE_GAIN``.  ``iterations`` counts
    the SLP rounds on the certificate's own mesh, so it is 0 on ``nested``
    and ``continued`` certificates.  ``start`` names the path that made the certificate:
    ``multistart`` (the multistart on its own mesh), ``nested`` (a multistart
    on a coarse mesh, polished up each doubling), ``fallback`` (a refused
    nested or continued path, then the multistart on its own mesh) or
    ``continued`` (``continue_certificate``).  ``starts_agree`` and
    ``lambda_spread_starts`` describe the multistart the certificate's chain
    started from: for ``nested`` the coarse one, for ``continued`` that of the
    certificate it continued.  Files written before ``start`` existed load as
    ``multistart``.
    """

    lambda_star: float
    u_star: FEField
    v_star: FEField
    mu: np.ndarray
    kappa: np.ndarray
    active_set: np.ndarray
    primal_residual: float
    adjoint_residual: float
    stationarity_residual: float
    complementarity_residual: float
    sigma_min: float
    jac_norm: float
    valid: bool
    status: str
    iterations: int
    polish_iterations: int
    starts_agree: bool
    lambda_spread_starts: float
    distance_to_boundary: float
    problem: dict = field(default_factory=dict)
    mesh_info: dict = field(default_factory=dict)
    options: Optional[SolverOptions] = None
    start: str = "multistart"

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (schema ``mf-cert/1``)."""
        return {
            "schema": "mf-cert/1",
            "problem": self.problem,
            "mesh": self.mesh_info,
            "lambda_star": self.lambda_star,
            "u_star": self.u_star.values.tolist(),
            "v_star": self.v_star.values.tolist(),
            "mu": self.mu.tolist(),
            "kappa": self.kappa.tolist(),
            "active_set": self.active_set.tolist(),
            "residuals": {
                "primal": self.primal_residual,
                "adjoint": self.adjoint_residual,
                "stationarity": self.stationarity_residual,
                "complementarity": self.complementarity_residual,
            },
            "sigma_min": self.sigma_min,
            "jac_norm": self.jac_norm,
            "valid": self.valid,
            "status": self.status,
            "iterations": self.iterations,
            "polish_iterations": self.polish_iterations,
            "starts_agree": self.starts_agree,
            "lambda_spread_starts": self.lambda_spread_starts,
            "start": self.start,
            "distance_to_boundary": self.distance_to_boundary,
            "options": None if self.options is None else vars(self.options).copy(),
        }


# ---------------------------------------------------------------------------
# starts


def torsion_start(spec: ProblemSpec, mesh: Mesh1D, blocks=None) -> FEField:
    """Positive field omega with A_k omega^k = 1-bar per component."""
    if blocks is None:
        blocks = model.stiffness_blocks(spec, mesh)
    vals = np.stack([blk.solve(np.ones(mesh.n_interior)) for blk in blocks])
    if np.any(vals <= 0.0):
        raise model.ConeError("torsion start left the open cone; operator not M-structured?")
    return FEField(mesh, vals)


def amplitude_line_search(spec: ProblemSpec, mesh: Mesh1D, shape, blocks=None):
    """Pick t maximizing lambda_r(t * shape) over a fixed log grid.

    ``shape`` is an FEField, or coefficients (S, m, n_interior) of S shapes,
    which are searched together and come back as a stack of scaled shapes.
    The 25 amplitudes of every shape are assembled as one stack of fields.
    An amplitude is skipped where ``rayleigh.inner_min`` would reject it: a
    field outside the open cone or below its relative floor, or a pairing
    <g, eta_i> that is not positive.  A shape with a negative coefficient has
    no amplitude in the cone and comes back normalized.
    """
    values = shape.values if isinstance(shape, FEField) else np.asarray(shape, dtype=float)
    shapes = values.reshape((-1,) + values.shape[-2:])
    base = shapes / np.abs(shapes).max(axis=(1, 2), keepdims=True)
    amplitudes = np.geomspace(1e-3, 1e3, 25)
    best = np.ones(len(base))
    closed = np.flatnonzero(np.all(base >= 0.0, axis=(1, 2)))
    if closed.size:
        fields = amplitudes[:, None, None] * base[closed, None]  # (shapes, amplitudes, m, n)
        terms = rayleigh.galerkin_terms(spec, mesh, fields.reshape((-1,) + base.shape[1:]),
                                        blocks)
        grid = fields.shape[:2]
        usable = (model.in_open_cone(fields)
                  & ~np.any(terms.g_load <= rayleigh.TOL_DENOM, axis=(1, 2)).reshape(grid))
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = terms.quotients().min(axis=1).reshape(grid)
        # the first amplitude of the largest usable value, as a loop with ">" picks
        score = np.where(usable & (lam > -np.inf), lam, -np.inf)
        pick = score.argmax(axis=1)
        found = score[np.arange(closed.size), pick] > -np.inf
        best[closed[found]] = amplitudes[pick[found]]
    scaled = best[:, None, None] * base
    if isinstance(shape, FEField):
        return FEField(mesh, scaled[0])
    return scaled.reshape(values.shape)


# ---------------------------------------------------------------------------
# SLP phase


# scaled predicted gain at which each start of the multistart hands over to
# the fold polish: the SLP's tail below it converges only linearly, and the
# polish contracts from there in about as many Newton rounds
_HANDOVER_GAIN = 3e-2

# each start's SLP runs at most _SLP_MAX_ITERS rounds from a trust radius of
# _TRUST_RADIUS_INIT times its start's sup norm, and ends ``cone_collapse``
# (``unbounded_ascent``) once its iterate's sup norm is below
# _COLLAPSE_THRESHOLD (above _GROWTH_THRESHOLD) times the start's
_SLP_MAX_ITERS = 400
_TRUST_RADIUS_INIT = 0.25
_COLLAPSE_THRESHOLD = 1e-8
_GROWTH_THRESHOLD = 1e8

# the certificate's no-ascent bound: the scaled gain that the first SLP step
# from a VALID point may at most predict (``_ascent_bound``)
_LOOSE_GAIN = 1e-3


def _trust_radius(trust: float, rho: float, step: float, cap: float) -> float:
    """Trust radius after a trial step of sup norm ``step`` and ratio ``rho``
    (actual over predicted gain) on the radius ``trust``.

    The factor f = clip(0.5 / (1 - rho), 0.1, 2) is 2 for every rho >= 0.75
    (rho > 1 included).  A rejected step (rho < 0.05) sets the radius to
    f min(trust, step), so the next LP is boxed below the step that failed;
    an accepted one scales it by f when f < 1 (rho < 0.5), or when the step
    reached 0.9 of the radius, and never past ``cap``.
    """
    factor = 2.0 if rho >= 0.75 else max(0.1, 0.5 / (1.0 - rho))
    if rho < 0.05:
        return factor * min(trust, step)
    if factor < 1.0 or step > 0.9 * trust:
        return min(factor * trust, cap)
    return trust


def _new_highs():
    highs = _highs._Highs()
    highs.setOptionValue("output_flag", False)
    return highs


class WarmLP:
    """Chain of same-shape LPs

        min cost . x   s.t.   a_ub x <= b_ub,   lower <= x <= upper,

    each solved from the previous optimal basis of the chain.  Chains may
    share one HiGHS instance (``highs``; by default each gets its own): every
    solve passes the chain's model and basis to the instance before it runs.
    It calls scipy's bundled HiGHS bindings (the private
    ``scipy.optimize._highspy._core``, which ``_kernels`` loads without
    importing ``scipy.optimize``) directly, which skips the input checking
    and conversion that scipy's public LP front end repeats on every call.
    """

    def __init__(self, highs=None):
        self._highs = _new_highs() if highs is None else highs
        self._basis = None

    def solve(self, cost: np.ndarray, a_ub, b_ub: np.ndarray,
              lower: np.ndarray, upper: np.ndarray):
        """``(x, row_dual)`` at an optimum, ``None`` for any other model status.

        ``a_ub`` is the constraint matrix in row-wise form ``(start, index,
        value)``: the nonzeros of row r are ``value[start[r]:start[r + 1]]`` in
        the columns ``index[start[r]:start[r + 1]]``.  A failed solve drops the
        stored basis, so the next one starts cold.
        """
        start, index, value = a_ub
        n_row, n_col = len(start) - 1, len(cost)
        lp = _highs.HighsLp()
        lp.num_col_, lp.num_row_ = n_col, n_row
        lp.col_cost_ = cost
        lp.col_lower_ = lower
        lp.col_upper_ = upper
        lp.row_lower_ = np.full(n_row, -np.inf)
        lp.row_upper_ = b_ub
        matrix = lp.a_matrix_
        matrix.format_ = _highs.MatrixFormat.kRowwise
        matrix.num_col_, matrix.num_row_ = n_col, n_row
        matrix.start_ = start
        matrix.index_ = index
        matrix.value_ = value
        self._highs.passModel(lp)
        if self._basis is not None:
            self._highs.setBasis(self._basis)
        self._highs.run()
        if self._highs.getModelStatus() != _highs.HighsModelStatus.kOptimal:
            self._basis = None
            return None
        self._basis = self._highs.getBasis()
        solution = self._highs.getSolution()
        return np.array(solution.col_value), np.array(solution.row_dual)


class LPRows:
    """Row-wise form of the SLP constraint matrix [-grad R | 1] on one mesh.

    The sparsity pattern is that of the (m*n, 3m) gradient stencil plus the
    lambda column; it is built once.  ``of(stencil)`` returns ``(start,
    index, value)`` for ``WarmLP.solve``, with the exact zeros dropped, so
    the arrays equal the ``np.nonzero`` entries of the dense matrix.
    """

    def __init__(self, m: int, n: int):
        big = m * n
        band_index, rows, cols = model.band_pattern(m, n)
        # flat positions in the (big, 3m + 1) matrix [-stencil | 1]; sorting
        # puts each row's lambda entry (dense column big) after its band entries
        flat = np.concatenate([rows * (3 * m + 1) + band_index % (3 * m),
                               np.arange(big) * (3 * m + 1) + 3 * m])
        order = np.argsort(flat)
        self._flat = flat[order]
        self._rows = np.concatenate([rows, np.arange(big)])[order]
        self._cols = np.concatenate([cols, np.full(big, big)])[order]
        self._matrix = np.ones((big, 3 * m + 1))
        self._row_ids = np.arange(big + 1)

    def of(self, stencil: np.ndarray):
        np.negative(stencil, out=self._matrix[:, :-1])
        value = self._matrix.ravel()[self._flat]
        keep = value != 0.0
        return np.searchsorted(self._rows[keep], self._row_ids), self._cols[keep], value[keep]


@dataclass
class _SLPRun:
    """One start of ``_slp``: its iterate with terms, quotients and LP rows,
    its LP chain, trust radius and stop status, and its result once ``_slp``
    returns it."""

    flat: np.ndarray
    lp: WarmLP
    terms: Optional[rayleigh.GalerkinTerms] = None
    quotients: Optional[np.ndarray] = None
    a_ub: Optional[tuple] = None
    scale0: float = 0.0
    trust: float = 0.0
    lam: float = 0.0
    lam_prev: float = 0.0
    grew: int = 0
    mu_lp: Optional[np.ndarray] = None
    status: Optional[str] = None  # None while the start runs
    iterations: int = 0
    scale_u: float = 0.0  # sup norm of the iterate at the top of the round
    floor: float = 0.0  # cone floor of the round


def _assemble(spec, mesh, blocks, flats):
    """``(terms, quotients)`` of each flat field, from one stacked assembly."""
    if not flats:
        return []
    terms = rayleigh.galerkin_terms(spec, mesh, np.stack(flats).reshape(len(flats), spec.m, -1),
                                    blocks)
    quotients = terms.quotients()
    return [(terms[i], quotients[i]) for i in range(len(flats))]


def _slp(spec: ProblemSpec, mesh: Mesh1D, starts: list, blocks, gain_tol: float) -> list:
    """SLP from each field in ``starts`` until its scaled predicted gain is at
    most ``gain_tol``; one ``_SLPRun`` per start, whose ``status`` is
    ``max_iters`` if it ran out of rounds.

    The starts advance in lockstep, one round per iteration: every live start
    solves one LP, and the fields that need terms at one step of the round
    (the start points, the floor re-clamps, the trial points) are assembled
    as one stack, as are the constraint rows of the starts whose iterate
    changed.  A start's arithmetic never mixes with another's, so each
    result is bit-identical to running that start alone.  Each iterate is
    assembled once: an accepted trial point brings its terms and quotients
    along, and a rejected step or failed LP only shrinks the trust radius
    and solves again with the same constraint rows.  The starts share one
    HiGHS instance, and each solves from its own previous basis.
    """
    m, n = spec.m, mesh.n_interior
    big = m * n
    highs = _new_highs()
    lp_rows = LPRows(m, n)
    cost = np.zeros(big + 1)
    cost[-1] = -1.0
    runs = [_SLPRun(flat=u0.flatten(), lp=WarmLP(highs)) for u0 in starts]
    for run, (terms, quotients) in zip(runs, _assemble(spec, mesh, blocks,
                                                      [r.flat for r in runs])):
        run.terms, run.quotients = terms, quotients
        run.scale0 = float(np.abs(run.flat).max())
        run.trust = _TRUST_RADIUS_INIT * run.scale0
        run.lam = run.lam_prev = float(run.quotients.min())

    for it in range(1, _SLP_MAX_ITERS + 1):
        live = [r for r in runs if r.status is None]
        if not live:
            break
        clamped = []
        for r in live:
            r.iterations = it
            r.scale_u = float(np.abs(r.flat).max())
            if r.scale_u < _COLLAPSE_THRESHOLD * r.scale0 and r.lam <= gain_tol:
                r.status = "cone_collapse"
            elif r.scale_u > _GROWTH_THRESHOLD * r.scale0 and r.grew >= 5:
                r.status = "unbounded_ascent"
            else:
                # the relative cone floor rises with the iterate scale; re-clamp
                r.floor = model.CONE_FLOOR_REL * r.scale_u
                if np.any(r.flat < r.floor):
                    r.flat = np.maximum(r.flat, r.floor)
                    r.a_ub = None
                    clamped.append(r)
        for r, (terms, quotients) in zip(clamped, _assemble(spec, mesh, blocks,
                                                            [r.flat for r in clamped])):
            r.terms, r.quotients = terms, quotients
        live = [r for r in live if r.status is None]

        fresh = [r for r in live if r.a_ub is None]
        if fresh:
            for r in fresh:
                r.lam = float(r.quotients.min())
            stencils = rayleigh.quotient_gradients(
                spec, mesh, np.stack([r.flat.reshape(m, n) for r in fresh]),
                terms=rayleigh.GalerkinTerms.stack([r.terms for r in fresh]),
                quotients=np.stack([r.quotients for r in fresh]))
            for r, stencil in zip(fresh, stencils):
                r.a_ub = lp_rows.of(stencil)

        trials = []
        for r in live:
            lower = np.append(np.maximum(-r.trust, r.floor - r.flat), -np.inf)
            upper = np.append(np.full(big, r.trust), np.inf)
            res = r.lp.solve(cost, r.a_ub, r.quotients, lower, upper)
            if res is None:
                r.trust *= 0.5
                if r.trust < 1e-13 * r.scale_u:
                    r.status = "stalled"
                continue
            x, row_dual = res
            delta = x[:-1]
            predicted = float(x[-1]) - r.lam
            raw = np.abs(row_dual)
            tot = raw.sum()
            if tot > 0:
                r.mu_lp = raw / tot
            if predicted <= gain_tol * (1.0 + abs(r.lam)):
                r.status = "converged"
                continue
            trials.append((r, delta, predicted, np.maximum(r.flat + delta, r.floor)))

        assembled = _assemble(spec, mesh, blocks, [trial for _, _, _, trial in trials])
        for (r, delta, predicted, trial), (trial_terms, trial_quotients) in zip(trials, assembled):
            lam_trial = float(trial_quotients.min())
            rho = (lam_trial - r.lam) / predicted
            cap = 10.0 * max(r.scale_u, np.abs(trial).max())
            r.trust = _trust_radius(r.trust, rho, float(np.abs(delta).max()), cap)
            if rho >= 0.05:
                r.flat, r.terms, r.quotients = trial, trial_terms, trial_quotients
                r.a_ub = None
                r.grew = r.grew + 1 if lam_trial > r.lam_prev else 0
                r.lam_prev = r.lam = lam_trial
            elif r.trust < 1e-13 * r.scale_u:
                r.status = "stalled"

    for r in runs:
        r.status = r.status or "max_iters"
    return runs


# ---------------------------------------------------------------------------
# bordered fold polish


# unit roundoff: the polish holds each residual to _EPS times the magnitudes
# of the terms it is summed from
_EPS = float(np.finfo(float).eps)

_POLISH_ROUNDS = 20


@dataclass(frozen=True)
class PolishResult:
    """Outcome of the fold polish.

    ``reason`` is ``converged`` (the largest scaled residual is at the
    rounding error of its own evaluation, ``roundoff``) or a failure:
    ``no_decrease`` (no damped step decreases the residual, which stalls
    above ``roundoff``), ``singular_system`` or ``max_iter``.  ``u`` and
    ``lam`` are the last accepted iterate either way; ``residual`` is its
    largest scaled residual and ``roundoff`` the estimate it is held to.
    ``point`` is that iterate's ``_PolishPoint``, which the certificate
    reads; None when the bordered matrix at the start is singular.
    """

    reason: str
    u: FEField
    lam: float
    iterations: int
    residual: float
    roundoff: float
    point: Optional[_PolishPoint] = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.reason == "converged"


def _at_roundoff(residuals, roundoff) -> bool:
    """Stop test of the fold polish: the largest scaled residual is at the
    largest rounding-error estimate of the residuals' evaluation."""
    return max(residuals) <= max(roundoff)


def _transposed(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The rows of ``x`` read as (rows, cols) and transposed: (m, n) takes
    the band's component-major order to node-major, (n, m) back."""
    if 1 in (rows, cols):
        return x
    return x.reshape((rows, cols) + x.shape[1:]).swapaxes(0, 1).reshape(x.shape)


class _BorderedLU:
    """Solves with [J b; c^T d] and its transpose on the banded LU of J alone
    by mixed block elimination, stable where J is singular to roundoff
    (Govaerts and Pryce, IMA J. Numer. Anal. 13, 1993).  A zero pivot of J
    or Schur complement d - c^T J^-1 b raises ``RuntimeError``."""

    def __init__(self, jac, m: int, n: int, b, c, d: float = 0.0):
        self.m, self.n, self.d = m, n, float(d)
        self.band = _general_band(jac, m, n)
        self.factors = _kernels.band_lu(self.band, 2 * m - 1)
        b, c = _transposed(b, m, n), _transposed(c, m, n)
        jb = _kernels.band_lu_solve(self.factors, b)
        jc = _kernels.band_lu_solve(self.factors, c, trans=1)
        schur_b, schur_c = self.d - float(c @ jb), self.d - float(b @ jc)
        if schur_b == 0.0 or schur_c == 0.0:
            raise RuntimeError("singular bordered matrix")
        # per orientation (A = J, then J^T): col, row, A^-1 col, A^-T row, Schur complements
        self.sides = ((b, c, jb, jc, schur_b, schur_c), (c, b, jc, jb, schur_c, schur_b))

    def _eliminate(self, f, g, trans):
        """[x; y] with [A col; row^T d][x; y] = [f; g], A = J or J^T, node-major."""
        col, row, col_solved, row_solved, schur, schur_t = self.sides[trans]
        y = (g - row_solved @ f) / schur_t
        x = _kernels.band_lu_solve(self.factors, f - np.multiply.outer(col, y), trans)
        fix = (g - row @ x - self.d * y) / schur
        return x - np.multiply.outer(col_solved, fix), y + fix

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """z with [J b; c^T d] z = ``rhs`` (``trans`` "N") or its transpose
        ("T"), for ``rhs`` (m*n + 1,) or (m*n + 1, k)."""
        x, y = self._eliminate(_transposed(rhs[:-1], self.m, self.n), rhs[-1], int(trans == "T"))
        return np.concatenate([_transposed(x, self.n, self.m), np.asarray(y)[None]])

    def unit_solve(self, trans: str = "N") -> np.ndarray:
        """``solve`` of [0; 1], whose elimination is [-A^-1 col; 1] / S, then
        one step of iterative refinement on the bordered system: without it
        the null vectors of a large J miss the polish's roundoff stop test."""
        t = int(trans == "T")
        col, row, col_solved, _, schur, _ = self.sides[t]
        x, y = col_solved * (-1.0 / schur), 1.0 / schur
        jx = _band_product(self.band, 2 * self.m - 1, x, t)
        dx, dy = self._eliminate(-jx - y * col, 1.0 - row @ x - self.d * y, t)
        return np.concatenate([_transposed(x + dx, self.n, self.m), [y + dy]])


def _bordered_solve(jac: np.ndarray, m: int, n: int, b: np.ndarray, c: np.ndarray):
    """The null vectors the bordered matrix [J b; c^T 0] gives (``_BorderedLU``).

    ``jac`` is the band of J.  Returns ``(lu, v, w, s)`` with
    [J b; c^T 0][v; s] = [0; 1] and [J^T c; b^T 0][w; s] = [0; 1].  s
    vanishes exactly where J is singular, and there v and w span its right
    and left null spaces.  An exactly zero pivot of J, or a singular
    bordered matrix, raises ``RuntimeError``.
    """
    lu = _BorderedLU(jac, m, n, b, c)
    x = lu.unit_solve()
    return lu, x[:-1], lu.unit_solve("T")[:-1], float(x[-1])


def _newton_step(p: _PolishPoint, s_u: np.ndarray, s_lam: float) -> np.ndarray:
    """Newton step [du; dlam] on [F; s] from the bordered LU taken at the point.

    Solves [J, -g; s_u^T, s_lam][du; dlam] = -[F; s] by block elimination
    (Govaerts, Numerical Methods for Bifurcations of Dynamical Equilibria,
    SIAM 2000, ch. 3).  With [J b; c^T 0][x_1; t_1] = [-F; 0] and
    [J b; c^T 0][x_2; t_2] = [g; 0] (the two columns of ``x``),
    du = x_1 + dlam x_2 + beta v solves the first block row when
    t_1 + dlam t_2 + beta s = 0, and the last row gives the second equation
    for (dlam, beta).
    """
    rhs = np.zeros((p.flat.size + 1, 2))
    rhs[:-1, 0] = -p.primal
    rhs[:-1, 1] = p.terms.g_load.ravel()
    x = p.lu.solve(rhs)
    x1, t1, x2, t2 = x[:-1, 0], x[-1, 0], x[:-1, 1], x[-1, 1]
    v, s = p.v, p.s
    # [t2, s; s_u.x2 + s_lam, s_u.v] [dlam; beta] = [-t1; -s - s_u.x1]
    a21, a22, r2 = s_u @ x2 + s_lam, s_u @ v, -s - s_u @ x1
    det = t2 * a22 - s * a21
    with np.errstate(divide="ignore", invalid="ignore"):  # the caller checks finiteness
        dlam = (-t1 * a22 - s * r2) / det
        beta = (t2 * r2 + a21 * t1) / det
        return np.append(x1 + dlam * x2 + beta * v, dlam)


@dataclass
class _PolishPoint:
    """One iterate of the fold polish: its terms and Jacobian parts, the
    bordered factors there with the null vectors v, w and s, and its
    residuals.  ``residuals`` are the scaled (primal, adjoint) residuals and
    ``roundoff`` the eps multiples of the componentwise magnitudes they are
    computed from, on the point's own (primal, Jacobian) ``scales``."""

    flat: np.ndarray
    lam: float
    terms: rayleigh.GalerkinTerms
    parts: model.JacobianParts
    primal: np.ndarray  # Galerkin residual F(u, lam), flat
    lu: object
    v: np.ndarray
    w: np.ndarray
    s: float
    scales: tuple
    residuals: tuple
    roundoff: tuple


def _largest(*stacks) -> np.ndarray:
    """Largest magnitude in each field of the stacks, at least 1e-300."""
    return np.maximum(np.maximum.reduce([np.abs(a).max(axis=(-2, -1)) for a in stacks]), 1e-300)


def _ones_border(size: int) -> tuple:
    """The border (b, c) of a polish's first point, both the normalized
    all-ones vector: the fold's null vectors lie in the open cone."""
    ones = np.full(size, 1.0 / np.sqrt(size))
    return ones, ones


def _polish_points(spec, mesh, blocks, flats, lams, borders) -> list:
    """The ``_PolishPoint`` of each field and value, bordered by its ``(b, c)``
    and measured on its own scales, from one stacked assembly and one
    bordered LU per point; None for a point whose bordered matrix is
    singular.
    """
    m, n = spec.m, mesh.n_interior
    count = len(flats)
    values = np.stack(flats).reshape(count, m, n)
    lam = np.array(lams)
    terms = rayleigh.galerkin_terms(spec, mesh, values, blocks)
    parts = model.jacobian_parts(spec, mesh, values, blocks=blocks, samples=terms.samples)
    jac = parts.jacobian_band(lam[:, None, None])
    factors = []
    for jac_i, (b, c) in zip(jac, borders):
        try:
            factors.append(_bordered_solve(jac_i, m, n, b, c))
        except RuntimeError:
            factors.append(None)
    # the w of each (lu, v, w, s); a singular point gets no _PolishPoint, and
    # its zero row only fills the stack
    w = np.stack([np.zeros(m * n) if f is None else f[2] for f in factors])

    # the Jacobian scale is the magnitude of the matrices J is assembled
    # from, not of J itself, which vanishes at the fold of a problem with
    # one unknown
    lam_abs = np.abs(lam)[:, None, None]
    scale1 = _largest(terms.stiff_action, terms.f_load, lam_abs * terms.g_load)
    scale2 = _largest(parts.stiffness_band, parts.mass_f_band, lam_abs * parts.mass_g_band)
    primal = terms.residual(lam[:, None, None])
    w_scale = np.maximum(scale2 * np.abs(w).max(axis=1), 1e-300)
    primal_mag = (model.band_matvec(np.abs(parts.stiffness_band), values)
                  + np.abs(terms.f_load.reshape(count, -1))
                  + np.abs(lam)[:, None] * np.abs(terms.g_load.reshape(count, -1)))
    adjoint_mag = model.band_matvec(np.abs(jac), np.abs(w), transpose=True)
    residuals = zip(np.abs(primal).max(axis=1) / scale1,
                    np.abs(model.band_matvec(jac, w, transpose=True)).max(axis=1) / w_scale)
    roundoff = zip(_EPS * primal_mag.max(axis=1) / scale1,
                   _EPS * adjoint_mag.max(axis=1) / w_scale)
    return [None if f is None else _PolishPoint(flats[i], lams[i], terms[i], parts[i], primal[i],
                                                *f, (scale1[i], scale2[i]), r, e)
            for i, (f, r, e) in enumerate(zip(factors, residuals, roundoff))]


@dataclass
class _PolishRun:
    """Working state of one start of ``_fold_polish``: its current point, its
    fixed borders, and its result once it stops."""

    point: Optional[_PolishPoint] = None
    b: Optional[np.ndarray] = None
    c: Optional[np.ndarray] = None
    previous: float = np.inf  # largest scaled residual before the last accepted step
    result: Optional[PolishResult] = None  # None while the start runs


def _fold_polish(spec: ProblemSpec, mesh: Mesh1D, starts: list, blocks) -> list:
    """Newton on the minimally augmented fold system G(u, lam) = [F(u, lam); s(u, lam)]
    from each start ``(flat0, lam0)``; one ``PolishResult`` per start, which
    ends ``max_iter`` after ``_POLISH_ROUNDS`` (20) rounds.

    Each iterate takes one banded LU of J, on which mixed block elimination
    solves the bordered matrix [J b; c^T 0] (``_bordered_solve``); that
    gives s and the null vectors v, w, and ``_newton_step`` solves the
    Newton system with s_u = -C(w) v (``model.adjoint_curvature``) and
    s_lam = w^T M_g v on the same factors.  The borders are the normalized
    all-ones vector at the start, then the normalized w and v found there,
    fixed for the rest of the polish.

    The stop allows for roundoff, not a fixed floor: the primal residual
    K u - F - lam G cancels terms of size |K||u| + |F| + |lam||G| (from
    O(1/h) to O(h), so its floor grows like n^2), and the adjoint residual
    J^T w terms of size |J|^T |w|.  The polish is ``converged`` once the
    largest scaled residual is at eps times the largest of these magnitudes
    (``_at_roundoff``) and the last step shrank it less than tenfold, or when
    no damped step decreases a residual at that level.  A residual that stalls
    above it is ``no_decrease``.  A damped trial outside the open cone or
    below its floor (``model.in_open_cone``) is skipped for the next damping.

    The starts are polished together, one Newton round at a time: the
    curvatures of a round are one stacked call, and the first iterates and
    the trials at each damping level are each one stacked assembly
    (``_polish_points``).  Every start keeps its own bordered LU, borders,
    damping and stop test, and its arithmetic never mixes with another's, so
    each ends where, and as, it would alone; a singular system ends only its
    own start.  Each point is measured on its own scales, so the last one
    carries all the certificate reads (``PolishResult.point``).
    """
    m, n = spec.m, mesh.n_interior
    big = m * n
    flats = [np.array(flat0, dtype=float) for flat0, _ in starts]
    lams = [float(lam0) for _, lam0 in starts]

    def finish(run, reason, iterations):
        p = run.point
        if reason == "no_decrease" and _at_roundoff(p.residuals, p.roundoff):
            reason = "converged"  # rounding noise, which no step can decrease
        run.result = PolishResult(reason, FEField.from_flat(mesh, m, p.flat), p.lam, iterations,
                                  float(max(p.residuals)), float(max(p.roundoff)), p)

    # every later solve is bordered by the null vectors found with the all-ones border
    runs = []
    for flat, lam, p in zip(flats, lams, _polish_points(spec, mesh, blocks, flats, lams,
                                                        [_ones_border(big)] * len(starts))):
        if p is None:
            runs.append(_PolishRun(result=PolishResult(
                "singular_system", FEField.from_flat(mesh, m, flat), lam, 0, np.inf, np.inf)))
        else:
            runs.append(_PolishRun(point=p, b=p.w / np.linalg.norm(p.w),
                                   c=p.v / np.linalg.norm(p.v)))

    for iters in range(1, _POLISH_ROUNDS + 1):
        live = []
        for run in (r for r in runs if r.result is None):
            p = run.point
            # a residual still shrinking tenfold per step is Newton error, which
            # moves lambda by about as much, even at the roundoff level
            if _at_roundoff(p.residuals, p.roundoff) and 10.0 * max(p.residuals) > run.previous:
                finish(run, "converged", iters - 1)
            else:
                live.append(run)
        if not live:
            break

        points = [r.point for r in live]
        v, w = np.stack([p.v for p in points]), np.stack([p.w for p in points])
        s_u = -model.adjoint_curvature(spec, mesh, np.stack([p.flat for p in points]).reshape(
            len(points), m, n), w, v, np.array([p.lam for p in points]))
        mass_g_v = model.band_matvec(np.stack([p.parts.mass_g_band for p in points]), v)
        s_lam = [float(w_i @ mv_i) for w_i, mv_i in zip(w, mass_g_v)]
        pending = []
        for run, step in zip(live, map(_newton_step, points, s_u, s_lam)):
            if np.all(np.isfinite(step)):
                pending.append((run, step))
            else:
                finish(run, "singular_system", iters - 1)

        for damp in (1.0, 0.5, 0.25, 0.125, 0.0625):
            if not pending:
                break
            flats_t = [run.point.flat + damp * step[:big] for run, step in pending]
            inside = model.in_open_cone(np.stack(flats_t).reshape(len(pending), m, n))
            trials = [(run, flat_t, run.point.lam + damp * float(step[-1]))
                      for (run, step), flat_t, ok in zip(pending, flats_t, inside) if ok]
            if not trials:
                continue
            done = set()
            for (run, _, _), trial in zip(trials, _polish_points(
                    spec, mesh, blocks, [t[1] for t in trials], [t[2] for t in trials],
                    [(t[0].b, t[0].c) for t in trials])):
                p = run.point
                if trial is None:
                    finish(run, "singular_system", iters - 1)
                    done.add(id(run))
                elif (max(trial.residuals) < max(p.residuals) * (1.0 - 1e-4 * damp)
                        or _at_roundoff(trial.residuals, trial.roundoff)):
                    run.previous, run.point = max(p.residuals), trial
                    done.add(id(run))
            pending = [(run, step) for run, step in pending if id(run) not in done]
        for run, _ in pending:
            finish(run, "no_decrease", iters - 1)

    for run in runs:
        if run.result is None:
            finish(run, "max_iter", _POLISH_ROUNDS)
    return [run.result for run in runs]


# ---------------------------------------------------------------------------
# certificate


# the relative level below which a VALID certificate holds its four residuals
_TOL_CERT = 1e-8


def _certificate(spec: ProblemSpec, mesh: Mesh1D, point: _PolishPoint,
                 status: str, iterations: int, polish_iterations: int,
                 starts_agree: bool, lambda_spread: float,
                 options: SolverOptions,
                 mu_lp: Optional[np.ndarray] = None) -> MinimaxCertificate:
    """The certificate of ``point``: the last point of a polish or, when no
    start polished, the best SLP point bordered as a polish starts.  It only
    evaluates what ``point`` holds, with no assembly and no LU.  Without
    ``mu_lp``, the LP duals of an unpolished point, the multipliers come
    from w."""
    m, n = spec.m, mesh.n_interior
    lam = point.lam
    u = FEField.from_flat(mesh, m, point.flat)
    terms, parts, w = point.terms, point.parts, point.w
    denom = terms.g_load.ravel()
    quotients = terms.quotients()
    jac_band = parts.jacobian_band(lam)
    # |J x| / |x| bounds sigma_min(J) from above for any x
    sigma_min = float(min(
        np.linalg.norm(model.band_matvec(jac_band, point.v)) / np.linalg.norm(point.v),
        np.linalg.norm(model.band_matvec(jac_band, w, transpose=True)) / np.linalg.norm(w)))
    jac_norm = _spectral_norm(jac_band, m, n)
    jac_scale = point.scales[1]

    if mu_lp is not None and mu_lp.sum() > 0:
        # an unrefined point: the final LP duals are the multiplier estimate
        mu = np.maximum(mu_lp, 0.0)
        mu = mu / mu.sum()
        kappa = mu / denom
        w_cone_ok = True
    else:
        # at the fold the adjoint null vector reproduces the multipliers
        # through kappa_i = mu_i / <g(u*), eta_i>
        if w.sum() < 0:
            w = -w
        w_cone_ok = float(w.min()) >= -1e-10 * np.abs(w).max()
        w_pos = np.maximum(w, 0.0) if w_cone_ok else w
        mu_raw = w_pos * denom
        mu = mu_raw / mu_raw.sum() if mu_raw.sum() > 0 else np.full(m * n, 1.0 / (m * n))
        kappa = mu / denom
    v_vals = kappa.reshape(m, n)
    energy = sum(float(v_vals[k] @ terms.blocks[k].matvec(v_vals[k])) for k in range(m))
    v_star = FEField(mesh, v_vals / np.sqrt(energy)) if energy > 0 else FEField(mesh, v_vals)

    primal = float(point.residuals[0])

    v_flat = v_star.values.ravel()
    adjoint = float(np.linalg.norm(model.band_matvec(jac_band, v_flat, transpose=True))
                    / (jac_scale * max(np.linalg.norm(v_flat), 1e-300)))

    stencil = rayleigh.quotient_gradients(spec, mesh, u, terms=terms, parts=parts,
                                          quotients=quotients)
    # scale from the row magnitudes before cancellation, not the rows themselves
    row_mag = (np.linalg.norm(parts.stiffness_band - parts.mass_f_band, axis=1)
               + np.abs(quotients) * np.linalg.norm(parts.mass_g_band, axis=1)) / denom
    grad_scale = max(float(row_mag.max()), 1e-300)
    c = model.band_matvec(stencil, mu, transpose=True)  # S^T mu
    stationarity = float(np.linalg.norm(c) / grad_scale)
    ascent = _ascent_bound(point.flat, quotients, mu, c)
    complementarity = float((mu * np.abs(lam - quotients)).max() / (1.0 + abs(lam)))

    tol_active = 1e-8 * (1.0 + abs(lam))
    active = np.flatnonzero(quotients <= quotients.min() + tol_active)

    # a Jacobian at assembly roundoff is as singular as floats can express
    singular_enough = sigma_min <= 1e-6 * jac_norm or jac_norm <= 1e-12 * jac_scale
    valid = (
        status == "polished"
        and primal < _TOL_CERT and adjoint < _TOL_CERT
        and stationarity < _TOL_CERT and complementarity < _TOL_CERT
        and ascent <= _LOOSE_GAIN
        and singular_enough
        and w_cone_ok
        and u.interior
    )

    mu.flags.writeable = False
    kappa.flags.writeable = False
    return MinimaxCertificate(
        lambda_star=float(lam),
        u_star=u,
        v_star=v_star,
        mu=mu,
        kappa=kappa,
        active_set=active,
        primal_residual=primal,
        adjoint_residual=adjoint,
        stationarity_residual=stationarity,
        complementarity_residual=complementarity,
        sigma_min=sigma_min,
        jac_norm=jac_norm,
        valid=bool(valid),
        status=status,
        iterations=iterations,
        polish_iterations=polish_iterations,
        starts_agree=starts_agree,
        lambda_spread_starts=lambda_spread,
        distance_to_boundary=float(u.values.min() / max(u.sup_norm, 1e-300)),
        problem={"name": spec.name, "params": spec.params},
        mesh_info={"n_elements": mesh.n_elements,
                   "h_max": mesh.h_max,
                   "quasi_uniformity": mesh.quasi_uniformity,
                   "nodes": mesh.nodes.tolist()},
        options=options,
    )


def _ascent_bound(flat, quotients, y, c) -> float:
    """Weak-duality bound on the scaled gain of the first LP ``_slp`` solves from ``flat``.

    For ``y`` on the simplex and ``c = S^T y`` (S the quotient gradients),
    every step du in the LP's box l <= du <= t has min_i (R_i + S_i du) <=
    y . R + c . du (Nocedal and Wright, Numerical Optimization, 2nd ed., ch. 13),
    so the gain over q_min = min_i R_i is at most y . R - q_min + sum_j
    max(c_j t, c_j l_j), scaled by 1 + |q_min| as ``_slp`` scales it.  The box
    is that of ``_slp``: t = ``_TRUST_RADIUS_INIT`` |u|_inf, l_j = max(-t, floor - u_j).
    """
    scale, q_min = float(np.abs(flat).max()), float(quotients.min())
    trust = _TRUST_RADIUS_INIT * scale
    lower = np.maximum(-trust, model.CONE_FLOOR_REL * scale - flat)
    return float((y @ quotients - q_min + np.maximum(c * trust, c * lower).sum())
                 / (1.0 + abs(q_min)))


def _node_major_slots(m: int, n: int):
    """Slot (k*n + i, 3l + s) of an (m*n, 3m) band couples unknown (k, i)
    with (l, i + s - 1).  Returns (m*n, 3m) arrays: whether that unknown lies
    inside the mesh, and its node-major index (i + s - 1) m + l."""
    neighbour = np.arange(m * n)[:, None] % n + np.tile(np.arange(3) - 1, m)
    return (neighbour >= 0) & (neighbour < n), neighbour * m + np.repeat(np.arange(m), 3)


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=16)
def _gram_layout(m: int, n: int):
    """Layout of the node-major upper band of J^T J, of half-width
    min(2(2m - 1), m*n - 1), summed from an (m*n, 3m) band of J.

    Entry (a, b) of J^T J is the sum over rows r of J[r, a] J[r, b].  Returns
    the flat band indices of the two factors of each product with a at or
    before b node-major, the flat index of (a, b) in the upper band, and the
    band's shape.  The products come in ascending r, as a row-by-row sparse
    product J^T @ J sums them, so the sums keep that product's bits.
    """
    big, width = m * n, min(2 * (2 * m - 1), m * n - 1)
    inside, node = _node_major_slots(m, n)
    r, p, q = np.nonzero(inside[:, :, None] & inside[:, None, :]
                         & (node[:, :, None] <= node[:, None, :]))
    target = (width + node[r, p] - node[r, q]) * big + node[r, q]
    return _frozen(r * 3 * m + p, r * 3 * m + q, target) + ((width + 1, big),)


@functools.lru_cache(maxsize=16)
def _general_layout(m: int, n: int):
    """Node-major general band of J, half-width 2m - 1, as ``_kernels.band_lu`` takes it: flat
    indices of J's entries in an (m*n, 3m) band and in that band, and its shape."""
    width = 2 * m - 1
    inside, node = _node_major_slots(m, n)
    r, slot = np.nonzero(inside)
    col = node[r, slot]
    target = col * (3 * width + 1) + 2 * width + (r % n) * m + r // n - col
    return _frozen(r * 3 * m + slot, target) + ((3 * width + 1, m * n),)


def _general_band(jac: np.ndarray, m: int, n: int) -> np.ndarray:
    """The general band (``_general_layout``) of J on an (m*n, 3m) band."""
    source, target, shape = _general_layout(m, n)
    band = np.zeros(math.prod(shape))
    band[target] = jac.reshape(3 * m * m * n)[source]
    return band.reshape(shape[::-1]).T


def _band_product(band: np.ndarray, width: int, x: np.ndarray, trans: int = 0) -> np.ndarray:
    """A x, or A^T x if ``trans`` is 1, for A on the general band ``band``
    (``_general_layout``): one product per diagonal, summed in the order of
    the band's rows, from the outermost superdiagonal to the outermost
    subdiagonal, so the bits depend on no BLAS thread count."""
    size = band.shape[1]
    out = np.zeros(size)
    reach = min(width, size - 1)
    for d in range(-reach, reach + 1):
        # diagonal i - j = d holds A[i, j] at band[2 width + d, j]
        rows, cols = slice(max(d, 0), size + min(d, 0)), slice(max(-d, 0), size - max(d, 0))
        into, source = (cols, rows) if trans else (rows, cols)
        out[into] += band[2 * width + d, cols] * x[source]
    return out


def _gram_band(jac: np.ndarray, m: int, n: int) -> np.ndarray:
    """Node-major upper band of J^T J (``_gram_layout``) for J on an (m*n, 3m) band."""
    first, second, target, shape = _gram_layout(m, n)
    flat = jac.ravel()
    band = np.bincount(target, weights=flat[first] * flat[second], minlength=math.prod(shape))
    return band.reshape(shape)


def _symmetric_band(jac: np.ndarray, m: int, n: int) -> np.ndarray:
    """Node-major upper band of (J + J^T) / 2, of half-width min(2m - 1, m*n - 1), for J on
    an (m*n, 3m) band: its diagonal d averages J's diagonals d and -d."""
    general, big, top = _general_band(jac, m, n), m * n, 2 * (2 * m - 1)
    width = min(2 * m - 1, big - 1)
    band = np.zeros((width + 1, big))
    for d in range(width + 1):
        band[width - d, d:] = 0.5 * (general[top - d, d:] + general[top + d, :big - d])
    return band


def _spectral_norm(jac: np.ndarray, m: int, n: int) -> float:
    """|J|_2 of J on an (m*n, 3m) band, from the top eigenvalue of J^T J."""
    top = _kernels.banded_eigenvalue(_gram_band(jac, m, n), m * n - 1)
    return float(np.sqrt(max(top, 0.0)))


# elements of the coarsest mesh of the nested path: ``maximize`` runs its
# multistart on the target mesh itself when that has fewer than twice as many
_COARSE_ELEMENTS = 16


def maximize(spec: ProblemSpec, mesh: Mesh1D,
             options: SolverOptions | None = None) -> MinimaxCertificate:
    """Solve lambda_r* = sup over the open cone of min_i R(u, eta_i).

    The multistart runs ``n_starts`` SLP starts in lockstep (the
    torsion-profile start plus seeded random cone perturbations).  Each
    start stops at the hand-over gain ``_HANDOVER_GAIN``, every converged
    start is polished once by Newton on the minimally augmented fold system,
    and the largest polished value wins; ``polish_failed`` means no start
    polished, and the certificate, never VALID, is then that of the best
    loose SLP point with its LP duals.  The converged starts are polished together in
    lockstep (``_fold_polish``), and each ends where, and as, it would
    alone.  ``cone_collapse`` and ``unbounded_ascent`` outcomes are reported
    in the certificate status, not raised.

    A mesh that halves (every other node) to at least ``_COARSE_ELEMENTS``
    elements is solved by nested iteration: the multistart runs on the
    coarsest such mesh, and when its certificate is VALID, ``_carry``
    interpolates its fold up each doubling and polishes it once per level,
    and on ``mesh`` itself the polished point must give a VALID certificate,
    whose no-ascent bound replaces any SLP there (the carry of
    ``continue_certificate``).  Such a certificate has ``start``
    ``nested``; its ``starts_agree`` and ``lambda_spread_starts`` describe
    the coarse multistart, ``polish_iterations`` the polish on ``mesh``, and
    ``iterations`` is 0.  Should the coarse certificate be invalid or the
    carry be refused, the multistart runs on ``mesh`` and ``start`` is
    ``fallback``.  Every other call runs the multistart on ``mesh``
    (``multistart``).

    The polish factors banded bordered systems of J, the certificate reads
    the polish's last point, and neither takes an SVD: ``sigma_min`` is an
    upper bound from the bordered null vectors, which is all the singularity
    test needs, and ``jac_norm`` comes from LAPACK ``dsbevx``.  To carry a
    VALID certificate to a finer mesh or a nearby problem, use
    ``continue_certificate``.
    """
    options = options or SolverOptions()
    xs = np.linspace(0.0, 1.0, 33)
    for co in spec.a_coeff:
        samples = np.broadcast_to(np.asarray(co(xs) if callable(co) else co, dtype=float), xs.shape)
        if np.any(samples <= 0.0):
            raise ValueError("parameter-term coefficient must be positive (hypothesis h1)")

    meshes = [mesh]
    while meshes[0].n_elements % 2 == 0 and meshes[0].n_elements // 2 >= _COARSE_ELEMENTS:
        meshes.insert(0, mesh_from_nodes(meshes[0].nodes[::2]))
    if len(meshes) == 1:
        return _multistart(spec, mesh, options)
    coarse = _multistart(spec, meshes[0], options)
    nested = _carry(spec, meshes[1:], coarse, options) if coarse.valid else None
    if nested is not None:
        return replace(nested, start="nested")
    return replace(_multistart(spec, mesh, options), start="fallback")


def _multistart(spec: ProblemSpec, mesh: Mesh1D, options: SolverOptions) -> MinimaxCertificate:
    """The multistart of ``maximize`` on ``mesh`` itself: the SLP of every
    start, then the fold polish of every converged one."""
    blocks = model.stiffness_blocks(spec, mesh)
    results = _slp(spec, mesh, _starts(spec, mesh, options, blocks), blocks, _HANDOVER_GAIN)
    converged = [r for r in results if r.status == "converged"]

    if converged:
        polished = [(result, r.iterations) for r, result in zip(
            converged, _fold_polish(spec, mesh, [(r.flat, r.lam) for r in converged], blocks))
            if result.ok]
        if polished:
            best, slp_iterations = max(polished, key=lambda p: p[0].lam)
            spread, agree = _agreement([p.lam for p, _ in polished], best.lam)
            return _certificate(spec, mesh, best.point, "polished", slp_iterations,
                                best.iterations, agree, spread, options)

    # no start polished: the best SLP point, bordered as a polish starts, with its LP duals
    candidates = converged or results
    best = max(candidates, key=lambda r: r.lam)
    spread, agree = _agreement([r.lam for r in candidates], best.lam)
    status = "polish_failed" if best.status == "converged" else best.status
    point, = _polish_points(spec, mesh, blocks, [best.flat], [best.lam],
                            [_ones_border(best.flat.size)])
    if point is None:
        raise RuntimeError("singular bordered matrix at the certificate point")
    return _certificate(spec, mesh, point, status, best.iterations, 0, agree, spread, options,
                        mu_lp=best.mu_lp)


def _starts(spec: ProblemSpec, mesh: Mesh1D, options: SolverOptions, blocks) -> list:
    """The ``n_starts`` start fields of the multistart: the torsion profile,
    then seeded random shapes, all scaled by one stacked
    ``amplitude_line_search``."""
    shapes = [torsion_start(spec, mesh, blocks).values]
    # randomized cone starts: inverse stiffness of random positive loads gives
    # smooth strictly positive shapes (discrete maximum principle)
    rng = np.random.default_rng(options.seed)
    for _ in range(options.n_starts - 1):
        loads = np.abs(rng.standard_normal((spec.m, mesh.n_interior))) + 0.05
        shape = np.stack([blocks[k].solve(loads[k]) for k in range(spec.m)])
        if np.any(shape <= 0.0):
            shape = np.abs(shape) + 1e-6
        shapes.append(shape)
    return [FEField(mesh, values)
            for values in amplitude_line_search(spec, mesh, np.stack(shapes), blocks)]


# the relative spread of the multi-start values within which the starts agree
_MULTISTART_REL_TOL = 1e-6


def _agreement(lams, lam_best: float):
    """Spread of the multi-start values and whether it is within tolerance."""
    spread = float(max(lams) - min(lams)) if len(lams) > 1 else 0.0
    return spread, spread <= _MULTISTART_REL_TOL * (1.0 + abs(lam_best))


def _carry(spec, meshes, cert, options) -> Optional[MinimaxCertificate]:
    """Carry the fold of ``cert`` onto each of ``meshes`` in turn: interpolate
    its field, polish once from the last lambda, and certify on the last mesh.
    None at the first refusal: a field outside the open cone, a polish that
    is not ``ok``, or an invalid certificate.  The certificate keeps the
    multistart agreement of ``cert``."""
    u, lam = cert.u_star, cert.lambda_star
    for mesh in meshes:
        warm = u.transfer_to(mesh)
        if not model.in_open_cone(warm):
            return None
        blocks = model.stiffness_blocks(spec, mesh)
        polished, = _fold_polish(spec, mesh, [(warm.flatten(), lam)], blocks)
        if not polished.ok:
            return None
        u, lam = polished.u, polished.lam
    carried = _certificate(spec, mesh, polished.point, "polished", 0, polished.iterations,
                           cert.starts_agree, cert.lambda_spread_starts, options)
    return carried if carried.valid else None


def continue_certificate(spec: ProblemSpec, mesh: Mesh1D, cert: MinimaxCertificate,
                         options: SolverOptions | None = None) -> MinimaxCertificate:
    """Carry a VALID certificate to a new mesh or a nearby problem: nested iteration.

    ``cert.u_star`` is interpolated onto ``mesh`` and the fold polish starts
    there at ``cert.lambda_star``.  The certificate of the polished point
    must be VALID; its no-ascent bound shows that no SLP step leads from
    there to another branch, so no SLP runs (``iterations`` is 0).  Such a
    certificate has ``start`` ``continued``: its ``starts_agree`` and
    ``lambda_spread_starts`` are those of ``cert``, the multistart the chain
    started from.  Should the field leave the cone, the polish fail or the
    certificate be invalid, an ascent left included, ``maximize`` runs
    instead and ``start`` is ``fallback``.  The returned certificate's
    ``start`` names the path.  Raises ``ValueError`` unless
    ``cert.valid``.
    """
    if not cert.valid:
        raise ValueError("continuation requires a VALID certificate")
    options = options or SolverOptions()
    carried = _carry(spec, [mesh], cert, options)
    if carried is not None:
        return replace(carried, start="continued")
    return replace(maximize(spec, mesh, options=options), start="fallback")


# ---------------------------------------------------------------------------
# Newton and continuation oracles


@dataclass(frozen=True)
class NewtonResult:
    converged: bool
    u: Optional[FEField]
    residual_norm: float
    iterations: int
    reason: str


_NEWTON_MAX_ITERS = 60
_NEWTON_TOL = 1e-11
_NEWTON_DAMPING_STEPS = 25


def _band_at(spec, mesh, flat, lam, terms, blocks) -> np.ndarray:
    """Band of J(u, lam) at the flat field u whose Galerkin terms are ``terms``,
    from one ``jacobian_parts`` on their quadrature samples."""
    parts = model.jacobian_parts(spec, mesh, flat.reshape(spec.m, mesh.n_interior),
                                 blocks=blocks, samples=terms.samples)
    return parts.jacobian_band(lam)


def newton_solve(spec: ProblemSpec, mesh: Mesh1D, lam: float, u0: FEField,
                 blocks=None) -> NewtonResult:
    """Damped Newton on the Galerkin residual at fixed lambda, with cone floor.

    Success means residual sup norm below ``_NEWTON_TOL`` (1e-11) at a
    strictly interior field within ``_NEWTON_MAX_ITERS`` (60) steps, each
    halved up to ``_NEWTON_DAMPING_STEPS`` (25) times until the residual
    decreases; iterates are clamped at the relative cone floor.  The zero
    field solves the residual identically (f and g vanish on the cone
    boundary), so iterates that collapse toward it are reported as failures,
    never as solutions.  Each iterate is assembled once, and its Jacobian
    is factored by one banded LU (``_kernels.band_lu``).
    """
    model.require_open_cone(u0, "newton start")
    if blocks is None:
        blocks = model.stiffness_blocks(spec, mesh)
    m, n = spec.m, mesh.n_interior
    flat = u0.flatten()
    scale0 = float(np.abs(flat).max())

    def res_norm(fl):
        terms = rayleigh.galerkin_terms(spec, mesh, fl.reshape(m, n), blocks)
        r = terms.residual(lam)
        return float(np.abs(r).max()), r, terms

    norm, r, terms = res_norm(flat)
    for it in range(1, _NEWTON_MAX_ITERS + 1):
        if np.abs(flat).max() < 1e-10 * scale0:
            return NewtonResult(False, None, norm, it - 1, "collapsed_to_zero")
        if norm < _NEWTON_TOL:
            return NewtonResult(True, FEField.from_flat(mesh, m, flat), norm, it - 1, "converged")
        try:
            factors = _kernels.band_lu(_general_band(
                _band_at(spec, mesh, flat, lam, terms, blocks), m, n), 2 * m - 1)
            step = _transposed(_kernels.band_lu_solve(factors, _transposed(-r, m, n)), n, m)
        except (RuntimeError, model.ConeError):
            return NewtonResult(False, None, norm, it - 1, "jacobian_singular")
        if not np.all(np.isfinite(step)):
            return NewtonResult(False, None, norm, it - 1, "jacobian_singular")

        accepted = False
        damp = 1.0
        for _ in range(_NEWTON_DAMPING_STEPS):
            trial = flat + damp * step
            floor = model.CONE_FLOOR_REL * max(np.abs(trial).max(), 1e-300)
            trial = np.maximum(trial, floor)
            trial_norm, trial_r, trial_terms = res_norm(trial)
            if trial_norm < norm * (1.0 - 1e-4 * damp):
                flat, norm, r, terms = trial, trial_norm, trial_r, trial_terms
                accepted = True
                break
            damp *= 0.5
        if not accepted:
            return NewtonResult(False, None, norm, it, "no_decrease")
    if norm < _NEWTON_TOL:
        return NewtonResult(True, FEField.from_flat(mesh, m, flat), norm,
                            _NEWTON_MAX_ITERS, "converged")
    return NewtonResult(False, None, norm, _NEWTON_MAX_ITERS, "max_iters")


def newton_multistart(spec: ProblemSpec, mesh: Mesh1D, lam: float,
                      n_starts: int = 20, seed: int = 0,
                      blocks=None) -> NewtonResult:
    """Deterministic multi-start Newton: torsion-profile amplitudes + random fields."""
    if blocks is None:
        blocks = model.stiffness_blocks(spec, mesh)
    base = torsion_start(spec, mesh, blocks)
    shape = base.values / base.sup_norm
    rng = np.random.default_rng(seed)
    n_amp = max(n_starts // 2, 1)
    starts = [FEField(mesh, t * shape) for t in np.geomspace(1e-2, 1e2, n_amp)]
    while len(starts) < n_starts:
        starts.append(FEField(mesh, np.abs(rng.standard_normal(shape.shape)) + 0.05))
    best = NewtonResult(False, None, np.inf, 0, "no_start")
    for s in starts:
        result = newton_solve(spec, mesh, lam, s, blocks=blocks)
        if result.converged:
            return result
        if result.residual_norm < best.residual_norm:
            best = result
    return best


@dataclass(frozen=True)
class BranchPoint:
    """One accepted continuation point.

    ``stability`` is the smallest eigenvalue of the symmetrized Jacobian;
    its sign is the stability indicator.
    """

    lam: float
    u: FEField
    stability: float
    arclength: float


_DS_INIT = 0.1
_DS_MAX = 2.0
_DS_MIN = 1e-10
_MAX_STEPS = 400
_CORRECTOR_TOL = 1e-11
_CORRECTOR_ITERS = 20


@dataclass(frozen=True)
class ContinuationResult:
    points: tuple
    fold_lambda: Optional[float]
    status: str


def _tangent(jac, m, n, g_load, prev):
    """Unit tangent of the solution branch at a point with Jacobian band
    ``jac`` and parameter load ``g_load``, oriented along prev."""
    tan = _BorderedLU(jac, m, n, -g_load, prev[:-1], prev[-1]).unit_solve()
    tan /= np.linalg.norm(tan)
    if tan @ prev < 0:
        tan = -tan
    return tan


def _stability(jac: np.ndarray, m: int, n: int) -> float:
    """Smallest eigenvalue of the symmetric part (J + J^T) / 2 of J on its band."""
    return _kernels.banded_eigenvalue(_symmetric_band(jac, m, n), 0)


def _corrector(spec, mesh, z_pred, tangent, blocks):
    """Newton on [F(u, lam); tangent . (z - z_pred)] = 0.

    Returns the corrected point with its Galerkin terms, or None when an
    iterate leaves the open cone (``model.in_open_cone``), the bordered
    matrix is singular or the iterations run out.
    """
    m, n = spec.m, mesh.n_interior
    z = z_pred.copy()
    for _ in range(_CORRECTOR_ITERS):
        flat, lam = z[:-1], z[-1]
        if not model.in_open_cone(flat.reshape(m, n)).all():
            return None
        terms = rayleigh.galerkin_terms(spec, mesh, flat.reshape(m, n), blocks)
        res = terms.residual(lam)
        aug = np.append(res, tangent @ (z - z_pred))
        if np.abs(res).max() < _CORRECTOR_TOL and abs(aug[-1]) < 1e-12:
            return z, terms
        try:
            step = _BorderedLU(_band_at(spec, mesh, flat, lam, terms, blocks), m, n,
                               -terms.g_load.ravel(), tangent[:-1], tangent[-1]).solve(-aug)
        except RuntimeError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        z = z + step
    return None


def continuation_sweep(spec: ProblemSpec, mesh: Mesh1D,
                       lambda_max_guess: float) -> ContinuationResult:
    """Pseudo-arclength continuation of the positive branch, fold by regula falsi.

    The branch starts from a Newton solution at a small parameter value and
    is traced for up to ``_MAX_STEPS`` (400) steps, until the tangent's lambda
    component changes sign (a fold) or the step collapses below ``_DS_MIN``
    (1e-10).  The step starts at ``_DS_INIT`` (0.1) and grows 1.3-fold per
    point up to ``_DS_MAX`` (2) times the start's sup norm (Allgower and
    Georg, Introduction to Numerical Continuation Methods, SIAM 2003, ch. 6)
    and halves when a corrector, ``_CORRECTOR_ITERS`` (20) Newton steps to
    a residual below ``_CORRECTOR_TOL`` (1e-11), fails.  The fold is then
    found inside the bracket of the last two points (``_refine_fold``).
    Intended as an oracle independent of the minimax maximization.  Each
    branch point is assembled once; its tangent and the corrector steps
    each solve the bordered matrix [J, -g; t^T] on one banded LU of J
    (``_BorderedLU``), and its stability value comes from LAPACK ``dsbevx``.
    """
    blocks = model.stiffness_blocks(spec, mesh)
    m, n = spec.m, mesh.n_interior

    lam0 = 0.05 * lambda_max_guess
    start = None
    for _ in range(8):
        result = newton_multistart(spec, mesh, lam0, n_starts=12, blocks=blocks)
        if result.converged:
            start = result.u
            break
        lam0 *= 0.5
    if start is None:
        return ContinuationResult((), None, "no_start")

    z = np.concatenate([start.flatten(), [lam0]])
    prev = np.zeros(z.size)
    prev[-1] = 1.0
    terms = rayleigh.galerkin_terms(spec, mesh, start, blocks)
    jac = _band_at(spec, mesh, z[:-1], z[-1], terms, blocks)
    try:
        tan = _tangent(jac, m, n, terms.g_load.ravel(), prev)
    except RuntimeError:
        return ContinuationResult((), None, "tangent_failed")

    arclength = 0.0
    points = [BranchPoint(float(z[-1]), FEField.from_flat(mesh, m, z[:-1]),
                          _stability(jac, m, n), arclength)]

    ds = _DS_INIT * max(1.0, start.sup_norm)
    ds_max = _DS_MAX * max(1.0, start.sup_norm)
    status = "max_steps"
    fold_lambda = None

    for _ in range(_MAX_STEPS):
        corrected = None
        while ds >= _DS_MIN:
            corrected = _corrector(spec, mesh, z + ds * tan, tan, blocks)
            if corrected is not None:
                break
            ds *= 0.5
        if corrected is None:
            status = "step_collapse"
            break
        z_new, terms = corrected
        jac = _band_at(spec, mesh, z_new[:-1], z_new[-1], terms, blocks)
        try:
            tan_new = _tangent(jac, m, n, terms.g_load.ravel(), tan)
        except RuntimeError:
            status = "tangent_failed"
            break
        arclength += float(np.linalg.norm(z_new - z))
        points.append(BranchPoint(float(z_new[-1]), FEField.from_flat(mesh, m, z_new[:-1]),
                                  _stability(jac, m, n), arclength))

        if tan[-1] > 0.0 and tan_new[-1] < 0.0:
            fold_lambda = _refine_fold(spec, mesh, z, tan, z_new, tan_new, blocks)
            status = "fold_found"
            z, tan = z_new, tan_new
            break
        z, tan = z_new, tan_new
        ds = min(ds * 1.3, ds_max)
        if z[-1] < 0.0 or z[-1] > 4.0 * lambda_max_guess:
            status = "left_window"
            break

    return ContinuationResult(tuple(points), fold_lambda, status)


def _refine_fold(spec, mesh, z_lo, tan_lo, z_hi, tan_hi, blocks):
    """Fold between the branch points ``z_lo`` and ``z_hi``, whose tangents'
    lambda components are positive and negative: Illinois regula falsi on
    that component (Dowell and Jarratt, BIT 11, 1971, 168-174).

    The trial points lie on the chord from ``z_lo`` to ``z_hi``, each is
    corrected in the hyperplane through it normal to the chord, and its
    tangent is oriented along the chord.  The search stops once a point's
    lambda component is below 1e-9 in magnitude or the bracket on the chord
    is narrower than ``_DS_MIN``; a failed corrector or tangent moves the
    trial halfway toward the bracket's lower end.  Returns the lambda of the
    point whose tangent's lambda component is smallest in magnitude.
    """
    chord = z_hi - z_lo
    length = float(np.linalg.norm(chord))
    chord /= length
    s_lo, t_lo, s_hi, t_hi = 0.0, tan_lo[-1], length, tan_hi[-1]
    best_t, best = (abs(t_lo), z_lo) if abs(t_lo) <= abs(t_hi) else (abs(t_hi), z_hi)
    replaced = 0  # +1 (-1) when the last trial replaced the lower (upper) end
    s = s_lo - t_lo * (s_hi - s_lo) / (t_hi - t_lo)
    for _ in range(80):
        if best_t < 1e-9 or s_hi - s_lo < _DS_MIN:
            break
        point = _chord_point(spec, mesh, z_lo + s * chord, chord, blocks)
        if point is None:
            s = 0.5 * (s_lo + s)
            if s - s_lo < _DS_MIN:
                break
            continue
        z, t = point
        if abs(t) < best_t:
            best_t, best = abs(t), z
        if t > 0.0:
            s_lo, t_lo = s, t
            if replaced == 1:
                t_hi *= 0.5
            replaced = 1
        else:
            s_hi, t_hi = s, t
            if replaced == -1:
                t_lo *= 0.5
            replaced = -1
        s = s_lo - t_lo * (s_hi - s_lo) / (t_hi - t_lo)
    return float(best[-1])


def _chord_point(spec, mesh, z_pred, chord, blocks):
    """The branch point in the hyperplane through ``z_pred`` normal to
    ``chord``, and its tangent's lambda component with the tangent oriented
    along ``chord``; None when the corrector or the tangent fails."""
    corrected = _corrector(spec, mesh, z_pred, chord, blocks)
    if corrected is None:
        return None
    z, terms = corrected
    try:
        tan = _tangent(_band_at(spec, mesh, z[:-1], z[-1], terms, blocks), spec.m,
                       mesh.n_interior, terms.g_load.ravel(), chord)
    except RuntimeError:
        return None
    return z, float(tan[-1])
