"""Extended Rayleigh quotient R(u, v) and its Collatz-Wielandt inner minimum.

R(u, v) = [a_m(u, v) - <f(u), v>] / <g(u), v> over pairs of cone fields.  The
infimum of R(u, .) over the open discrete cone equals the minimum over the
nodal basis directions, so the inner problem reduces to m * n_interior
scalar quotients.  Gradients in u are assembled analytically from the same
Jacobian bands used by the solver; no numerical differentiation is used on
the production path.  Each quotient depends on the 3m unknowns at its own
node and the two neighbouring nodes, so the gradients are kept as an
(m * n_interior, 3m) stencil on that band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import model
from .mesh_fem import Mesh1D
from .model import FEField, ProblemSpec

#: absolute guard for the denominator <g(u), v>; values at or below this
#: violate the positivity the quotient needs to be well defined.
TOL_DENOM = 1e-14


class DenominatorError(ValueError):
    """The pairing <g(u), v> is not safely positive."""


@dataclass(frozen=True)
class GalerkinTerms:
    """Assembled pairings at a fixed field u (all shapes (m, n_interior)).

    For a stack of fields every array gains a leading stack axis, and
    ``quotients``/``residual`` return one flat row per field.  ``terms[i]``
    is field i of a stack, and ``GalerkinTerms.stack`` joins single fields
    back into one; both only move the arrays.
    """

    stiff_action: np.ndarray  # (A_k u^k)_i = a^k(u^k, psi_i)
    f_load: np.ndarray
    g_load: np.ndarray
    blocks: tuple
    samples: tuple  # model.quadrature_samples of u, reused by model.jacobian_parts

    def quotients(self) -> np.ndarray:
        """Per-direction quotients R(u, eta_i), flat (component-major).

        The denominator is not checked here; callers guard it where needed.
        """
        return self._flat(self.stiff_action - self.f_load) / self._flat(self.g_load)

    def residual(self, lam: float) -> np.ndarray:
        """Galerkin residual a(u, psi_i) - <f(u), psi_i> - lam <g(u), psi_i>, flat."""
        return self._flat(self.stiff_action - self.f_load - lam * self.g_load)

    def _flat(self, a: np.ndarray) -> np.ndarray:
        return a.reshape(a.shape[:-2] + (-1,))

    def __getitem__(self, i: int) -> GalerkinTerms:
        x, t, shape = self.samples
        points = t.shape[1] // shape[0]
        return GalerkinTerms(stiff_action=self.stiff_action[i], f_load=self.f_load[i],
                             g_load=self.g_load[i], blocks=self.blocks,
                             samples=(x[:points], t[:, i * points:(i + 1) * points], shape[1:]))

    @staticmethod
    def stack(fields: Sequence[GalerkinTerms]) -> GalerkinTerms:
        """Join the terms of single fields into those ``galerkin_terms`` gives for their stack."""
        x, _, shape = fields[0].samples
        return GalerkinTerms(
            stiff_action=np.stack([f.stiff_action for f in fields]),
            f_load=np.stack([f.f_load for f in fields]),
            g_load=np.stack([f.g_load for f in fields]),
            blocks=fields[0].blocks,
            samples=(np.tile(x, len(fields)),
                     np.concatenate([f.samples[1] for f in fields], axis=1),
                     (len(fields),) + shape))


def galerkin_terms(spec: ProblemSpec, mesh: Mesh1D, u,
                   blocks: tuple | None = None) -> GalerkinTerms:
    """Pairings at the field ``u``: an FEField, or coefficients (S, m, n_interior).

    A stack of S fields is assembled in one pass (one call to each reaction
    callback for all of them).
    """
    if blocks is None:
        blocks = model.stiffness_blocks(spec, mesh)
    values = u.values if isinstance(u, FEField) else np.asarray(u, dtype=float)
    action = np.stack([blocks[k].matvec(values[..., k, :]) for k in range(spec.m)], axis=-2)
    samples = model.quadrature_samples(spec, mesh, values)
    f_load, g_load = model.eval_residual_terms(spec, mesh, values, samples)
    return GalerkinTerms(stiff_action=action, f_load=f_load, g_load=g_load, blocks=blocks,
                         samples=samples)


@dataclass(frozen=True)
class InnerMinResult:
    """Inner minimum over nodal directions: lambda_r(u) = min_i R(u, eta_i).

    ``quotients`` holds all m * n_interior per-direction values in flat
    (component-major) order; ``active_set`` collects the indices within
    1e-8 * (1 + |value|) of the minimum.
    """

    value: float
    quotients: np.ndarray
    active_set: np.ndarray


def inner_min(spec: ProblemSpec, mesh: Mesh1D, u: FEField,
              terms: GalerkinTerms | None = None) -> InnerMinResult:
    """Evaluate R(u, eta_i) for every nodal direction and take the minimum."""
    model.require_open_cone(u, "inner minimum")
    if terms is None:
        terms = galerkin_terms(spec, mesh, u)
    if np.any(terms.g_load <= TOL_DENOM):
        raise DenominatorError("a direction pairing <g(u), eta_i> is not positive")
    quotients = terms.quotients()
    value = float(quotients.min())
    tol_active = 1e-8 * (1.0 + abs(value))
    active = np.flatnonzero(quotients <= value + tol_active)
    q = quotients.copy()
    q.flags.writeable = False
    return InnerMinResult(value=value, quotients=q, active_set=active)


def quotient_gradients(spec: ProblemSpec, mesh: Mesh1D, u,
                       terms: GalerkinTerms | None = None,
                       parts: model.JacobianParts | None = None,
                       quotients: np.ndarray | None = None) -> np.ndarray:
    """All direction gradients as an (m*n, 3m) stencil on the Jacobian band.

    ``u`` is an FEField, or coefficients (S, m, n_interior) of a stack of S
    fields, which gives an (S, m*n, 3m) stack of stencils equal to those of
    each field alone; ``terms``, ``parts`` and ``quotients`` are then stacks
    too.

    Entry (k*n + i, 3*l + s) is dR_{k,i}/du_{l,i+s-1}, the derivative of
    u -> R(u, eta_{k,i}) in the coefficient of component l at node i + s - 1;
    every other derivative vanishes.  Quotient rule on R_i = N_i / D_i with
    N_i the stiffness-minus-reaction pairing and D_i = <g(u), eta_i>:
        grad R_i = [row_i(A - f_u-mass) - R_i row_i(g_u-mass)] / D_i,
    entry by entry on the band.  The denominators are checked here;
    ``quotients`` passes R_i when the caller already holds them.  Without
    ``parts`` the bands are assembled from the quadrature samples ``terms``
    already took, and ``model.jacobian_parts`` checks the cone.
    ``model.band_pattern`` maps each stencil entry to its place in the dense
    gradient matrix.
    """
    if terms is None:
        terms = galerkin_terms(spec, mesh, u)
    if parts is None:
        parts = model.jacobian_parts(spec, mesh, u, blocks=terms.blocks, samples=terms.samples)
    else:
        model.require_open_cone(u, "quotient gradient")
    denom = terms._flat(terms.g_load)
    if np.any(denom <= TOL_DENOM):
        raise DenominatorError("a direction pairing <g(u), eta_i> is not positive")
    if quotients is None:
        quotients = terms.quotients()
    jac_a = parts.stiffness_band - parts.mass_f_band
    return (jac_a - quotients[..., None] * parts.mass_g_band) / denom[..., None]

