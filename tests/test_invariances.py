"""Exact invariances of the discrete problem as oracles for the solver.

The Galerkin equations see the parameter only in the product lambda a, so
doubling the coefficient a maps the fold (u*, lambda*) onto (u*, lambda*/2),
with the same multipliers.  Swapping the two components of a cooperative
system, its exponents alpha and loads b with them, swaps the components of
u*, mu and v* and leaves lambda* as it is.  Neither needs a reference
solution.  The system below is not variational: its coupling exponents
differ, so its Jacobian is not symmetric, and the right and left null
vectors of its fold differ.

Every comparison is held to ``ROUNDOFF_MULTIPLE`` times the larger of the two
roundoff estimates of the polishes that made the compared certificates
(``PolishResult.roundoff``), not to a fixed floor.
"""

import functools

import numpy as np
import pytest

from minimax_fold import minimax_solver
from minimax_fold.mesh_fem import build_mesh
from minimax_fold.model import cooperative_product, scalar_power
from minimax_fold.verification import verify_certificate

N = 64
ROUNDOFF_MULTIPLE = 10.0

ALPHA, B = [[0.0, 0.2], [1.5, 0.0]], [1.0, 3.0]
PROBLEMS = {
    "scalar_power": lambda a: scalar_power(0.5, 2.0, a=a),
    "cooperative_product": lambda a: cooperative_product(2, alpha=ALPHA, b=B, a=a),
    "cooperative_product-swapped": lambda a: cooperative_product(
        2, alpha=np.array(ALPHA)[::-1, ::-1], b=B[::-1], a=a),
}


@functools.cache
def solved(name, a=1.0):
    """The certificate of ``maximize`` at n = N and the roundoff estimate of
    the polish it was read off."""
    spec, mesh = PROBLEMS[name](a), build_mesh(N)
    calls = []
    real_polish = minimax_solver._fold_polish

    def recording_polish(*args):
        calls.append(real_polish(*args))
        return calls[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(minimax_solver, "_fold_polish", recording_polish)
        cert = minimax_solver.maximize(spec, mesh)
    assert cert.valid and cert.status == "polished"
    assert verify_certificate(spec, mesh, cert).valid
    return cert, next(r.roundoff for r in calls[-1] if r.ok and r.lam == cert.lambda_star)


def assert_close(value, reference, tol):
    value, reference = np.asarray(value), np.asarray(reference)
    assert np.abs(value - reference).max() <= tol * np.abs(reference).max()


@pytest.mark.parametrize("name", ["scalar_power", "cooperative_product"])
def test_doubling_a_halves_lambda(name):
    (cert, roundoff), (doubled, roundoff2) = solved(name), solved(name, 2.0)
    tol = ROUNDOFF_MULTIPLE * max(roundoff, roundoff2)
    assert_close(2.0 * doubled.lambda_star, cert.lambda_star, tol)
    for field in ("u_star", "v_star"):
        assert_close(getattr(doubled, field).values, getattr(cert, field).values, tol)
    assert_close(doubled.mu, cert.mu, tol)


def test_swapping_the_components_permutes_the_fold():
    (cert, roundoff), (swapped, roundoff2) = solved("cooperative_product"), \
        solved("cooperative_product-swapped")
    tol = ROUNDOFF_MULTIPLE * max(roundoff, roundoff2)
    assert_close(swapped.lambda_star, cert.lambda_star, tol)
    for field in ("u_star", "v_star"):
        assert_close(getattr(swapped, field).values, getattr(cert, field).values[::-1], tol)
    assert_close(swapped.mu, cert.mu.reshape(2, -1)[::-1].ravel(), tol)
