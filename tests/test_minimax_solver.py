import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from minimax_fold import _kernels, mesh_fem, minimax_solver, model, rayleigh
from minimax_fold.mesh_fem import build_mesh
from minimax_fold.minimax_solver import (
    MinimaxCertificate,
    SolverOptions,
    continuation_sweep,
    maximize,
    newton_multistart,
    newton_solve,
)
from minimax_fold.model import (
    FEField,
    ProblemSpec,
    builtin_problem,
    linear_diagnostic,
    scalar_power,
)
from minimax_fold.verification import verify_certificate
from tests.references import to_dense, triplets_to_dense
from tests.test_harness_cli import count_calls
from tests.test_rayleigh import (
    STENCIL_CASES,
    bordered_dense,
    closed_form_eigenvalue,
    dense_gradients,
    mass_matrix,
    principal_eigenpair,
    stencil_case,
)

FAST = SolverOptions(n_starts=3)


def certificate_at(spec, mesh, flat, lam, options=FAST):
    """The ``polished`` certificate of the point ``(flat, lam)``, bordered as
    a polish borders its points: all-ones, then the normalized w and v found
    with it."""
    blocks = model.stiffness_blocks(spec, mesh)
    border = minimax_solver._ones_border(flat.size)
    for _ in range(2):
        point, = minimax_solver._polish_points(spec, mesh, blocks, [flat], [lam], [border])
        border = (point.w / np.linalg.norm(point.w), point.v / np.linalg.norm(point.v))
    return minimax_solver._certificate(spec, mesh, point, "polished", 0, 0, True, 0.0, options)


@pytest.fixture(scope="module")
def scalar_cert():
    return maximize(scalar_power(0.5, 2.0), build_mesh(24), options=FAST)


@pytest.fixture(scope="module")
def diagnostic_cert():
    return maximize(linear_diagnostic(), build_mesh(16), options=FAST)


def linear_like_spec(slope):
    """f(t) = slope * t; breaks superlinearity on purpose (solver stress cases)."""

    def f(x, t):
        return slope * t

    def f_jac(x, t):
        return np.full((1, 1) + t.shape[1:], slope)

    return ProblemSpec(m=1, sigma=(1.0,), c=(0.0,), a_coeff=(1.0,), a_bounds=(1.0, 1.0),
                       q=0.5, f=f, f_jac=f_jac, gamma0=2.0, gamma=2.0, theta=1.5,
                       name="linear_reaction")


class TestMaximizeLinearDiagnostic:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_generalized_eigenvalue(self, m):
        # with equal a every component carries the scalar eigenvalue, m-fold
        mesh = build_mesh(16)
        cert = maximize(linear_diagnostic(m), mesh, options=FAST)
        lam1, vec = principal_eigenpair(mesh)
        assert cert.valid and cert.status == "polished"
        assert abs(cert.lambda_star - lam1) <= 1e-11 * lam1
        assert abs(lam1 - closed_form_eigenvalue(16)) < 1e-12

    def test_primal_and_dual_align_with_eigenvector(self, diagnostic_cert):
        # self-adjoint case: u* and v* are both the positive eigenvector
        mesh = build_mesh(16)
        _, vec = principal_eigenpair(mesh)
        for field in (diagnostic_cert.u_star, diagnostic_cert.v_star):
            w = field.values.ravel()
            cos = abs(w @ vec) / (np.linalg.norm(w) * np.linalg.norm(vec))
            assert cos > 1.0 - 1e-8

    def test_certificate_valid(self, diagnostic_cert):
        assert diagnostic_cert.valid
        assert diagnostic_cert.active_set.size == 15


class TestMaximizeScalarPower:
    def test_certificate_valid(self, scalar_cert):
        cert = scalar_cert
        assert cert.valid and cert.status == "polished"
        assert cert.lambda_star > 0.0
        for value in (cert.primal_residual, cert.adjoint_residual,
                      cert.stationarity_residual, cert.complementarity_residual):
            assert value < 1e-8
        assert cert.sigma_min < 1e-6 * cert.jac_norm

    def test_tol_kkt_is_accepted_and_ignored(self):
        # a caller that still passes it gets the default run; the
        # certificate's options block records the two fields only
        options = SolverOptions(n_starts=1, tol_kkt=1e-3)
        assert options == SolverOptions(n_starts=1)
        assert vars(options) == {"n_starts": 1, "seed": 0}

    def test_multiplier_structure(self, scalar_cert):
        cert = scalar_cert
        assert np.all(cert.mu >= 0.0)
        assert abs(cert.mu.sum() - 1.0) < 1e-12
        # kappa_i = mu_i / <g(u*), eta_i> by construction
        _, g_load = model.eval_residual_terms(scalar_power(0.5, 2.0), build_mesh(24),
                                              cert.u_star)
        np.testing.assert_allclose(cert.kappa * g_load.ravel(), cert.mu, rtol=1e-10)

    def test_adjoint_strictly_positive(self, scalar_cert):
        assert np.all(scalar_cert.v_star.values > 0.0)

    def test_lambda_star_positive(self, scalar_cert):
        assert scalar_cert.lambda_star > 0.0

    def test_adjoint_spans_detected_null_space(self, scalar_cert):
        # angle between v* and the left singular vector of the independently
        # assembled Jacobian at sigma_min stays below 1e-3 rad
        from minimax_fold.verification import oracle_assembly

        mesh = build_mesh(24)
        spec = scalar_power(0.5, 2.0)
        system = oracle_assembly(spec, mesh, scalar_cert.u_star)
        jac = triplets_to_dense(system.jacobian(scalar_cert.lambda_star))
        left, _, _ = np.linalg.svd(jac)
        null_vec = left[:, -1]
        v = scalar_cert.v_star.values.ravel()
        cos = abs(v @ null_vec) / np.linalg.norm(v)
        assert np.arccos(min(cos, 1.0)) < 1e-3

    def test_energy_inequality(self, scalar_cert):
        spec = scalar_power(0.5, 2.0)
        mesh = build_mesh(24)
        cert = scalar_cert
        blocks = model.stiffness_blocks(spec, mesh)
        a_uu = sum(float(cert.u_star.values[k] @ blocks[k].matvec(cert.u_star.values[k]))
                   for k in range(1))
        _, g_load = model.eval_residual_terms(spec, mesh, cert.u_star)
        g_uu = float((cert.u_star.values * g_load).sum())
        lhs = (spec.theta - 1.0) * a_uu
        rhs = (spec.theta - spec.q) * cert.lambda_star * g_uu
        assert lhs <= rhs + 1e-10 * abs(rhs)

    def test_no_discrete_solution_beats_lambda_star(self, scalar_cert):
        # any Newton solution at any lambda stays below lambda_r*
        spec = scalar_power(0.5, 2.0)
        mesh = build_mesh(24)
        for frac in (0.3, 0.6, 0.9):
            sol = newton_multistart(spec, mesh, frac * scalar_cert.lambda_star, n_starts=10)
            assert sol.converged
            value = rayleigh.inner_min(spec, mesh, sol.u).value
            assert value <= scalar_cert.lambda_star + 1e-8

    def test_determinism_bit_identical(self):
        mesh = build_mesh(12)
        spec = scalar_power(0.5, 2.0)
        c1 = maximize(spec, mesh, options=FAST)
        c2 = maximize(spec, mesh, options=FAST)
        assert json.dumps(c1.to_dict(), sort_keys=True) == json.dumps(c2.to_dict(), sort_keys=True)

    def test_three_component_system(self):
        from minimax_fold.model import cooperative_product

        spec = cooperative_product(m=3, beta=(2.0, 2.5, 2.0), alpha=0.4)
        cert = maximize(spec, build_mesh(12), options=FAST)
        assert cert.valid
        assert cert.lambda_star > 0.0
        assert np.all(cert.v_star.values > 0.0)


class TestContinueCertificate:
    def test_requires_valid_certificate(self, scalar_cert):
        bad = dataclasses.replace(scalar_cert, valid=False)
        with pytest.raises(ValueError, match="VALID"):
            minimax_solver.continue_certificate(scalar_power(0.5, 2.0), build_mesh(48), bad)

    @pytest.mark.parametrize("name", ["scalar_power", "linear_diagnostic"])
    def test_continued_certificate_carries_the_multistart_agreement(self, scalar_cert,
                                                                    diagnostic_cert, name):
        spec, prev = (scalar_power(0.5, 2.0), scalar_cert) if name == "scalar_power" \
            else (linear_diagnostic(), diagnostic_cert)
        mesh = build_mesh(48)
        cert = minimax_solver.continue_certificate(spec, mesh, prev, FAST)
        assert cert.start == "continued"
        assert cert.valid and cert.status == "polished" and cert.iterations == 0
        assert cert.starts_agree == prev.starts_agree
        assert cert.lambda_spread_starts == prev.lambda_spread_starts
        assert verify_certificate(spec, mesh, cert).valid

    @pytest.mark.parametrize("refusal", ["guard_ascends", "field_leaves_cone"])
    def test_refused_continuation_falls_back(self, scalar_cert, monkeypatch, refusal):
        spec, mesh = scalar_power(0.5, 2.0), build_mesh(48)
        made = []
        if refusal == "guard_ascends":
            # a trust box this wide lets the residual stationarity S^T mu, of
            # order 1e-13, buy an ascent above _LOOSE_GAIN in the duality bound
            monkeypatch.setattr(minimax_solver, "_TRUST_RADIUS_INIT", 1e12)
            real_certificate = minimax_solver._certificate

            def recording_certificate(*args, **kwargs):
                made.append(real_certificate(*args, **kwargs))
                return made[-1]

            monkeypatch.setattr(minimax_solver, "_certificate", recording_certificate)
        else:
            # only the first interpolation, the continuation's own, leaves the
            # cone; the fallback's nested carry interpolates as usual
            real_transfer = FEField.transfer_to

            def transfer_leaving_cone(field, target):
                warm = real_transfer(field, target)
                made.append(warm)
                if len(made) > 1:
                    return warm
                values = warm.values.copy()
                values[0, 0] = -values[0, 0]
                return FEField(target, values)

            monkeypatch.setattr(FEField, "transfer_to", transfer_leaving_cone)
        cert = minimax_solver.continue_certificate(spec, mesh, scalar_cert, FAST)
        assert cert.start == "fallback" and made
        monkeypatch.undo()
        if refusal == "guard_ascends":  # the polish converged, and only the bound refused it
            continued, tol = made[0], minimax_solver._TOL_CERT
            assert not continued.valid and continued.status == "polished"
            assert max(continued.primal_residual, continued.adjoint_residual,
                       continued.stationarity_residual,
                       continued.complementarity_residual) < tol
            assert certificate_at(spec, mesh, continued.u_star.flatten(),
                                  continued.lambda_star).valid
            monkeypatch.setattr(minimax_solver, "_TRUST_RADIUS_INIT", 1e12)
        full = maximize(spec, mesh, options=FAST)
        # the certificate records its path; every other field is the plain maximize's
        assert json.dumps(cert.to_dict()) \
            == json.dumps(dataclasses.replace(full, start="fallback").to_dict())


class TestTwoPhaseMaximize:
    """Loose SLP starts, every candidate finished by the fold polish."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name,params,n", [
        ("scalar_power", {"q": 0.5, "gamma": 2.0}, 128),
        ("scalar_power", {"q": 0.5, "gamma": 2.0}, 256),
        ("cooperative_product", {"m": 3}, 64),
    ], ids=["scalar_power-n128", "scalar_power-n256", "cooperative_product-m3-n64"])
    def test_cold_default_solve_is_certified(self, name, params, n, seed):
        spec = builtin_problem(name, params)
        mesh = build_mesh(n)
        cert = maximize(spec, mesh, options=SolverOptions(seed=seed))
        assert cert.valid and cert.status == "polished"
        assert cert.starts_agree
        assert verify_certificate(spec, mesh, cert).valid

    def test_polish_stops_at_roundoff_at_n128(self):
        spec = scalar_power(0.5, 2.0)
        mesh = build_mesh(128)
        blocks = model.stiffness_blocks(spec, mesh)
        start = minimax_solver.amplitude_line_search(
            spec, mesh, minimax_solver.torsion_start(spec, mesh, blocks), blocks)
        slp, = minimax_solver._slp(spec, mesh, [start], blocks,
                                   minimax_solver._LOOSE_GAIN)
        assert slp.status == "converged"
        result, = minimax_solver._fold_polish(spec, mesh, [(slp.flat, slp.lam)], blocks)
        assert result.reason == "converged"
        assert result.ok
        assert result.residual <= 1e-3 * minimax_solver._TOL_CERT

    def test_polish_names_its_failure(self, monkeypatch):
        spec = scalar_power(0.5, 2.0)
        mesh = build_mesh(24)
        blocks = model.stiffness_blocks(spec, mesh)
        start = minimax_solver.amplitude_line_search(
            spec, mesh, minimax_solver.torsion_start(spec, mesh, blocks), blocks)
        slp, = minimax_solver._slp(spec, mesh, [start], blocks,
                                   minimax_solver._LOOSE_GAIN)
        monkeypatch.setattr(minimax_solver, "_POLISH_ROUNDS", 0)
        result, = minimax_solver._fold_polish(spec, mesh, [(slp.flat, slp.lam)], blocks)
        assert result.reason == "max_iter" and not result.ok

    def test_no_polished_start_reports_polish_failed(self, monkeypatch):
        real_polish = minimax_solver._fold_polish

        def always_fail(*args, **kwargs):
            return [dataclasses.replace(result, reason="no_decrease")
                    for result in real_polish(*args, **kwargs)]

        monkeypatch.setattr(minimax_solver, "_fold_polish", always_fail)
        cert = maximize(scalar_power(0.5, 2.0), build_mesh(12), options=FAST)
        assert cert.status == "polish_failed"
        assert not cert.valid

    def test_agreement_without_a_converged_start_covers_every_start(self, monkeypatch):
        # best is then picked from every start, and the agreement is judged there
        monkeypatch.setattr(minimax_solver, "_SLP_MAX_ITERS", 2)
        cert = maximize(scalar_power(0.5, 2.0), build_mesh(16))
        assert cert.start == "multistart" and cert.status == "max_iters" and not cert.valid
        assert cert.lambda_spread_starts > 0.0 and not cert.starts_agree

    def test_cold_default_solve_at_n512_is_certified(self):
        spec = scalar_power(0.5, 2.0)
        mesh = build_mesh(512)
        cert = maximize(spec, mesh)
        assert cert.valid and cert.status == "polished"
        assert verify_certificate(spec, mesh, cert).valid


LOCKSTEP_CASES = {
    "scalar_power": ("scalar_power", {"q": 0.5, "gamma": 2.0}),
    "cooperative_product-m2": ("cooperative_product", {"m": 2}),
    "cooperative_product-m3": ("cooperative_product", {"m": 3}),
}


def lockstep_case(name, elements=16):
    """Eight polish starts: five loose SLP endpoints of the multistart and
    three of its start fields at their inner minimum, which end in other
    rounds and for other reasons."""
    spec, mesh = builtin_problem(*LOCKSTEP_CASES[name]), build_mesh(elements)
    blocks = model.stiffness_blocks(spec, mesh)
    options = SolverOptions()
    fields = minimax_solver._starts(spec, mesh, options, blocks)
    loose = minimax_solver._slp(spec, mesh, fields, blocks, minimax_solver._LOOSE_GAIN)
    starts = [(r.flat, r.lam) for r in loose[:5]]
    starts += [(f.flatten(), float(rayleigh.galerkin_terms(spec, mesh, f, blocks).quotients().min()))
               for f in fields[5:]]
    return spec, mesh, blocks, starts


def assert_same_polish(stacked, alone):
    assert len(stacked) == len(alone)
    for a, b in zip(stacked, alone):
        assert (a.reason, a.iterations, a.lam, a.residual, a.roundoff) \
            == (b.reason, b.iterations, b.lam, b.residual, b.roundoff)
        assert np.array_equal(a.u.values, b.u.values)


class TestLockstepPolish:
    """A stack of starts polishes each one bit for bit as it would alone."""

    @pytest.mark.parametrize("name, elements", [pytest.param(name, 16, id=name)
                                                for name in LOCKSTEP_CASES]
                             + [pytest.param("cooperative_product-m3", 64,
                                             id="cooperative_product-m3-64")])
    def test_stack_of_eight_equals_each_start_alone(self, name, elements):
        spec, mesh, blocks, starts = lockstep_case(name, elements)
        stacked = minimax_solver._fold_polish(spec, mesh, starts, blocks)
        alone = [minimax_solver._fold_polish(spec, mesh, [start], blocks)[0] for start in starts]
        assert_same_polish(stacked, alone)
        assert sum(r.ok for r in stacked) >= 5
        # the starts stop in different rounds
        assert len({r.iterations for r in stacked}) > 1

    @pytest.mark.parametrize("name", list(LOCKSTEP_CASES))
    def test_stacked_band_solves_as_each_system_alone(self, name):
        spec, mesh, blocks, starts = lockstep_case(name)
        m, n = spec.m, mesh.n_interior
        values = np.stack([flat for flat, _ in starts]).reshape(len(starts), m, n)
        jac = model.jacobian_parts(spec, mesh, values, blocks=blocks).jacobian_band(
            np.array([lam for _, lam in starts])[:, None, None])
        rng = np.random.default_rng(4)
        b, c = rng.uniform(0.5, 1.0, (2, len(starts), m * n))
        for i, (flat, lam) in enumerate(starts):
            u = FEField.from_flat(mesh, m, flat)
            alone = model.jacobian_parts(spec, mesh, u, blocks=blocks).jacobian_band(lam)
            lu, v, w, s = minimax_solver._bordered_solve(jac[i], m, n, b[i], c[i])
            _, v_i, w_i, s_i = minimax_solver._bordered_solve(alone, m, n, b[i], c[i])
            assert np.array_equal(v, v_i) and np.array_equal(w, w_i) and s == s_i
            assert lu.factors[0].shape == (3 * (2 * m - 1) + 1, m * n)  # one system's band
            # [J b; c^T 0][v; s] = [0; 1] and [J^T c; b^T 0][w; s] = [0; 1]
            dense = np.block([[model.band_to_dense(alone, m, n), b[i][:, None]],
                              [c[i][None, :], 0.0]])
            unit = np.zeros(m * n + 1)
            unit[-1] = 1.0
            np.testing.assert_allclose(dense @ np.append(v, s), unit, atol=1e-12)
            np.testing.assert_allclose(dense.T @ np.append(w, s), unit, atol=1e-12)

    def test_every_lu_is_one_bordered_system(self, monkeypatch):
        shapes, bordered = [], []
        real_band_lu, real_bordered = _kernels.band_lu, minimax_solver._BorderedLU

        def band_lu(ab, width):
            shapes.append(ab.shape)
            return real_band_lu(ab, width)

        class BorderedLU(real_bordered):
            def __init__(self, *args):
                bordered.append(len(shapes))
                super().__init__(*args)

        monkeypatch.setattr(_kernels, "band_lu", band_lu)
        monkeypatch.setattr(minimax_solver, "_BorderedLU", BorderedLU)
        spec = builtin_problem("cooperative_product", {"m": 3})
        cert = maximize(spec, build_mesh(32))
        finer = minimax_solver.continue_certificate(spec, build_mesh(64), cert, SolverOptions())
        assert cert.valid and finer.valid
        # the coarse multistart on 16 elements, the polish on 32, and the continuation to 64;
        # each LU of J, on its general band, is taken for one bordered system
        sizes = {(3 * (2 * spec.m - 1) + 1, spec.m * (elements - 1)) for elements in (16, 32, 64)}
        assert len(shapes) > 8 and all(a in sizes for a in shapes)
        assert bordered == list(range(len(shapes)))

    def test_singular_system_ends_only_its_start(self, monkeypatch):
        spec, mesh, blocks, starts = lockstep_case("cooperative_product-m2")
        m, n = spec.m, mesh.n_interior
        # the border row c of start 2 after its first solve marks its systems
        u = FEField.from_flat(mesh, m, starts[2][0])
        jac = model.jacobian_parts(spec, mesh, u, blocks=blocks).jacobian_band(starts[2][1])
        ones = np.full(m * n, 1.0 / np.sqrt(m * n))
        _, v, _, _ = minimax_solver._bordered_solve(jac, m, n, ones, ones)
        marked = v / np.linalg.norm(v)

        class BorderedLU(minimax_solver._BorderedLU):
            def __init__(self, jac, m, n, b, c):
                if np.array_equal(c, marked):
                    raise RuntimeError("matrix is exactly singular")
                super().__init__(jac, m, n, b, c)

        monkeypatch.setattr(minimax_solver, "_BorderedLU", BorderedLU)
        stacked = minimax_solver._fold_polish(spec, mesh, starts, blocks)
        alone = [minimax_solver._fold_polish(spec, mesh, [start], blocks)[0] for start in starts]
        assert_same_polish(stacked, alone)
        assert stacked[2].reason == "singular_system" and stacked[2].iterations == 0
        assert all(r.reason != "singular_system" for i, r in enumerate(stacked) if i != 2)
        assert sum(r.ok for r in stacked) >= 4

    def test_trial_below_the_cone_floor_is_damped(self, monkeypatch):
        spec, mesh, blocks, starts = lockstep_case("scalar_power")
        marked = starts[1][0]
        real_step = minimax_solver._newton_step
        below = []

        def step_to_the_floor(p, s_u, s_lam):
            step = real_step(p, s_u, s_lam)
            if np.array_equal(p.flat, marked):
                # the full step puts node 0 at 1e-14 of the largest coefficient
                trial = p.flat + step[:-1]
                step[0] = 1e-14 * trial.max() - p.flat[0]
                below.append(p.flat + step[:-1])
            return step

        monkeypatch.setattr(minimax_solver, "_newton_step", step_to_the_floor)
        stacked = minimax_solver._fold_polish(spec, mesh, starts, blocks)
        alone = [minimax_solver._fold_polish(spec, mesh, [start], blocks)[0] for start in starts]
        assert_same_polish(stacked, alone)
        trial = below[0].reshape(spec.m, -1)
        assert trial.min() > 0.0 and not model.in_open_cone(trial).any()
        with pytest.raises(model.ConeError):
            model.jacobian_parts(spec, mesh, trial)
        # the damped steps of the forced step gain nothing; the other starts converge
        assert stacked[1].reason == "no_decrease"
        assert sum(r.ok for r in stacked) >= 4


class TestRoundoffStop:
    """The polish stops at the rounding error of its residual evaluation."""

    def test_stop_test_against_synthetic_residuals(self):
        roundoff = (1e-12, 4e-16)  # (primal, adjoint) estimates
        assert minimax_solver._at_roundoff((9e-13, 3e-16), roundoff)
        assert minimax_solver._at_roundoff((2e-16, 9e-13), roundoff)  # merit vs largest estimate
        assert not minimax_solver._at_roundoff((1.1e-12, 3e-16), roundoff)
        assert not minimax_solver._at_roundoff((2e-16, 2e-12), roundoff)

    @pytest.mark.parametrize("n", [128, 1024])
    def test_polish_ends_at_its_roundoff_estimate(self, n):
        spec = scalar_power(0.5, 2.0)
        mesh = build_mesh(n)
        coarse = maximize(spec, build_mesh(64))
        result, = minimax_solver._fold_polish(
            spec, mesh, [(coarse.u_star.transfer_to(mesh).flatten(), coarse.lambda_star)],
            model.stiffness_blocks(spec, mesh))
        assert result.ok and result.reason == "converged"
        assert result.residual <= result.roundoff < minimax_solver._TOL_CERT

    def test_stalled_polish_above_the_estimate_is_a_failure(self, monkeypatch):
        spec = scalar_power(0.5, 2.0)
        mesh = build_mesh(24)
        blocks = model.stiffness_blocks(spec, mesh)
        start = minimax_solver.amplitude_line_search(
            spec, mesh, minimax_solver.torsion_start(spec, mesh, blocks), blocks)
        slp, = minimax_solver._slp(spec, mesh, [start], blocks,
                                   minimax_solver._LOOSE_GAIN)
        # a stop test that never passes: the polish runs into its stall
        monkeypatch.setattr(minimax_solver, "_at_roundoff", lambda residuals, roundoff: False)
        result, = minimax_solver._fold_polish(spec, mesh, [(slp.flat, slp.lam)], blocks)
        assert result.reason in ("no_decrease", "max_iter") and not result.ok
        assert result.residual < 1e-12  # it reached roundoff all the same


def solve_cold_case(name):
    problem, params, n = {
        "scalar_power-n64": ("scalar_power", {"q": 0.5, "gamma": 2.0}, 64),
        "scalar_power-n128": ("scalar_power", {"q": 0.5, "gamma": 2.0}, 128),
        "scalar_power-q0.3-n64": ("scalar_power", {"q": 0.3, "gamma": 3.0}, 64),
        "cooperative_product-m2-n64": ("cooperative_product", {"m": 2}, 64),
        "cooperative_product-m3-n64": ("cooperative_product", {"m": 3}, 64),
        "cooperative_product-m3-n256": ("cooperative_product", {"m": 3}, 256),
    }[name]
    return builtin_problem(problem, params), build_mesh(n)


class TestNestedMaximize:
    """Multistart on a 16-element mesh, one polish per doubling, certificate on the target."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", ["scalar_power-n64", "scalar_power-n128",
                                      "scalar_power-q0.3-n64", "cooperative_product-m2-n64",
                                      "cooperative_product-m3-n64",
                                      "cooperative_product-m3-n256"])
    def test_matches_the_full_multistart(self, name, seed):
        spec, mesh = solve_cold_case(name)
        options = SolverOptions(seed=seed)
        cert = maximize(spec, mesh, options=options)
        full = minimax_solver._multistart(spec, mesh, options)
        assert cert.start == "nested" and full.start == "multistart"
        assert cert.valid and cert.status == "polished" and full.valid
        assert abs(cert.lambda_star - full.lambda_star) <= 1e-12 * full.lambda_star
        assert verify_certificate(spec, mesh, cert).valid

    def test_coarse_multistart_and_target_iterations(self, monkeypatch):
        spec, mesh = scalar_power(0.5, 2.0), build_mesh(64)
        real = minimax_solver._multistart
        coarse = []

        def record(*args):
            coarse.append(real(*args))
            return coarse[-1]

        monkeypatch.setattr(minimax_solver, "_multistart", record)
        cert = maximize(spec, mesh)
        assert [c.mesh_info["n_elements"] for c in coarse] == [16]  # one multistart
        assert cert.starts_agree == coarse[0].starts_agree
        assert cert.lambda_spread_starts == coarse[0].lambda_spread_starts
        assert cert.iterations == 0  # no SLP on the target mesh
        assert cert.polish_iterations > 0

    def test_failed_intermediate_polish_falls_back(self, monkeypatch):
        spec, mesh = scalar_power(0.5, 2.0), build_mesh(64)  # levels 16, 32, 64
        real_polish = minimax_solver._fold_polish
        failed = []

        def fail_first_at_n32(spec, mesh, *args, **kwargs):
            results = real_polish(spec, mesh, *args, **kwargs)
            if mesh.n_elements == 32 and not failed:
                failed.append(results[0])
                results[0] = dataclasses.replace(results[0], reason="no_decrease")
            return results

        monkeypatch.setattr(minimax_solver, "_fold_polish", fail_first_at_n32)
        cert = maximize(spec, mesh, options=FAST)
        assert len(failed) == 1 and cert.start == "fallback"
        monkeypatch.undo()
        full = minimax_solver._multistart(spec, mesh, FAST)
        # the certificate records its path; every other field is the full multistart's
        assert json.dumps(cert.to_dict()) \
            == json.dumps(dataclasses.replace(full, start="fallback").to_dict())

    def test_invalid_coarse_multistart_falls_back(self, monkeypatch):
        spec, mesh = scalar_power(0.5, 2.0), build_mesh(64)  # levels 16, 32, 64
        real_multistart, real_polish = minimax_solver._multistart, minimax_solver._fold_polish
        multistarts, outside = [], []

        def invalid_at_n16(spec, mesh, options):
            multistarts.append(mesh.n_elements)
            cert = real_multistart(spec, mesh, options)
            multistarts.append(None)  # the multistart has returned
            return dataclasses.replace(cert, valid=False) if mesh.n_elements == 16 else cert

        def recording_polish(spec, mesh, *args, **kwargs):
            if multistarts[-1] is None:
                outside.append(mesh.n_elements)
            return real_polish(spec, mesh, *args, **kwargs)

        monkeypatch.setattr(minimax_solver, "_multistart", invalid_at_n16)
        monkeypatch.setattr(minimax_solver, "_fold_polish", recording_polish)
        cert = maximize(spec, mesh, options=FAST)
        # nothing is carried up: every polish is a multistart's own
        assert cert.start == "fallback" and multistarts == [16, None, 64, None]
        assert outside == []
        monkeypatch.undo()
        full = minimax_solver._multistart(spec, mesh, FAST)
        assert json.dumps(cert.to_dict()) \
            == json.dumps(dataclasses.replace(full, start="fallback").to_dict())

    def test_small_mesh_runs_the_multistart_on_the_target(self):
        spec, mesh = scalar_power(0.5, 2.0), build_mesh(24)  # halves to 12 < 16 elements
        cert = maximize(spec, mesh, options=FAST)
        assert cert.start == "multistart" and cert.valid
        # every field is the multistart's
        assert json.dumps(cert.to_dict()) \
            == json.dumps(minimax_solver._multistart(spec, mesh, FAST).to_dict())

    @pytest.mark.parametrize("n", [32, 256])
    def test_linear_diagnostic_is_nested(self, n, monkeypatch):
        columns = []
        real_solve = minimax_solver.WarmLP.solve

        def recording_solve(self, cost, *args):
            columns.append(cost.size)
            return real_solve(self, cost, *args)

        monkeypatch.setattr(minimax_solver.WarmLP, "solve", recording_solve)
        spec, mesh = linear_diagnostic(), build_mesh(n)
        cert = maximize(spec, mesh)
        assert cert.start == "nested" and cert.status == "polished" and cert.valid
        assert verify_certificate(spec, mesh, cert).valid
        assert abs(cert.lambda_star - closed_form_eigenvalue(n)) <= 1e-8 * cert.lambda_star
        # every LP is one of the 16-element multistart: 15 nodes and lambda
        assert columns and set(columns) == {16}

    def test_double_eigenvalue_is_nested(self):
        # two equal uncoupled components: J has a two-dimensional null space at
        # the fold, and the bordered systems of the polish on 32 elements are
        # singular to roundoff, yet the elimination carries the coarse point up
        spec, mesh = linear_diagnostic(2), build_mesh(32)
        cert = maximize(spec, mesh, options=FAST)
        assert cert.start == "nested" and cert.status == "polished" and cert.valid
        assert verify_certificate(spec, mesh, cert).valid
        assert abs(cert.lambda_star - closed_form_eigenvalue(32)) <= 1e-12 * cert.lambda_star

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_triple_eigenvalue_ends_valid(self, seed):
        # at seeds 0 and 1 the carry's polish on 64 elements stalls a few eps
        # above its roundoff estimate, and the fallback multistart certifies
        spec, mesh = linear_diagnostic(3), build_mesh(64)
        cert = maximize(spec, mesh, options=SolverOptions(seed=seed))
        assert cert.valid and cert.status == "polished"
        assert verify_certificate(spec, mesh, cert).valid
        assert abs(cert.lambda_star - closed_form_eigenvalue(64)) <= 1e-11 * cert.lambda_star

    def test_slp_runs_only_in_the_coarse_multistart(self, scalar_cert, monkeypatch):
        spec = scalar_power(0.5, 2.0)
        real_slp = minimax_solver._slp
        meshes = []

        def recording_slp(spec, mesh, *args):
            meshes.append(mesh.n_elements)
            return real_slp(spec, mesh, *args)

        monkeypatch.setattr(minimax_solver, "_slp", recording_slp)
        cert = maximize(spec, build_mesh(128))
        assert cert.start == "nested" and meshes == [16]
        meshes.clear()
        cert = minimax_solver.continue_certificate(spec, build_mesh(48), scalar_cert, FAST)
        assert cert.start == "continued" and meshes == []

    def test_graded_mesh_is_nested(self):
        spec, mesh = scalar_power(0.5, 2.0), build_mesh(64, grading="geometric", ratio=1.02)
        cert = maximize(spec, mesh)
        assert cert.start == "nested"
        assert cert.valid and verify_certificate(spec, mesh, cert).valid
        assert cert.mesh_info["nodes"] == mesh.nodes.tolist()

    def test_coarsening_keeps_every_other_node(self):
        mesh = build_mesh(64, grading="geometric", ratio=1.02)
        coarse = mesh_fem.mesh_from_nodes(mesh.nodes[::2])
        assert coarse.n_elements == 32
        assert np.allclose(coarse.element_sizes[1:] / coarse.element_sizes[:-1], 1.02 ** 2)


ASCENT_CASES = {
    "scalar_power-n16": ("scalar_power", {"q": 0.5, "gamma": 2.0}, 16),
    "cooperative_product-m2-n32": ("cooperative_product", {"m": 2}, 32),
    "cooperative_product-m3-n64": ("cooperative_product", {"m": 3}, 64),
    "linear_diagnostic-m2-n16": ("linear_diagnostic", {"m": 2}, 16),
}

# HiGHS's primal feasibility tolerance: an LP gain may exceed its true value
# by about this much
LP_FEASIBILITY = 1e-7


def first_lp(spec, mesh, blocks, flat):
    """``(quotients, stencil, gain, duals)`` of the LP ``_slp`` solves first
    from ``flat``: its scaled gain over min_i R_i and its row duals, normalized."""
    u = FEField.from_flat(mesh, spec.m, flat)
    terms = rayleigh.galerkin_terms(spec, mesh, u, blocks)
    quotients = terms.quotients()
    stencil = rayleigh.quotient_gradients(spec, mesh, u, terms=terms, quotients=quotients)
    scale = np.abs(flat).max()
    trust = minimax_solver._TRUST_RADIUS_INIT * scale
    lower = np.append(np.maximum(-trust, model.CONE_FLOOR_REL * scale - flat), -np.inf)
    upper = np.append(np.full(flat.size, trust), np.inf)
    cost = np.zeros(flat.size + 1)
    cost[-1] = -1.0
    x, row_dual = minimax_solver.WarmLP().solve(
        cost, minimax_solver.LPRows(spec.m, mesh.n_interior).of(stencil), quotients, lower, upper)
    q_min = quotients.min()
    return quotients, stencil, (x[-1] - q_min) / (1.0 + abs(q_min)), \
        np.abs(row_dual) / np.abs(row_dual).sum()


class TestAscentBound:
    """The certificate's no-ascent bound is the weak-duality bound of the SLP's LP."""

    @pytest.mark.parametrize("name", list(ASCENT_CASES))
    def test_bound_covers_the_lp_gain_along_slp_paths(self, name, monkeypatch):
        problem, params, n = ASCENT_CASES[name]
        spec, mesh = builtin_problem(problem, params), build_mesh(n)
        blocks = model.stiffness_blocks(spec, mesh)
        options = SolverOptions(n_starts=3)
        starts = minimax_solver._starts(spec, mesh, options, blocks)
        points = [f.flatten() for f in starts]
        for rounds in (1, 2, 3):
            monkeypatch.setattr(minimax_solver, "_SLP_MAX_ITERS", rounds)
            points += [r.flat for r in minimax_solver._slp(spec, mesh, starts, blocks,
                                                        minimax_solver._LOOSE_GAIN)]
        for i, flat in enumerate(points):
            quotients, stencil, gain, duals = first_lp(spec, mesh, blocks, flat)
            cert = certificate_at(spec, mesh, flat, quotients.min(), options)
            assert np.all(cert.mu >= 0.0)  # on the simplex, as weak duality needs
            multipliers = [duals, cert.mu, np.full(flat.size, 1.0 / flat.size)]
            bounds = [minimax_solver._ascent_bound(
                flat, quotients, y, model.band_matvec(stencil, y, transpose=True))
                for y in multipliers]
            assert min(bounds) >= gain - LP_FEASIBILITY
            # the LP's own duals attain its optimum: the bound is tight there
            assert bounds[0] <= gain + LP_FEASIBILITY
            if i < len(starts):  # a start point is far from stationary
                assert min(bounds) > minimax_solver._LOOSE_GAIN

    def test_valid_certificates_have_no_lp_ascent(self, scalar_cert):
        spec, mesh = scalar_power(0.5, 2.0), build_mesh(24)
        _, _, gain, _ = first_lp(spec, mesh, model.stiffness_blocks(spec, mesh),
                                 scalar_cert.u_star.flatten())
        assert scalar_cert.valid and gain <= minimax_solver._LOOSE_GAIN

    def test_singular_bordered_matrix_at_the_certificate_point_raises(self, monkeypatch):
        # no start polishes, and the best SLP point has no bordered factors either

        def singular(*args, **kwargs):
            raise RuntimeError("matrix is exactly singular")

        monkeypatch.setattr(_kernels, "band_lu", singular)
        with pytest.raises(RuntimeError, match="certificate point"):
            maximize(scalar_power(0.5, 2.0), build_mesh(16), FAST)


def fold_case(name):
    spec, n = {
        "scalar_power-n64": (scalar_power(0.5, 2.0), 64),
        "cooperative_product-m3-n32": (builtin_problem("cooperative_product", {"m": 3}), 32),
        "linear_diagnostic-m1-n32": (linear_diagnostic(), 32),
        "scalar_power-no-hessian-n64": (dataclasses.replace(scalar_power(0.5, 2.0), f_hess=None),
                                        64),
        # one unknown: J itself vanishes at the fold
        "scalar_power-q0.3-n2": (scalar_power(0.3, 3.0), 2),
    }[name]
    return spec, build_mesh(n)


class TestBandedFoldSystem:
    """Polish and certificate on the band: no SVD, no dense solve, no dense matrix."""

    @pytest.mark.parametrize("name", ["scalar_power-n64", "cooperative_product-m3-n32",
                                      "linear_diagnostic-m1-n32", "scalar_power-no-hessian-n64",
                                      "scalar_power-q0.3-n2"])
    def test_maximize_runs_without_dense_linear_algebra(self, name, monkeypatch):
        spec, mesh = fold_case(name)

        def dense(*args, **kwargs):
            raise AssertionError("dense linear algebra in maximize")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", dense)
            patch.setattr(np.linalg, "solve", dense)
            patch.setattr(model, "band_to_dense", dense)
            patch.setattr(model, "eval_jacobian", dense)
            patch.setattr(model.JacobianParts, "stiffness", property(dense))
            cert = maximize(spec, mesh)
        assert cert.valid and cert.status == "polished" and cert.starts_agree
        assert verify_certificate(spec, mesh, cert).valid
        if name == "scalar_power-no-hessian-n64":
            with_hessian = maximize(scalar_power(0.5, 2.0), mesh)
            assert abs(cert.lambda_star - with_hessian.lambda_star) <= 1e-10

    @pytest.mark.parametrize("name,params,n", [
        ("scalar_power", {"q": 0.5, "gamma": 2.0}, 1024),
        ("cooperative_product", {"m": 3}, 512),
    ])
    def test_bordered_lu_fill_is_linear(self, name, params, n):
        spec, mesh = builtin_problem(name, params), build_mesh(n)
        cert = maximize(spec, mesh)
        assert cert.valid
        big = spec.m * mesh.n_interior
        parts = model.jacobian_parts(spec, mesh, cert.u_star)
        jac = parts.jacobian_band(cert.lambda_star)
        ones = np.full(big, 1.0 / np.sqrt(big))
        lu, v, w, s = minimax_solver._bordered_solve(jac, spec.m, mesh.n_interior, ones, ones)
        bordered = bordered_dense(model.band_to_dense(jac, spec.m, mesh.n_interior), ones, ones,
                                  0.0)
        # the LU of J fills only its band: 3(2m - 1) + 1 rows of m*n
        assert lu.factors[0].size <= 2 * np.count_nonzero(bordered)
        # the solve keeps its accuracy: [J b; c^T 0][v; s] = [0; 1]
        x = np.append(v, s)
        rhs = np.zeros(big + 1)
        rhs[-1] = 1.0
        assert np.abs(bordered @ x - rhs).max() <= 1e-13 * abs(bordered).max() * np.abs(x).max()

    def test_bordered_null_vectors_at_roundoff_on_a_large_mesh(self):
        # at n = 16384 the elimination alone leaves v a residual of about 160 eps |J||v|;
        # the step of iterative refinement brings it to roundoff
        spec, mesh = scalar_power(0.5, 2.0), build_mesh(16384)
        cert = maximize(spec, mesh)
        assert cert.valid
        n = mesh.n_interior
        jac = model.jacobian_parts(spec, mesh, cert.u_star).jacobian_band(cert.lambda_star)
        # the borders of the polish: all-ones, then the w and v found with it
        b = c = np.full(n, 1.0 / np.sqrt(n))
        for _ in range(2):
            _, v, w, s = minimax_solver._bordered_solve(jac, 1, n, b, c)
            b, c, border = w / np.linalg.norm(w), v / np.linalg.norm(v), (b, c)
        eps = np.finfo(float).eps
        for x, transpose, col in ((v, False, border[0]), (w, True, border[1])):
            residual = model.band_matvec(jac, x, transpose=transpose) + s * col
            magnitude = model.band_matvec(np.abs(jac), np.abs(x), transpose=transpose)
            assert np.abs(residual).max() <= 4 * eps * magnitude.max()

    @pytest.mark.parametrize("n", [16, 24])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_certificate_norms_against_dense_svd(self, m, n):
        spec = scalar_power(0.5, 2.0) if m == 1 else builtin_problem("cooperative_product",
                                                                     {"m": m})
        mesh = build_mesh(n)
        u = np.random.default_rng(m * n).uniform(0.5, 1.5, m * mesh.n_interior)
        lam = 4.0
        cert = certificate_at(spec, mesh, u, lam, SolverOptions())
        svals = np.linalg.svd(model.eval_jacobian(spec, mesh, FEField.from_flat(mesh, m, u), lam),
                              compute_uv=False)
        assert abs(cert.jac_norm - svals[0]) <= 1e-12 * svals[0]
        # an upper bound from the bordered null vectors, up to the dense SVD's rounding
        assert cert.sigma_min >= svals[-1] * (1.0 - 1e-12)


class TestCertificateAssembly:
    def test_certificate_only_reads_the_polished_point(self, monkeypatch):
        spec, mesh = scalar_power(0.5, 2.0), build_mesh(24)
        polished = []
        real_polish = minimax_solver._fold_polish

        def recording_polish(*args):
            polished.extend(real_polish(*args))
            return polished[-len(args[3]):]

        def forbidden(*args, **kwargs):
            raise AssertionError("the certificate assembled or factored its point again")

        monkeypatch.setattr(minimax_solver, "_fold_polish", recording_polish)
        made = maximize(spec, mesh, options=FAST)
        assert made.valid and made.start == "multistart"
        best = next(r for r in polished if r.ok and r.lam == made.lambda_star)
        with monkeypatch.context() as patch:
            patch.setattr(rayleigh, "galerkin_terms", forbidden)
            patch.setattr(model, "jacobian_parts", forbidden)
            patch.setattr(_kernels, "band_lu", forbidden)
            cert = minimax_solver._certificate(spec, mesh, best.point, "polished",
                                               made.iterations, best.iterations,
                                               made.starts_agree, made.lambda_spread_starts, FAST)
        assert cert.valid and verify_certificate(spec, mesh, cert).valid
        # the multistart's certificate is this reading of its best polished point
        assert json.dumps(cert.to_dict()) == json.dumps(made.to_dict())


def row_form(dense):
    """Row-wise ``(start, index, value)`` of the nonzeros of a dense matrix."""
    rows, cols = np.nonzero(dense)
    return np.searchsorted(rows, np.arange(dense.shape[0] + 1)), cols, dense[rows, cols]


def dense_form(a_ub, n_col):
    start, index, value = a_ub
    dense = np.zeros((len(start) - 1, n_col))
    for r in range(len(start) - 1):
        dense[r, index[start[r]:start[r + 1]]] = value[start[r]:start[r + 1]]
    return dense


class TestWarmLP:
    """The warm-started HiGHS helper against scipy's public LP solver."""

    def test_recorded_slp_lps_match_public_solver(self, monkeypatch):
        recorded = []
        real_solve = minimax_solver.WarmLP.solve

        def recording_solve(self, cost, a_ub, *args):
            result = real_solve(self, cost, a_ub, *args)
            recorded.append(([np.array(cost), dense_form(a_ub, len(cost))]
                             + [np.array(a) for a in args], result))
            return result

        monkeypatch.setattr(minimax_solver.WarmLP, "solve", recording_solve)
        maximize(scalar_power(0.5, 2.0), build_mesh(64))
        maximize(builtin_problem("cooperative_product", {"m": 2}), build_mesh(64))
        assert len(recorded) > 50
        for (cost, a_ub, b_ub, lower, upper), result in recorded:
            reference = scipy.optimize.linprog(cost, A_ub=a_ub, b_ub=b_ub,
                                               bounds=list(zip(lower, upper)),
                                               method="highs")
            assert reference.success and result is not None
            x, row_dual = result
            assert abs(cost @ x - reference.fun) <= 1e-9 * abs(reference.fun)
            assert np.all(a_ub @ x - b_ub <= 1e-9 * (1.0 + np.abs(b_ub)))
            assert np.all(x >= lower - 1e-9) and np.all(x <= upper + 1e-9)
            assert row_dual.shape == b_ub.shape

    def test_infeasible_lp_returns_no_solution(self):
        lp = minimax_solver.WarmLP()
        cost = np.array([0.0, -1.0])
        a_ub = row_form(np.array([[1.0, 1.0], [-1.0, 0.0]]))
        lower, upper = np.array([0.0, -1.0]), np.array([1.0, 1.0])
        assert lp.solve(cost, a_ub, np.array([1.0, 0.0]), lower, upper) is not None
        # x0 >= 2 against the bound x0 <= 1
        assert lp.solve(cost, a_ub, np.array([1.0, -2.0]), lower, upper) is None
        x, _ = lp.solve(cost, a_ub, np.array([0.5, 0.0]), lower, upper)
        np.testing.assert_allclose(x, [0.0, 0.5], atol=1e-12)

    @pytest.mark.parametrize("n_interior", [1, 2, 7])
    @pytest.mark.parametrize("name", sorted(STENCIL_CASES))
    def test_lp_rows_equal_nonzeros_of_dense_matrix(self, name, n_interior):
        spec, mesh, u, terms, parts = stencil_case(name, n_interior)
        stencil = rayleigh.quotient_gradients(spec, mesh, u, terms=terms, parts=parts)
        big = spec.m * n_interior
        dense = np.hstack([-dense_gradients(terms, parts), np.ones((big, 1))])
        start, index, value = minimax_solver.LPRows(spec.m, n_interior).of(stencil)
        ref_start, ref_index, ref_value = row_form(dense)
        assert np.array_equal(start, ref_start)
        assert np.array_equal(index, ref_index)
        assert np.array_equal(value, ref_value)

    def test_linear_diagnostic_starts_all_converge(self, monkeypatch):
        statuses = []
        real_slp = minimax_solver._slp

        def recording_slp(*args, **kwargs):
            states = real_slp(*args, **kwargs)
            statuses.extend(state.status for state in states)
            return states

        monkeypatch.setattr(minimax_solver, "_slp", recording_slp)
        cert = maximize(linear_diagnostic(), build_mesh(64))
        assert cert.valid
        assert statuses == ["converged"] * SolverOptions().n_starts


class TestLockstepSLP:
    """Starts advanced together end as each start run alone, bit for bit.

    Every one-start run has its own HiGHS instance, so this also checks the
    instance the stack shares.
    """

    @pytest.mark.parametrize("name,params,n,gain,max_iters", [
        ("scalar_power", {}, 16, minimax_solver._LOOSE_GAIN, 400),
        ("cooperative_product", {"m": 2}, 16, minimax_solver._LOOSE_GAIN, 400),
        ("cooperative_product", {"m": 3}, 16, minimax_solver._LOOSE_GAIN, 400),
        ("linear_diagnostic", {}, 32, 1e-9, 400),
        ("scalar_power", {}, 16, minimax_solver._LOOSE_GAIN, 3),
        # some starts converge, the others reach the cap a round later
        ("scalar_power", {}, 16, minimax_solver._LOOSE_GAIN, 12),
    ], ids=["scalar_power", "cooperative_product-m2", "cooperative_product-m3",
            "linear_diagnostic-n32", "max_iters3", "max_iters12"])
    def test_stack_equals_each_start_alone(self, name, params, n, gain, max_iters, monkeypatch):
        spec = builtin_problem(name, params)
        mesh = build_mesh(n)
        monkeypatch.setattr(minimax_solver, "_SLP_MAX_ITERS", max_iters)
        blocks = model.stiffness_blocks(spec, mesh)
        starts = minimax_solver._starts(spec, mesh, SolverOptions(), blocks)
        assert len(starts) == 8
        stack = minimax_solver._slp(spec, mesh, starts, blocks, gain)
        for start, state in zip(starts, stack, strict=True):
            alone, = minimax_solver._slp(spec, mesh, [start], blocks, gain)
            assert np.array_equal(state.flat, alone.flat)
            assert state.lam == alone.lam
            assert state.status == alone.status
            assert state.iterations == alone.iterations
            assert np.array_equal(state.mu_lp, alone.mu_lp)
        if max_iters != 3:  # the starts stop in different rounds
            assert len({(s.status, s.iterations) for s in stack}) > 1

    def test_multistart_builds_its_starts_as_one_stack(self, monkeypatch):
        spec = builtin_problem("cooperative_product", {"m": 3})
        mesh = build_mesh(16)
        options = SolverOptions()
        blocks = model.stiffness_blocks(spec, mesh)
        searches = []
        real_search = minimax_solver.amplitude_line_search

        def recording_search(spec, mesh, shape, blocks=None):
            searches.append(np.shape(shape))
            return real_search(spec, mesh, shape, blocks)

        monkeypatch.setattr(minimax_solver, "amplitude_line_search", recording_search)
        starts = minimax_solver._starts(spec, mesh, options, blocks)
        assert searches == [(8, 3, mesh.n_interior)]
        # each start has the amplitude a search of its shape alone gives
        rng = np.random.default_rng(options.seed)
        expected = [real_search(spec, mesh, minimax_solver.torsion_start(spec, mesh, blocks),
                                blocks)]
        for _ in range(options.n_starts - 1):
            loads = np.abs(rng.standard_normal((spec.m, mesh.n_interior))) + 0.05
            shape = np.stack([blocks[k].solve(loads[k]) for k in range(spec.m)])
            expected.append(real_search(spec, mesh, FEField(mesh, shape), blocks))
        for start, alone in zip(starts, expected, strict=True):
            assert np.array_equal(start.values, alone.values)


class TestTrustRadius:
    """The ratio-scaled trust-radius rule of ``_slp``."""

    CAP = 100.0

    @pytest.mark.parametrize("rho", [-50.0, -1.0, 0.0, 0.049])
    @pytest.mark.parametrize("step", [1e-3, 0.5, 1.0])
    def test_rejection_boxes_the_next_step_below_the_last(self, rho, step):
        radius = minimax_solver._trust_radius(1.0, rho, step, self.CAP)
        assert 0.0 < radius < step

    @pytest.mark.parametrize("rho", [0.05, 0.2, 0.49])
    @pytest.mark.parametrize("step", [0.1, 1.0])
    def test_accepted_step_with_poor_ratio_shrinks(self, rho, step):
        assert minimax_solver._trust_radius(1.0, rho, step, self.CAP) < 1.0

    @pytest.mark.parametrize("rho", [0.76, 1.0, 3.0])
    def test_good_step_at_the_bound_at_most_doubles_under_the_cap(self, rho):
        assert 1.0 < minimax_solver._trust_radius(1.0, rho, 0.95, self.CAP) <= 2.0
        assert minimax_solver._trust_radius(1.0, rho, 1.0, 1.5) == 1.5
        # inside the bound the radius stays
        assert minimax_solver._trust_radius(1.0, rho, 0.5, self.CAP) == 1.0


class TestLPBudget:
    """LPs of one cold ``maximize`` on the solve-cold configurations."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name,params", [
        ("scalar_power", {"q": 0.5, "gamma": 2.0}), ("scalar_power", {"q": 0.3, "gamma": 3.0}),
        ("cooperative_product", {"m": 2}), ("cooperative_product", {"m": 3})])
    def test_nonlinear_cold_solve_lp_count(self, name, params, seed, monkeypatch):
        calls = count_calls(monkeypatch, minimax_solver.WarmLP, "solve")
        cert = maximize(builtin_problem(name, params), build_mesh(64),
                        options=SolverOptions(seed=seed))
        assert cert.valid
        assert len(calls) <= 75

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_linear_cold_solve_lp_count(self, m, seed, monkeypatch):
        calls = count_calls(monkeypatch, minimax_solver.WarmLP, "solve")
        cert = maximize(linear_diagnostic(m), build_mesh(32), options=SolverOptions(seed=seed))
        assert cert.valid
        assert len(calls) <= 75


class TestSLPAssembly:
    """Each SLP iterate is assembled once, on the band."""

    def slp_start(self, spec, mesh):
        """``_slp`` to the gain 1e-9 from the torsion-profile start, set up before any patching."""
        blocks = model.stiffness_blocks(spec, mesh)
        start = minimax_solver.amplitude_line_search(
            spec, mesh, minimax_solver.torsion_start(spec, mesh, blocks), blocks)
        return lambda: minimax_solver._slp(spec, mesh, [start], blocks, 1e-9)[0]

    def test_one_assembly_per_point_none_after_rejection(self, monkeypatch):
        events = []  # ("terms", field bytes) or ("lp", b_ub, solved)
        real_terms = rayleigh.galerkin_terms
        real_solve = minimax_solver.WarmLP.solve

        def counting_terms(spec, mesh, u, blocks=None):
            events.extend(("terms", field.tobytes()) for field in np.asarray(u))
            return real_terms(spec, mesh, u, blocks)

        def recording_solve(self, cost, a_ub, b_ub, lower, upper):
            result = real_solve(self, cost, a_ub, b_ub, lower, upper)
            events.append(("lp", b_ub.tobytes(), result is not None))
            return result

        run = self.slp_start(linear_diagnostic(), build_mesh(64))
        monkeypatch.setattr(rayleigh, "galerkin_terms", counting_terms)
        monkeypatch.setattr(minimax_solver.WarmLP, "solve", recording_solve)
        assert run().status == "converged"

        fields = [e[1] for e in events if e[0] == "terms"]
        assert len(fields) == len(set(fields))  # no point is assembled twice
        lps = [i for i, e in enumerate(events) if e[0] == "lp"]
        rejected = 0
        for i, j in zip(lps, lps[1:]):
            between = j - i - 1
            if not events[i][2]:
                assert between == 0  # a failed LP is re-solved with the same rows
            elif events[i][1] == events[j][1]:
                rejected += 1
                assert between == 1  # only the rejected trial point
            else:
                assert between in (1, 2)  # the accepted trial, maybe its floor clamp
        assert rejected > 0

    def test_slp_builds_no_dense_matrix(self, monkeypatch):
        def dense_view(self):
            raise AssertionError("dense Jacobian view built in the SLP loop")

        runs = [self.slp_start(spec, build_mesh(16))
                for spec in (scalar_power(0.5, 2.0), builtin_problem("cooperative_product", {"m": 2}))]
        monkeypatch.setattr(model.JacobianParts, "stiffness", property(dense_view))
        for run in runs:
            assert run().status == "converged"


def looped_line_search(spec, mesh, shape, blocks):
    """The amplitude search one amplitude at a time, through ``inner_min``."""
    base = shape.values / shape.sup_norm
    best_val, best_t = -np.inf, 1.0
    for t in np.geomspace(1e-3, 1e3, 25):
        cand = FEField(mesh, t * base)
        try:
            val = rayleigh.inner_min(spec, mesh, cand,
                                     rayleigh.galerkin_terms(spec, mesh, cand, blocks)).value
        except (model.ConeError, rayleigh.DenominatorError):
            continue
        if val > best_val:
            best_val, best_t = val, t
    return FEField(mesh, best_t * base)


class TestAmplitudeLineSearch:
    @pytest.mark.parametrize("name, shape_of", [
        ("scalar_power", lambda n: np.sin(np.pi * np.arange(1, n + 1) / (n + 1))[None]),
        ("cooperative_product", lambda n: np.random.default_rng(5).uniform(0.2, 1.0, (3, n))),
        # small amplitudes push the tiny half under the denominator floor
        ("linear_diagnostic", lambda n: np.where(np.arange(n) < n // 2, 1.0, 1e-10)[None]),
        # a zero coefficient leaves the open cone at every amplitude
        ("scalar_power", lambda n: np.where(np.arange(n) == 3, 0.0, 1.0)[None]),
    ])
    def test_stacked_search_matches_amplitude_loop(self, name, shape_of):
        spec = builtin_problem(name, {"m": 3} if name == "cooperative_product" else {})
        mesh = build_mesh(16)
        blocks = model.stiffness_blocks(spec, mesh)
        shape = FEField(mesh, shape_of(mesh.n_interior))
        got = minimax_solver.amplitude_line_search(spec, mesh, shape, blocks)
        expected = looped_line_search(spec, mesh, shape, blocks)
        assert np.array_equal(got.values, expected.values)

    def test_stack_of_shapes_matches_the_loop_per_shape(self):
        spec = builtin_problem("cooperative_product", {"m": 2})
        mesh = build_mesh(16)
        blocks = model.stiffness_blocks(spec, mesh)
        shapes = np.random.default_rng(7).uniform(0.2, 1.0, (5, 2, mesh.n_interior))
        shapes[1, 0, :8] = 1e-10  # small amplitudes fall under the cone floor
        shapes[3, 1, 4] = -0.5  # outside the cone: this shape alone falls back
        got = minimax_solver.amplitude_line_search(spec, mesh, shapes, blocks)
        assert got.shape == shapes.shape
        for values, shape in zip(got, shapes, strict=True):
            expected = looped_line_search(spec, mesh, FEField(mesh, shape), blocks)
            assert np.array_equal(values, expected.values)
        assert np.array_equal(got[3], shapes[3] / np.abs(shapes[3]).max())
        assert not np.array_equal(got[0], shapes[0] / np.abs(shapes[0]).max())


class TestSolverStressModes:
    ONE_START = SolverOptions(n_starts=1)

    def test_cone_collapse_reported(self, monkeypatch):
        # supercritical linear reaction pushes the value to 0 at zero amplitude
        spec, mesh = linear_like_spec(25.0), build_mesh(8)
        # at the default hand-over gain the start hands over at a sup norm of
        # about 2e-7, before the collapse test fires, and finds no fold there
        cert = maximize(spec, mesh, options=self.ONE_START)
        assert cert.status in ("cone_collapse", "polish_failed")
        assert not cert.valid
        # a hand-over gain this tight keeps the SLP running until the mode shows
        monkeypatch.setattr(minimax_solver, "_HANDOVER_GAIN", 1e-9)
        cert = maximize(spec, mesh, options=self.ONE_START)
        assert cert.status in ("cone_collapse", "stalled", "max_iters")
        assert not cert.valid

    def test_unbounded_ascent_reported(self, monkeypatch):
        # negative reaction makes the quotient grow with the amplitude
        spec = linear_like_spec(-0.5)
        monkeypatch.setattr(minimax_solver, "_HANDOVER_GAIN", 1e-9)
        cert = maximize(spec, build_mesh(8), options=self.ONE_START)
        assert cert.status == "unbounded_ascent"
        assert not cert.valid


class TestCertificateAdjoint:
    """v* is kappa_i = mu_i / <g(u*), eta_i> scaled to a(v*, v*) = 1."""

    def test_normalization(self, scalar_cert):
        blocks = model.stiffness_blocks(scalar_power(0.5, 2.0), build_mesh(24))
        v = scalar_cert.v_star.values[0]
        assert abs(float(v @ blocks[0].matvec(v)) - 1.0) < 1e-12

    def test_parallel_to_kappa(self, scalar_cert):
        spec, mesh = scalar_power(0.5, 2.0), build_mesh(24)
        mu = scalar_cert.mu
        assert np.all(mu >= 0.0) and abs(mu.sum() - 1.0) < 1e-12
        _, g_load = model.eval_residual_terms(spec, mesh, scalar_cert.u_star)
        kappa = mu / g_load.ravel()
        np.testing.assert_allclose(scalar_cert.kappa, kappa, rtol=1e-12)
        v = scalar_cert.v_star.values.ravel()
        scale = float(v @ kappa) / float(kappa @ kappa)
        assert scale > 0.0
        np.testing.assert_allclose(v, scale * kappa, rtol=1e-12, atol=0.0)


def hand_built_linear_certificate(mesh):
    """Exact eigenpair certificate (independent eigensolver construction)."""
    spec = linear_diagnostic()
    lam1, vec = principal_eigenpair(mesh)
    u = FEField(mesh, vec[None, :])
    _, g_load = model.eval_residual_terms(spec, mesh, u)
    mu = vec * g_load.ravel()
    mu = mu / mu.sum()
    kappa = mu / g_load.ravel()
    a = mesh_fem.assemble_stiffness(mesh, 1.0, 0.0)
    v = FEField(mesh, kappa[None, :] / np.sqrt(float(kappa @ a.matvec(kappa))))
    jac = to_dense(a) - lam1 * mass_matrix(mesh)
    svals = np.linalg.svd(jac, compute_uv=False)
    return spec, MinimaxCertificate(
        lambda_star=lam1, u_star=u, v_star=v, mu=mu, kappa=kappa,
        active_set=np.arange(mesh.n_interior),
        primal_residual=0.0, adjoint_residual=0.0, stationarity_residual=0.0,
        complementarity_residual=0.0, sigma_min=float(svals[-1]),
        jac_norm=float(svals[0]), valid=True, status="polished", iterations=0,
        polish_iterations=0, starts_agree=True, lambda_spread_starts=0.0,
        distance_to_boundary=float(vec.min() / vec.max()),
        problem={"name": "linear_diagnostic", "params": {"m": 1}},
        mesh_info={"n_elements": mesh.n_elements, "h_max": mesh.h_max,
                   "quasi_uniformity": 1.0},
    )


class TestVerifyCertificate:
    def test_hand_built_linear_certificate_is_valid(self):
        mesh = build_mesh(12)
        spec, cert = hand_built_linear_certificate(mesh)
        audit = verify_certificate(spec, mesh, cert)
        assert audit.valid
        assert audit.sigma_min < 1e-10 * audit.jac_norm

    def test_perturbed_lambda_invalidates(self):
        mesh = build_mesh(12)
        spec, cert = hand_built_linear_certificate(mesh)
        bad = dataclasses.replace(cert, lambda_star=cert.lambda_star + 1e-3)
        audit = verify_certificate(spec, mesh, bad)
        assert not audit.valid
        # residual is linear in lambda: delta * |g-load| over the term scale
        _, g_load = model.eval_residual_terms(spec, mesh, cert.u_star)
        a = mesh_fem.assemble_stiffness(mesh, 1.0, 0.0)
        scale = max(np.abs(a.matvec(cert.u_star.values[0])).max(),
                    cert.lambda_star * np.abs(g_load).max())
        expected = 1e-3 * np.abs(g_load).max() / scale
        assert audit.primal_residual == pytest.approx(expected, rel=1e-3)

    def test_wrong_multipliers_fail_complementarity(self):
        mesh = build_mesh(12)
        spec, cert = hand_built_linear_certificate(mesh)
        bump = cert.u_star.values.copy()
        bump[0, 2] *= 1.3  # not a solution anymore: quotients spread out
        n = mesh.n_interior
        bad = dataclasses.replace(cert, u_star=FEField(mesh, bump),
                                  mu=np.full(n, 1.0 / n))
        audit = verify_certificate(spec, mesh, bad)
        assert audit.complementarity_residual > 1e-8
        assert not audit.valid

    def test_recomputed_residuals_match_stored(self, scalar_cert):
        audit = verify_certificate(scalar_power(0.5, 2.0), build_mesh(24), scalar_cert)
        assert audit.valid
        # stored and recomputed relative residuals are eps-level differences of
        # O(|J|)-scale cancellations; agreement is 1e-14 per unit of that scale
        assert audit.max_stored_discrepancy <= 1e-14 * (1.0 + audit.jac_norm)


class TestNewton:
    def test_lambda_zero_finds_superlinear_solution(self):
        # -u'' = u^2 with zero parameter term; quotients all vanish there
        mesh = build_mesh(32)
        spec = scalar_power(0.5, 2.0)
        x = mesh.interior_nodes
        u0 = FEField(mesh, [46.0 * x * (1 - x)])
        result = newton_solve(spec, mesh, 0.0, u0)
        assert result.converged and result.residual_norm < 1e-11
        values = rayleigh.inner_min(spec, mesh, result.u).quotients
        assert np.abs(values).max() < 1e-9

    def test_converges_below_fold_from_small_start(self, scalar_cert):
        mesh = build_mesh(24)
        spec = scalar_power(0.5, 2.0)
        result = newton_multistart(spec, mesh, 0.5 * scalar_cert.lambda_star, n_starts=12)
        assert result.converged
        assert result.u.interior

    def test_residual_small_at_newton_solution(self, scalar_cert):
        mesh = build_mesh(24)
        spec = scalar_power(0.5, 2.0)
        result = newton_multistart(spec, mesh, 0.5 * scalar_cert.lambda_star, n_starts=12)
        res = rayleigh.galerkin_terms(spec, mesh, result.u).residual(0.5 * scalar_cert.lambda_star)
        assert np.abs(res).max() <= 1e-10

    def test_fails_above_fold(self, scalar_cert):
        mesh = build_mesh(24)
        spec = scalar_power(0.5, 2.0)
        result = newton_multistart(spec, mesh, 1.5 * scalar_cert.lambda_star, n_starts=20)
        assert not result.converged


class TestContinuation:
    def test_fold_agrees_with_minimax(self, scalar_cert):
        mesh = build_mesh(24)
        spec = scalar_power(0.5, 2.0)
        sweep = continuation_sweep(spec, mesh, lambda_max_guess=scalar_cert.lambda_star)
        assert sweep.fold_lambda is not None
        gap = abs(sweep.fold_lambda - scalar_cert.lambda_star) / scalar_cert.lambda_star
        assert gap <= 0.02

    def test_linear_diagnostic_has_no_fold(self):
        mesh = build_mesh(8)
        spec = linear_diagnostic()
        sweep = continuation_sweep(spec, mesh, lambda_max_guess=10.0)
        assert sweep.fold_lambda is None

    def test_branch_points_monotone_arclength(self, scalar_cert):
        mesh = build_mesh(24)
        sweep = continuation_sweep(scalar_power(0.5, 2.0), mesh,
                                   lambda_max_guess=scalar_cert.lambda_star)
        arcs = [p.arclength for p in sweep.points]
        assert all(b > a for a, b in zip(arcs, arcs[1:]))

    def test_stability_indicator_flips_at_fold(self, scalar_cert):
        # minimal branch is linearly stable, the branch past the fold is not
        mesh = build_mesh(24)
        sweep = continuation_sweep(scalar_power(0.5, 2.0), mesh,
                                   lambda_max_guess=scalar_cert.lambda_star)
        assert np.sign(sweep.points[0].stability) > 0
        assert np.sign(sweep.points[-1].stability) < 0

    def test_fold_sequence_tightens_under_refinement(self):
        spec = scalar_power(0.5, 2.0)
        folds = []
        for n in (16, 32, 64):
            sweep = continuation_sweep(spec, build_mesh(n), lambda_max_guess=12.0)
            assert sweep.fold_lambda is not None
            folds.append(sweep.fold_lambda)
        d1 = abs(folds[1] - folds[0])
        d2 = abs(folds[2] - folds[1])
        assert d2 <= d1  # consistent with first order in h or better


FOLD_CASES = {
    "scalar_power-n64": ("scalar_power", {"q": 0.5, "gamma": 2.0}, 64),
    "scalar_power-n128": ("scalar_power", {"q": 0.5, "gamma": 2.0}, 128),
    "scalar_power-n256": ("scalar_power", {"q": 0.5, "gamma": 2.0}, 256),
    "scalar_power-q03-n64": ("scalar_power", {"q": 0.3, "gamma": 3.0}, 64),
    "cooperative_product-m2-n128": ("cooperative_product", {"m": 2}, 128),
    "cooperative_product-m3-n64": ("cooperative_product", {"m": 3}, 64),
}


def reference_entry(problem, params, n):
    """The ``perfbench/reference.json`` entry (fold and minimax values) of a case."""
    inner = ",".join(f"{k}={float(v) if k != 'm' else int(v)}" for k, v in sorted(params.items()))
    table = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                        / "reference.json").read_text())
    return table[f"{problem}({inner})/n={n}"]


def fold_sweep(name, monkeypatch, fail_first=False):
    """``continuation_sweep`` of a ``FOLD_CASES`` entry, the number of
    correctors its fold search ran, and the reference fold.  With
    ``fail_first`` the first corrector of the fold search fails."""
    problem, params, n = FOLD_CASES[name]
    ref = reference_entry(problem, params, n)
    in_search, correctors = [], []
    real_refine, real_corrector = minimax_solver._refine_fold, minimax_solver._corrector

    def refine(*args):
        in_search.append(True)
        return real_refine(*args)

    def corrector(*args):
        if in_search:
            correctors.append(True)
            if fail_first and len(correctors) == 1:
                return None
        return real_corrector(*args)

    monkeypatch.setattr(minimax_solver, "_refine_fold", refine)
    monkeypatch.setattr(minimax_solver, "_corrector", corrector)
    sweep = continuation_sweep(builtin_problem(problem, params), build_mesh(n),
                               lambda_max_guess=ref["minimax"])
    return sweep, len(correctors), ref["fold"]


class TestFoldSearch:
    """Regula falsi on the tangent's lambda component inside the bracket."""

    @pytest.mark.parametrize("name", ["scalar_power-n64", "cooperative_product-m3-n64"])
    def test_fold_search_takes_few_correctors(self, name, monkeypatch):
        sweep, correctors, _ = fold_sweep(name, monkeypatch)
        assert sweep.status == "fold_found"
        assert 0 < correctors <= 8

    @pytest.mark.parametrize("name", list(FOLD_CASES))
    def test_fold_agrees_with_reference(self, name, monkeypatch):
        sweep, _, fold = fold_sweep(name, monkeypatch)
        assert sweep.fold_lambda is not None
        assert abs(sweep.fold_lambda - fold) <= 1e-10 * fold

    def test_fold_found_after_a_failed_corrector(self, monkeypatch):
        sweep, correctors, fold = fold_sweep("scalar_power-n64", monkeypatch, fail_first=True)
        assert sweep.fold_lambda is not None and correctors > 1
        assert abs(sweep.fold_lambda - fold) <= 1e-10 * fold


ORACLE_CASES = {
    "scalar_power-n24": ("scalar_power", {"q": 0.5, "gamma": 2.0}, 24),
    "cooperative_product-m2-n16": ("cooperative_product", {"m": 2}, 16),
    "cooperative_product-m3-n16": ("cooperative_product", {"m": 3}, 16),
}


def oracle_point(name, lam=3.0):
    """A Newton solution on the stable branch (every fold is above lambda = 3),
    its Galerkin terms and its Jacobian band."""
    problem, params, n = ORACLE_CASES[name]
    spec, mesh = builtin_problem(problem, params), build_mesh(n)
    blocks = model.stiffness_blocks(spec, mesh)
    sol = newton_multistart(spec, mesh, lam, n_starts=10, blocks=blocks)
    assert sol.converged
    terms = rayleigh.galerkin_terms(spec, mesh, sol.u, blocks)
    jac = minimax_solver._band_at(spec, mesh, sol.u.flatten(), lam, terms, blocks)
    return spec, mesh, blocks, sol.u, lam, terms, jac


def dense_bordered(spec, mesh, u, lam, row):
    """The dense reference [J, -g; row^T] from ``eval_jacobian``."""
    big = u.values.size
    mat = np.zeros((big + 1, big + 1))
    mat[:big, :big] = model.eval_jacobian(spec, mesh, u, lam)
    mat[:big, -1] = -model.eval_residual_terms(spec, mesh, u)[1].ravel()
    mat[-1] = row
    return mat


class TestBandedOracles:
    """Newton and continuation on the band: one assembly per point, sparse LU,
    ``eig_banded``; the dense matrices are references only."""

    @pytest.mark.parametrize("name,guess", [("scalar_power-n24", 12.0),
                                            ("cooperative_product-m2-n16", 10.0)])
    def test_oracles_run_without_dense_linear_algebra(self, name, guess, monkeypatch):
        problem, params, n = ORACLE_CASES[name]
        spec, mesh = builtin_problem(problem, params), build_mesh(n)

        def dense(*args, **kwargs):
            raise AssertionError("dense linear algebra in an oracle")

        with monkeypatch.context() as patch:
            for module, attr in ((np.linalg, "solve"), (np.linalg, "eigvalsh"),
                                 (model, "eval_jacobian"), (model, "band_to_dense")):
                patch.setattr(module, attr, dense)
            patch.setattr(model.JacobianParts, "stiffness", property(dense))
            sweep = continuation_sweep(spec, mesh, lambda_max_guess=guess)
            newton = newton_multistart(spec, mesh, 0.5 * guess)
        assert sweep.status == "fold_found" and sweep.fold_lambda is not None
        assert np.sign(sweep.points[0].stability) > 0 > np.sign(sweep.points[-1].stability)
        assert newton.converged

    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    def test_newton_step_matches_dense_solve(self, name, monkeypatch):
        spec, mesh, blocks, u, lam, _, _ = oracle_point(name)
        u0 = FEField(mesh, 1.05 * u.values)  # a full step stays inside the cone
        dense = np.linalg.solve(model.eval_jacobian(spec, mesh, u0, lam),
                                -rayleigh.galerkin_terms(spec, mesh, u0).residual(lam))
        fields = []  # the start, then its full-step trial
        real_terms = rayleigh.galerkin_terms

        def recording_terms(spec, mesh, u, blocks=None):
            fields.append(np.array(u, dtype=float).ravel())
            return real_terms(spec, mesh, u, blocks)

        monkeypatch.setattr(rayleigh, "galerkin_terms", recording_terms)
        newton_solve(spec, mesh, lam, u0, blocks=blocks)
        step = fields[1] - fields[0]
        assert np.abs(step - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    def test_tangent_and_stability_match_dense(self, name):
        spec, mesh, _, u, lam, terms, jac = oracle_point(name)
        m, n = spec.m, mesh.n_interior
        prev = np.zeros(m * n + 1)
        prev[-1] = 1.0
        for _ in range(2):  # along the lambda axis, then along the first tangent
            tan = minimax_solver._tangent(jac, m, n, terms.g_load.ravel(), prev)
            rhs = np.zeros(m * n + 1)
            rhs[-1] = 1.0
            ref = np.linalg.solve(dense_bordered(spec, mesh, u, lam, prev), rhs)
            ref /= np.linalg.norm(ref)
            ref = -ref if ref @ prev < 0 else ref
            assert np.abs(tan - ref).max() <= 1e-12
            prev = 0.5 * tan + 0.5 * prev
        sym = model.eval_jacobian(spec, mesh, u, lam)
        ref = np.linalg.eigvalsh(0.5 * (sym + sym.T))[0]
        assert ref > 0.0  # the stable branch
        assert abs(minimax_solver._stability(jac, m, n) - ref) <= 1e-12 * abs(ref)

    def test_singular_bordered_matrix_gives_its_named_failure(self, monkeypatch):
        spec, mesh, blocks, u, lam, terms, jac = oracle_point("scalar_power-n24")
        m, n = spec.m, mesh.n_interior
        z = np.append(u.flatten(), lam)
        zero_row = np.zeros(m * n + 1)  # [J, -g; 0] is singular whatever J is
        with pytest.raises(RuntimeError):
            minimax_solver._tangent(jac, m, n, terms.g_load.ravel(), zero_row)
        predicted = z + 0.1 * np.append(np.zeros(m * n), 1.0)  # off the branch
        assert minimax_solver._corrector(spec, mesh, predicted, zero_row, blocks) is None

        def singular(*args, **kwargs):
            raise RuntimeError("matrix is exactly singular")

        # every bordered LU fails: the first tangent of the sweep
        monkeypatch.setattr(minimax_solver, "_BorderedLU", singular)
        sweep = continuation_sweep(spec, mesh, lambda_max_guess=12.0)
        assert sweep.status == "tangent_failed" and sweep.points == ()
        monkeypatch.undo()
        # every LU of J fails: the Newton step
        monkeypatch.setattr(_kernels, "band_lu", singular)
        result = newton_solve(spec, mesh, lam, FEField(mesh, 1.05 * u.values), blocks=blocks)
        assert not result.converged and result.reason == "jacobian_singular"

    @pytest.mark.parametrize("node", [-0.5, 1e-14])
    def test_corrector_iterate_outside_the_cone_returns_none(self, node):
        # a node below zero, or positive but under the relative cone floor
        spec, mesh = scalar_power(0.5, 2.0), build_mesh(16)
        cert = maximize(spec, mesh, options=FAST)
        assert cert.valid
        z = np.append(cert.u_star.flatten(), cert.lambda_star)
        z[0] = node * cert.u_star.sup_norm
        tangent = np.zeros(z.size)
        tangent[-1] = 1.0
        assert minimax_solver._corrector(spec, mesh, z, tangent,
                                         model.stiffness_blocks(spec, mesh)) is None
