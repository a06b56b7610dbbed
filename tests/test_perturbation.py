import numpy as np
import pytest

from minimax_fold import minimax_solver, model, perturbation
from minimax_fold.mesh_fem import build_mesh
from minimax_fold.minimax_solver import SolverOptions, maximize
from minimax_fold.model import FEField, scalar_power
from minimax_fold.perturbation import (
    PerturbationSpec,
    direction_quotients,
    lower_shift,
    psi_loads,
    two_sided_example,
)
from minimax_fold.verification import verify_certificate
from tests.references import rayleigh_quotient

FAST = SolverOptions(n_starts=3)
MESH = build_mesh(24)


@pytest.fixture(scope="module")
def base_cert():
    return maximize(scalar_power(0.5, 2.0), MESH, options=FAST)


def psi_zero():
    return PerturbationSpec(lambda x, t: np.zeros_like(t))


def psi_proportional(c, q):
    return PerturbationSpec(lambda x, t: c * np.power(t, q))


def psi_power(coeff, exponent):
    return PerturbationSpec(lambda x, t: coeff * np.power(t, exponent))


class TestLowerShift:
    def test_zero_perturbation(self, base_cert):
        assert lower_shift(scalar_power(0.5, 2.0), MESH, base_cert, psi_zero()) == 0.0

    def test_nonpositive_for_extra_reaction(self, base_cert):
        value = lower_shift(scalar_power(0.5, 2.0), MESH, base_cert, psi_power(-0.1, 3.0))
        assert value <= 0.0

    def test_proportional_perturbation_is_constant(self, base_cert):
        spec = scalar_power(0.5, 2.0)
        quotients = direction_quotients(spec, MESH, psi_proportional(0.7, spec.q),
                                        base_cert.u_star)
        np.testing.assert_allclose(quotients, 0.7, rtol=1e-12)

    def test_requires_valid_certificate(self, base_cert):
        import dataclasses

        bad = dataclasses.replace(base_cert, valid=False)
        with pytest.raises(ValueError, match="VALID"):
            lower_shift(scalar_power(0.5, 2.0), MESH, bad, psi_zero())


class TestAdditivity:
    def test_general_assembled_additivity(self, base_cert):
        # R_{A+Psi}(u, v) - R_A(u, v) = <Psi(u), v> / <g(u), v> exactly
        import dataclasses

        spec = scalar_power(0.5, 2.0)
        psi = PerturbationSpec(lambda x, t: 0.3 * np.power(t, 2.7))
        pert = dataclasses.replace(
            spec, f=lambda x, t: np.power(t, 2.0) - 0.3 * np.power(t, 2.7))
        rng = np.random.default_rng(8)
        for _ in range(10):
            u = FEField(MESH, rng.uniform(0.2, 2.0, size=(1, MESH.n_interior)))
            v = FEField(MESH, rng.uniform(0.05, 1.0, size=(1, MESH.n_interior)))
            from minimax_fold import model as model_mod

            samples = model_mod.quadrature_samples(spec, MESH, u.values)
            expected = float((psi_loads(spec, MESH, psi, samples) * v.values).sum()) \
                / float((model_mod.eval_residual_terms(spec, MESH, u)[1] * v.values).sum())
            got = rayleigh_quotient(pert, MESH, u, v) \
                - rayleigh_quotient(spec, MESH, u, v)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("spec", [scalar_power(0.5, 2.0), model.cooperative_product(m=3)],
                             ids=["scalar_power", "cooperative_product-m3"])
    @pytest.mark.parametrize("n", [8, 33])
    def test_psi_of_g_gives_the_g_loads(self, spec, n):
        # psi_loads folds the samples back as eval_residual_terms does, component by component
        mesh = build_mesh(n)
        rng = np.random.default_rng(n)
        u = FEField(mesh, rng.uniform(0.2, 2.0, size=(spec.m, mesh.n_interior)))
        samples = model.quadrature_samples(spec, mesh, u.values)
        psi = PerturbationSpec(lambda x, t: model.g_values(spec, x, t))
        np.testing.assert_array_equal(perturbation.psi_loads(spec, mesh, psi, samples),
                                      model.eval_residual_terms(spec, mesh, u)[1])

    def test_quotient_shift_identity(self, base_cert):
        # R_{A+Psi}(u, v) = R_A(u, v) + <Psi(u), v> / <g(u), v> exactly
        import dataclasses

        spec = scalar_power(0.5, 2.0)
        c = 0.8
        pert = dataclasses.replace(
            spec, f=lambda x, t: np.power(t, 2.0) - c * np.power(t, spec.q))
        rng = np.random.default_rng(4)
        for _ in range(10):
            u = FEField(MESH, rng.uniform(0.2, 2.0, size=(1, MESH.n_interior)))
            v = FEField(MESH, rng.uniform(0.05, 1.0, size=(1, MESH.n_interior)))
            r_base = rayleigh_quotient(spec, MESH, u, v)
            r_pert = rayleigh_quotient(pert, MESH, u, v)
            assert r_pert - r_base == pytest.approx(c, rel=1e-12)

    def test_proportional_perturbation_shifts_lambda_by_c(self, base_cert):
        import dataclasses

        spec = scalar_power(0.5, 2.0)
        c = 1.0
        pert = dataclasses.replace(
            spec, f=lambda x, t: np.power(t, 2.0) - c * np.power(t, spec.q),
            f_jac=lambda x, t: (2.0 * t - c * spec.q * np.power(t, spec.q - 1.0))[None],
            f_hess=lambda x, t: (2.0 * np.ones_like(t) - c * spec.q * (spec.q - 1.0)
                                 * np.power(t, spec.q - 2.0))[None, None])
        cert = maximize(pert, MESH, options=FAST)
        assert cert.valid
        assert cert.lambda_star == pytest.approx(base_cert.lambda_star + c, abs=1e-6)


class TestTwoSidedExample:
    def test_zero_kappa_identical(self):
        (report,) = two_sided_example(0.5, 2.0, 3.0, [0.0], MESH, options=FAST)
        assert report.lambda_pert == pytest.approx(report.lambda_base, abs=1e-7)
        assert report.bounds_hold

    def test_sandwich_for_positive_kappa(self):
        (report,) = two_sided_example(0.5, 2.0, 3.0, [0.1], MESH, options=FAST)
        assert report.bounds_hold
        shift_down = report.lambda_base - report.lambda_pert
        assert 0.0 <= shift_down <= report.analytic_cap + 1e-8
        assert report.lower_shift <= report.lambda_pert - report.lambda_base \
            <= report.upper_shift + 1e-8

    def test_monotone_vanishing_shift(self):
        reports = two_sided_example(0.5, 2.0, 3.0, (0.1, 0.01, 0.001), MESH, options=FAST)
        shifts = [report.lambda_base - report.lambda_pert for report in reports]
        assert shifts[0] > shifts[1] > shifts[2] >= 0.0

    def test_monotonicity_in_kappa(self):
        # larger nonnegative extra reaction gives smaller extreme value
        r1, r2 = two_sided_example(0.5, 2.0, 3.0, (0.05, 0.2), MESH, options=FAST)
        assert r2.lambda_pert <= r1.lambda_pert + 1e-9

    def test_invalid_base_raises_before_perturbed_solves(self, monkeypatch):
        solved = []
        real_maximize = perturbation.maximize

        def counting_maximize(spec, mesh, **kwargs):
            solved.append(spec.name)
            return real_maximize(spec, mesh, **kwargs)

        monkeypatch.setattr(perturbation, "maximize", counting_maximize)
        monkeypatch.setattr(minimax_solver, "_SLP_MAX_ITERS", 1)
        with pytest.raises(RuntimeError, match=r"^solver failure: base status 'max_iters'$"):
            two_sided_example(0.5, 2.0, 3.0, (0.1, 0.01), MESH,
                              options=SolverOptions(n_starts=1))
        assert solved == ["scalar_power"]

    def test_large_kappa_continues_from_base(self):
        mesh = build_mesh(64)
        (report,) = two_sided_example(0.5, 2.0, 3.0, [1.0], mesh)
        assert report.start == "continued"
        assert report.pert_cert.valid and report.bounds_hold
        assert verify_certificate(model.perturbed_scalar(0.5, 2.0, 3.0, 1.0), mesh,
                                  report.pert_cert).valid
        full = maximize(model.perturbed_scalar(0.5, 2.0, 3.0, 1.0), mesh)
        assert full.valid
        assert abs(report.lambda_pert - full.lambda_star) <= 1e-12 * full.lambda_star
        assert report.lambda_pert == pytest.approx(7.691558, rel=1e-6)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            two_sided_example(1.5, 2.0, 3.0, [0.1], MESH)

    def test_rejects_negative_kappa_before_any_solve(self, monkeypatch):
        # the estimate presumes Psi = -kappa u^gamma1 <= 0; a kappa function
        # negative anywhere on the sample grid is refused before the base solve
        solved = []
        monkeypatch.setattr(perturbation, "maximize", lambda *a, **k: solved.append(a))
        with pytest.raises(ValueError, match=r"kappa must be nonnegative, got -0\.1$"):
            two_sided_example(0.5, 2.0, 3.0, (0.1, lambda x: 0.1 - 0.2 * x), MESH)
        assert solved == []
