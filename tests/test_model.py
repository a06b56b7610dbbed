import dataclasses

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from minimax_fold import mesh_fem, model
from minimax_fold.mesh_fem import build_mesh
from minimax_fold.model import (
    ConeError,
    FEField,
    ProblemSpec,
    builtin_problem,
    check_hypotheses,
    cooperative_product,
    eval_jacobian,
    eval_residual_terms,
    linear_diagnostic,
    perturbed_scalar,
    scalar_power,
)
from tests.references import to_dense, tridiag_to_dense


def pure_product_spec(m=2, q=0.5, alpha_diag=2.0, alpha_off=1.5, theta=None):
    """Reaction f^k = prod_j t_j^alpha_kj with all alpha_kj > 1."""
    alpha = np.full((m, m), alpha_off)
    np.fill_diagonal(alpha, alpha_diag)

    def f(x, t):
        out = np.ones_like(t)
        for k in range(m):
            for j in range(m):
                out[k] = out[k] * np.power(t[j], alpha[k, j])
        return out

    def f_jac(x, t):
        fv = f(x, t)
        out = np.zeros((m, m) + t.shape[1:])
        for k in range(m):
            for j in range(m):
                prod = np.ones_like(t[0])
                for s in range(m):
                    e = alpha[k, s] - (1.0 if s == j else 0.0)
                    prod = prod * np.power(t[s], e)
                out[k, j] = alpha[k, j] * prod
        return out

    gamma0 = float(alpha.sum(axis=1).min())
    return ProblemSpec(
        m=m, sigma=(1.0,) * m, c=(0.0,) * m, a_coeff=(1.0,) * m, a_bounds=(1.0, 1.0),
        q=q, f=f, f_jac=f_jac, gamma0=gamma0, gamma=float(alpha.sum(axis=1).max()),
        theta=0.9 * alpha_diag if theta is None else theta, name="pure_product",
    )


def random_interior_field(mesh, m, rng, lo=0.3, hi=1.5):
    return FEField(mesh, rng.uniform(lo, hi, size=(m, mesh.n_interior)))


class TestProblemSpecValidation:
    def test_scalar_power_defaults(self):
        spec = scalar_power(0.5, 2.0)
        assert spec.m == 1 and spec.theta == 1.5

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            scalar_power(q=1.2, gamma=2.0)
        with pytest.raises(ValueError):
            scalar_power(q=0.5, gamma=0.9)
        with pytest.raises(ValueError):
            cooperative_product(q=0.0)

    @pytest.mark.parametrize("spec, change", [(scalar_power(), {"q": 1.0}),
                                              (linear_diagnostic(), {"diagnostic": False})])
    def test_replace_revalidates_the_exponent(self, spec, change):
        # the solver relies on this: no nonlinear spec with q >= 1 reaches it
        with pytest.raises(ValueError, match="exponent q"):
            dataclasses.replace(spec, **change)

    def test_catalog_lookup(self):
        spec = builtin_problem("scalar_power", {"q": 0.3, "gamma": 3.0})
        assert spec.q == 0.3
        with pytest.raises(ValueError, match="unknown problem"):
            builtin_problem("nope")

    def test_theta_window_enforced(self):
        with pytest.raises(ValueError, match="theta"):
            scalar_power(0.5, 2.0, theta=2.5)

    def test_linear_diagnostic_takes_a_per_component_coefficient(self):
        assert linear_diagnostic(2, [1.0, 2.0]).a_bounds == (1.0, 2.0)
        with pytest.raises(ValueError, match="positive"):
            linear_diagnostic(2, [1.0, 0.0])


class TestFEField:
    def test_shape_validation(self):
        mesh = build_mesh(4)
        with pytest.raises(ValueError):
            FEField(mesh, np.ones((1, 5)))

    def test_cone_flags(self):
        mesh = build_mesh(4)
        assert FEField(mesh, np.ones((2, 3))).interior
        mixed = FEField(mesh, np.array([[1.0, 0.0, 1.0]]))
        assert mixed.nonnegative and not mixed.interior

    def test_evaluate_and_transfer(self):
        mesh = build_mesh(4)
        x = mesh.interior_nodes
        field = FEField(mesh, [x * (1 - x)])
        fine = field.transfer_to(build_mesh(8))
        # P1 transfer is exact at shared nodes
        np.testing.assert_allclose(fine.values[0, 1::2], field.values[0], rtol=1e-15)


class TestResidualTerms:
    def test_g_load_positive_on_open_cone(self):
        mesh = build_mesh(4)
        spec = scalar_power(0.5, 2.0)
        x = mesh.interior_nodes
        u = FEField(mesh, [x * (1 - x)])
        _, g_load = eval_residual_terms(spec, mesh, u)
        assert np.all(g_load > 0.0)

    def test_zero_field_zero_reaction(self):
        mesh = build_mesh(8)
        spec = pure_product_spec()
        u = FEField(mesh, np.zeros((2, mesh.n_interior)))
        f_load, g_load = eval_residual_terms(spec, mesh, u)
        np.testing.assert_allclose(f_load, 0.0)
        np.testing.assert_allclose(g_load, 0.0)

    def test_rejects_negative_coefficients(self):
        mesh = build_mesh(4)
        spec = scalar_power(0.5, 2.0)
        with pytest.raises(ConeError):
            eval_residual_terms(spec, mesh, FEField(mesh, np.array([[1.0, -0.1, 1.0]])))

    def test_constant_field_against_refined_quadrature(self):
        # oracle: same integrand evaluated with a 10x subdivided Gauss rule
        mesh = build_mesh(8)
        spec = scalar_power(0.5, 2.0)
        u = FEField(mesh, np.ones((1, mesh.n_interior)))

        fine = build_mesh(80)
        uq = mesh_fem.values_at_quadrature(fine, u.evaluate(fine.interior_nodes))
        fv = np.power(uq, 2.0)
        loads_fine = mesh_fem.quadrature_loads(fine, fv)
        # restrict the fine loads to the coarse hats: <f, psi_i^coarse> =
        # sum_j psi_i^coarse(x_j^fine) <f, psi_j^fine> holds exactly for P1
        coarse_hat = np.zeros((mesh.n_interior, fine.n_interior))
        for i in range(mesh.n_interior):
            e = np.zeros(mesh.n_interior)
            e[i] = 1.0
            coarse_hat[i] = mesh_fem.interpolant_values(mesh, e, fine.interior_nodes)
        f_load, _ = eval_residual_terms(spec, mesh, u)
        np.testing.assert_allclose(f_load[0], coarse_hat @ loads_fine[0], atol=1e-10)


class TestJacobian:
    def test_linear_case_is_block_stiffness(self):
        mesh = build_mesh(6)
        spec = linear_diagnostic(m=2)
        u = FEField(mesh, np.ones((2, mesh.n_interior)))
        jac = eval_jacobian(spec, mesh, u, 0.0)
        a = to_dense(mesh_fem.assemble_stiffness(mesh, 1.0, 0.0))
        n = mesh.n_interior
        np.testing.assert_allclose(jac[:n, :n], a, rtol=1e-14)
        np.testing.assert_allclose(jac[n:, n:], a, rtol=1e-14)
        np.testing.assert_allclose(jac[:n, n:], 0.0)

    def test_finite_difference_consistency(self):
        rng = np.random.default_rng(7)
        mesh = build_mesh(8)
        spec = scalar_power(0.5, 2.0)
        lam = 1.3
        for _ in range(20):
            u = random_interior_field(mesh, 1, rng)
            jac = eval_jacobian(spec, mesh, u, lam)
            direction = rng.standard_normal(u.values.shape)
            eps = 1e-5
            up = FEField(mesh, u.values + eps * direction)
            dn = FEField(mesh, u.values - eps * direction)
            fd = (np.asarray(residual_of(spec, mesh, up, lam))
                  - np.asarray(residual_of(spec, mesh, dn, lam))) / (2 * eps)
            analytic = (jac @ direction.ravel()).reshape(u.values.shape)
            rel = np.abs(fd - analytic).max() / max(np.abs(analytic).max(), 1e-300)
            assert rel <= 1e-5

    def test_cooperative_offdiagonal_blocks_nonpositive(self):
        mesh = build_mesh(8)
        spec = cooperative_product(m=2, alpha=0.5)
        u = FEField(mesh, np.ones((2, mesh.n_interior)))
        jac = eval_jacobian(spec, mesh, u, 1.0)
        n = mesh.n_interior
        assert np.all(jac[:n, n:] <= 1e-14)
        assert np.all(jac[n:, :n] <= 1e-14)

    def test_rejects_boundary_field(self):
        mesh = build_mesh(4)
        spec = scalar_power(0.5, 2.0)
        with pytest.raises(ConeError):
            eval_jacobian(spec, mesh, FEField(mesh, np.array([[1.0, 0.0, 1.0]])), 1.0)

    def test_cone_mask_is_the_assembly_check(self):
        # per field: inside, on the boundary, positive but below the relative floor
        fields = np.array([[[1.0, 0.5, 1.0]], [[1.0, 0.0, 1.0]], [[1.0, 1e-14, 1.0]]])
        assert model.in_open_cone(fields).tolist() == [True, False, False]
        model.require_open_cone(fields[0])
        for field in fields[1:]:
            with pytest.raises(ConeError):
                model.require_open_cone(field)

    def test_block_structure_mirrors_reaction_jacobian(self):
        # stiffness and parameter-mass blocks are symmetric; the (k, l)
        # reaction block is the mass matrix weighted by df^k/dt_l pointwise
        mesh = build_mesh(6)
        spec = cooperative_product(m=2, beta=(2.0, 3.0), alpha=0.7)
        rng = np.random.default_rng(1)
        u = random_interior_field(mesh, 2, rng)
        parts = model.jacobian_parts(spec, mesh, u)
        n = mesh.n_interior
        mass_f = model.band_to_dense(parts.mass_f_band, 2, n)
        mass_g = model.band_to_dense(parts.mass_g_band, 2, n)
        for mat in (parts.stiffness, mass_g):
            assert np.abs(mat - mat.T).max() <= 1e-13 * np.abs(mat).max()
        xq, _, _, _ = mesh_fem.element_quadrature(mesh)
        tq = mesh_fem.values_at_quadrature(mesh, u.values)
        fj = spec.f_jac(xq.ravel(), tq.reshape(2, -1)).reshape((2, 2) + xq.shape)
        for k in range(2):
            for l in range(2):
                d, o = mesh_fem.weighted_mass(mesh, fj[k, l])
                block = mass_f[k * n:(k + 1) * n, l * n:(l + 1) * n]
                expected = np.diag(d) + np.diag(o, 1) + np.diag(o, -1)
                assert np.abs(block - expected).max() <= 1e-13 * max(np.abs(expected).max(), 1.0)
                assert np.abs(block - block.T).max() <= 1e-13 * max(np.abs(block).max(), 1.0)
        # the coupled blocks are genuinely asymmetric across (k, l) for this f
        top_right = mass_f[:n, n:]
        bottom_left = mass_f[n:, :n]
        assert np.abs(top_right - bottom_left).max() > 1e-8

    @pytest.mark.parametrize("spec", [
        scalar_power(0.5, 2.0),
        cooperative_product(m=2, beta=(2.0, 3.0), alpha=0.7),
        cooperative_product(m=3, alpha=[[0.0, 0.4, 0.0], [0.3, 0.0, 0.6], [0.5, 0.2, 0.0]]),
    ], ids=["scalar_power", "cooperative_product-m2", "cooperative_product-m3"])
    def test_adjoint_curvature_matches_fd_fallback(self, spec):
        import dataclasses

        mesh = build_mesh(9)
        m, n = spec.m, mesh.n_interior
        rng = np.random.default_rng(3)
        u = random_interior_field(mesh, m, rng)
        w = rng.standard_normal(m * n)
        v = rng.uniform(0.2, 1.0, m * n)
        lam = 0.7
        analytic = model.adjoint_curvature(spec, mesh, u, w, v, lam)
        scale = np.abs(analytic).max()
        assert scale > 0.0
        # the vector is the dense curvature matrix d/du (J(u, lam)^T w) times v
        expected = dense_adjoint_curvature(spec, mesh, u, w, lam) @ v
        assert np.abs(analytic - expected).max() <= 1e-13 * scale
        no_hess = dataclasses.replace(spec, f_hess=None)
        fd = model.adjoint_curvature(no_hess, mesh, u, w, v, lam)
        assert np.abs(analytic - fd).max() <= 1e-6 * scale


    @pytest.mark.parametrize("spec", [
        scalar_power(0.5, 2.0),
        cooperative_product(m=2, beta=(2.0, 3.0), alpha=0.7),
        cooperative_product(m=3, alpha=[[0.0, 0.4, 0.0], [0.3, 0.0, 0.6], [0.5, 0.2, 0.0]]),
    ], ids=["scalar_power", "cooperative_product-m2", "cooperative_product-m3"])
    @pytest.mark.parametrize("hessian", [True, False], ids=["analytic", "no_hess"])
    def test_adjoint_curvature_of_a_stack_equals_each_field(self, spec, hessian):
        import dataclasses

        if not hessian:
            spec = dataclasses.replace(spec, f_hess=None)
        mesh = build_mesh(9)
        m, n = spec.m, mesh.n_interior
        rng = np.random.default_rng(5)
        u = np.stack([random_interior_field(mesh, m, rng).values for _ in range(4)])
        w = rng.standard_normal((4, m * n))
        v = rng.uniform(0.2, 1.0, (4, m * n))
        v[3] = 0.0  # a field with no curvature direction
        lam = np.array([0.7, 1.3, 2.0, 0.4])
        stacked = model.adjoint_curvature(spec, mesh, u, w, v, lam)
        assert stacked.shape == (4, m * n)
        for i in range(4):
            alone = model.adjoint_curvature(spec, mesh, FEField(mesh, u[i]), w[i], v[i], lam[i])
            assert np.array_equal(stacked[i], alone)
        assert not np.any(stacked[3])


def dense_adjoint_curvature(spec, mesh, u, w, lam):
    """The (m*n, m*n) matrix d/du (J(u, lam)^T w), block by block from ``weighted_mass``.

    Block (l, s) is minus the mass matrix weighted by
    sum_k d2f^k/dt_l dt_s w^k, and block (l, l) also by lam g^l_tt w^l.
    """
    m, n = spec.m, mesh.n_interior
    xq, _, _, _ = mesh_fem.element_quadrature(mesh)
    tq = mesh_fem.values_at_quadrature(mesh, u.values).reshape(m, -1)
    fh = spec.f_hess(xq.ravel(), tq).reshape((m, m, m) + xq.shape)
    gtt = model.g_tt_values(spec, xq.ravel(), tq).reshape((m,) + xq.shape)
    wq = mesh_fem.values_at_quadrature(mesh, w.reshape(m, n))
    fweight = np.einsum("kls...,k...->ls...", fh, wq)
    out = np.zeros((m * n, m * n))
    for l in range(m):
        sl = slice(l * n, (l + 1) * n)
        gmass = mesh_fem.weighted_mass(mesh, gtt[l] * wq[l])
        out[sl, sl] -= lam * tridiag_to_dense(*gmass)
        for s in range(m):
            out[sl, s * n:(s + 1) * n] -= tridiag_to_dense(
                *mesh_fem.weighted_mass(mesh, fweight[l, s]))
    return out


def residual_of(spec, mesh, u, lam):
    from minimax_fold.rayleigh import galerkin_terms

    return galerkin_terms(spec, mesh, u).residual(lam).reshape(u.values.shape)


def looped_cooperative_callbacks(m, beta, alpha, b):
    """``cooperative_product``'s f, f_jac and f_hess as first written: f_jac
    calls f, f_hess calls both, and every power is taken where it is used."""
    beta_t = np.array([float(v) for v in beta])
    alpha_t = np.asarray(alpha, dtype=float).copy()
    np.fill_diagonal(alpha_t, 0.0)

    def b_samples(x):
        return np.stack([mesh_fem._sample(bf, np.asarray(x, dtype=float)) for bf in b])

    def f(x, t):
        bs = b_samples(x)
        out = np.empty_like(t)
        for k in range(m):
            prod = np.power(t[k], beta_t[k])
            for j in range(m):
                if j != k and alpha_t[k, j] != 0.0:
                    prod = prod * np.power(1.0 + t[j], alpha_t[k, j])
            out[k] = bs[k] * prod
        return out

    def f_jac(x, t):
        fv = f(x, t)
        bs = b_samples(x)
        out = np.zeros((m, m) + t.shape[1:])
        for k in range(m):
            own = bs[k] * beta_t[k] * np.power(t[k], beta_t[k] - 1.0)
            for j in range(m):
                if j != k and alpha_t[k, j] != 0.0:
                    own = own * np.power(1.0 + t[j], alpha_t[k, j])
            out[k, k] = own
            for l in range(m):
                if l != k and alpha_t[k, l] != 0.0:
                    out[k, l] = fv[k] * alpha_t[k, l] / (1.0 + t[l])
        return out

    def f_hess(x, t):
        fv = f(x, t)
        fj = f_jac(x, t)
        out = np.zeros((m, m, m) + t.shape[1:])
        with np.errstate(divide="ignore", invalid="ignore"):
            for k in range(m):
                out[k, k, k] = fj[k, k] * (beta_t[k] - 1.0) / np.maximum(t[k], 1e-300)
                for l in range(m):
                    if l == k:
                        continue
                    al = alpha_t[k, l]
                    if al != 0.0:
                        cross = fj[k, k] * al / (1.0 + t[l])
                        out[k, k, l] = cross
                        out[k, l, k] = cross
                        out[k, l, l] = fv[k] * al * (al - 1.0) / (1.0 + t[l]) ** 2
                    for s in range(m):
                        if s != k and s != l and alpha_t[k, s] != 0.0 and al != 0.0:
                            out[k, l, s] = fv[k] * al * alpha_t[k, s] / (
                                (1.0 + t[l]) * (1.0 + t[s]))
        return out

    return f, f_jac, f_hess


class TestCooperativeProductCallbacks:
    @pytest.mark.parametrize("m, beta, alpha", [
        (1, (2.0,), [[0.0]]),
        (2, (2.0, 3.0), [[0.0, 0.7], [0.0, 0.0]]),
        (3, (2.0, 2.5, 3.0), [[0.0, 0.4, 0.0], [0.3, 0.0, 0.6], [0.5, 0.2, 0.0]]),
    ])
    def test_bit_identical_to_looped_formulas(self, m, beta, alpha):
        b = [1.0, lambda x: 1.0 + x, 2.0][:m]
        spec = cooperative_product(m=m, beta=beta, alpha=np.array(alpha), b=b)
        reference = looped_cooperative_callbacks(m, beta, alpha, b)
        rng = np.random.default_rng(m)
        x = rng.uniform(0.0, 1.0, 40)
        t = rng.uniform(1e-3, 3.0, (m, 40))
        for got, expected in zip((spec.f, spec.f_jac, spec.f_hess), reference):
            assert np.array_equal(got(x, t), expected(x, t))


class TestConditionD:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_g_pairing_positive_on_open_cone(self, seed):
        rng = np.random.default_rng(seed)
        mesh = build_mesh(int(rng.integers(3, 20)))
        spec = cooperative_product(m=2, q=float(rng.uniform(0.1, 0.9)))
        u = random_interior_field(mesh, 2, rng, lo=1e-3, hi=2.0)
        _, g_load = eval_residual_terms(spec, mesh, u)
        assert np.all(g_load > 0.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_g_linearization_monotone(self, seed):
        # <g_u(u) w, v> >= 0 for nonnegative w, v
        rng = np.random.default_rng(seed)
        mesh = build_mesh(int(rng.integers(3, 16)))
        spec = scalar_power(q=float(rng.uniform(0.1, 0.9)), gamma=2.0)
        u = random_interior_field(mesh, 1, rng)
        parts = model.jacobian_parts(spec, mesh, u)
        w = rng.uniform(0.0, 1.0, mesh.n_interior)
        v = rng.uniform(0.0, 1.0, mesh.n_interior)
        assert v @ model.band_to_dense(parts.mass_g_band, 1, mesh.n_interior) @ w >= -1e-14

    def test_euler_identity_for_g(self):
        # t g_t = q g transfers to <g_u(u) u, v> = q <g(u), v> exactly
        rng = np.random.default_rng(11)
        mesh = build_mesh(12)
        spec = scalar_power(0.37, 2.0)
        u = random_interior_field(mesh, 1, rng)
        parts = model.jacobian_parts(spec, mesh, u)
        _, g_load = eval_residual_terms(spec, mesh, u)
        v = rng.uniform(0.1, 1.0, mesh.n_interior)
        lhs = v @ model.band_to_dense(parts.mass_g_band, 1, mesh.n_interior) @ u.values.ravel()
        rhs = spec.q * (v @ g_load.ravel())
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


class TestCheckHypotheses:
    def test_pure_product_passes(self):
        report = check_hypotheses(pure_product_spec(alpha_diag=2.0, theta=0.9 * 2.0))
        assert report.all_passed

    def test_negative_reaction_fails_h2(self):
        spec = scalar_power(0.5, 2.0)
        import dataclasses

        bad = dataclasses.replace(spec, f=lambda x, t: -np.power(t, 2.0))
        report = check_hypotheses(bad)
        assert not report["h2"].passed

    def test_h4_margin_for_power_reaction(self):
        # t f' = gamma f, so the margin is (gamma - theta) f > 0
        spec = scalar_power(0.5, 2.0, theta=1.5)
        report = check_hypotheses(spec)
        assert report["h4"].passed
        assert report["h4"].margin >= 0.0

    def test_cooperative_product_passes(self):
        report = check_hypotheses(cooperative_product(m=2, beta=2.0, alpha=0.5))
        assert report.all_passed

    def test_report_always_produced(self):
        report = check_hypotheses(scalar_power(0.5, 2.0))
        assert len(report.checks) == 5
        assert np.isfinite(report.growth_constant)


class TestCallableCoefficients:
    def test_variable_coefficients_through_solver(self):
        from minimax_fold.mesh_fem import build_mesh as bm
        from minimax_fold.minimax_solver import SolverOptions, maximize

        spec = cooperative_product(m=2, a=lambda x: 1.0 + 0.3 * np.sin(np.pi * x),
                                   b=lambda x: 1.0 + 0.2 * x)
        assert check_hypotheses(spec).all_passed
        cert = maximize(spec, bm(12), options=SolverOptions(n_starts=2))
        assert cert.valid and cert.lambda_star > 0.0

    def test_callable_kappa_perturbation(self):
        from minimax_fold.mesh_fem import build_mesh as bm
        from minimax_fold.minimax_solver import SolverOptions, maximize

        spec = perturbed_scalar(0.5, 2.0, 3.0, kappa=lambda x: 0.1 * (1.0 + x))
        cert = maximize(spec, bm(12), options=SolverOptions(n_starts=2))
        assert cert.valid


class TestPerturbedScalar:
    def test_zero_kappa_matches_scalar_power(self):
        mesh = build_mesh(16)
        base = scalar_power(0.5, 2.0)
        pert = perturbed_scalar(0.5, 2.0, 3.0, kappa=0.0)
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = random_interior_field(mesh, 1, rng)
            rb = residual_of(base, mesh, u, 2.0)
            rp = residual_of(pert, mesh, u, 2.0)
            assert np.abs(rb - rp).max() <= 1e-14 * max(np.abs(rb).max(), 1.0)
