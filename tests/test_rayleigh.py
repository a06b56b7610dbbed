import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings

from minimax_fold import mesh_fem, minimax_solver, model, rayleigh
from minimax_fold.mesh_fem import build_mesh
from minimax_fold.model import FEField, cooperative_product, linear_diagnostic, scalar_power
from minimax_fold.rayleigh import DenominatorError, inner_min
from tests.references import rayleigh_quotient, to_dense, tridiag_to_dense


def mass_matrix(mesh):
    xq, _, _, _ = mesh_fem.element_quadrature(mesh)
    d, o = mesh_fem.weighted_mass(mesh, np.ones_like(xq))
    out = np.diag(d)
    if d.size > 1:
        out += np.diag(o, 1) + np.diag(o, -1)
    return out


STENCIL_CASES = {
    "scalar_power": lambda: scalar_power(0.5, 2.0),
    "cooperative_product_m2": lambda: cooperative_product(m=2, beta=(2.0, 3.0), alpha=0.7),
    "cooperative_product_m3": lambda: cooperative_product(m=3),
    "linear_diagnostic_m2": lambda: linear_diagnostic(m=2),  # zero coupling blocks
}


def stencil_case(name, n_interior):
    """(spec, mesh, u, terms, parts) at a seeded interior field."""
    spec = STENCIL_CASES[name]()
    mesh = build_mesh(n_interior + 1)
    rng = np.random.default_rng(n_interior)
    u = FEField(mesh, rng.uniform(0.5, 1.5, size=(spec.m, n_interior)))
    terms = rayleigh.galerkin_terms(spec, mesh, u)
    return spec, mesh, u, terms, model.jacobian_parts(spec, mesh, u, blocks=terms.blocks)


def general_band_to_dense(band, width):
    """Dense matrix of a LAPACK general band as ``_kernels.band_lu`` takes it:
    entry (i, j) at ``band[2 width + i - j, j]`` for |i - j| <= width."""
    size = band.shape[1]
    i, j = np.indices((size, size))
    inside = np.abs(i - j) <= width
    dense = np.zeros((size, size))
    dense[inside] = band[2 * width + i[inside] - j[inside], j[inside]]
    return dense


def node_major(dense, m, n):
    """``dense`` with rows and columns (k*n + i) reordered node-major (i*m + k)."""
    order = np.arange(m * n).reshape(m, n).T.ravel()
    return dense[np.ix_(order, order)]


def bordered_dense(dense, col, row, corner):
    return np.block([[dense, col[:, None]], [row[None, :], corner]])


def assert_bordered_solves(lu, bordered, rng):
    """``lu.solve``, and the refined ``lu.unit_solve``, match a dense solve of
    ``bordered`` and of its transpose."""
    rhs, unit = rng.standard_normal(bordered.shape[0]), np.eye(bordered.shape[0])[-1]
    for trans, matrix in (("N", bordered), ("T", bordered.T)):
        for z, b in ((lu.solve(rhs, trans), rhs), (lu.unit_solve(trans), unit)):
            ref = np.linalg.solve(matrix, b)
            assert np.abs(z - ref).max() <= 1e-12 * np.abs(ref).max()


def dense_parts(parts):
    """The dense stiffness, reaction mass and parameter mass of ``parts``."""
    return tuple(model.band_to_dense(band, parts.m, parts.n) for band in
                 (parts.stiffness_band, parts.mass_f_band, parts.mass_g_band))


def dense_gradients(terms, parts):
    """Direction gradients by the dense quotient rule, row i = grad R_i."""
    quotients = terms.quotients()
    denom = terms.g_load.ravel()
    stiffness, mass_f, mass_g = dense_parts(parts)
    return (stiffness - mass_f - quotients[:, None] * mass_g) / denom[:, None]


def principal_eigenpair(mesh):
    a = to_dense(mesh_fem.assemble_stiffness(mesh, 1.0, 0.0))
    w, v = scipy.linalg.eigh(a, mass_matrix(mesh))
    vec = v[:, 0]
    if vec.sum() < 0:
        vec = -vec
    return float(w[0]), vec


def closed_form_eigenvalue(n):
    h = 1.0 / n
    return (6.0 / h**2) * (1.0 - np.cos(np.pi * h)) / (2.0 + np.cos(np.pi * h))


class TestRayleighQuotient:
    def test_linear_diagnostic_at_eigenvector(self):
        mesh = build_mesh(4)
        lam1, vec = principal_eigenpair(mesh)
        assert abs(lam1 - closed_form_eigenvalue(4)) < 1e-12
        spec = linear_diagnostic()
        u = FEField(mesh, vec[None, :])
        value = rayleigh_quotient(spec, mesh, u, u)
        assert abs(value - lam1) < 1e-12 * lam1

    def test_solution_pair_gives_lambda_for_every_v(self):
        # at a discrete solution, R(u, v) = lambda for every cone field v
        from minimax_fold.minimax_solver import newton_multistart

        mesh = build_mesh(16)
        spec = scalar_power(0.5, 2.0)
        lam = 5.0
        sol = newton_multistart(spec, mesh, lam, n_starts=12)
        assert sol.converged
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = FEField(mesh, rng.uniform(0.05, 1.0, size=(1, mesh.n_interior)))
            assert abs(rayleigh_quotient(spec, mesh, sol.u, v) - lam) < 1e-9

    def test_matches_refined_quadrature_recomputation(self):
        # oracle: rebuild numerator/denominator on a 10x finer mesh where the
        # P1 fields are represented exactly
        mesh = build_mesh(8)
        fine = build_mesh(80)
        spec = scalar_power(0.5, 2.0)
        u = FEField(mesh, np.ones((1, mesh.n_interior)))
        v = FEField(mesh, np.eye(mesh.n_interior)[2][None, :])
        u_f = u.transfer_to(fine)
        v_f = v.transfer_to(fine)
        a_coarse = mesh_fem.assemble_stiffness(mesh, 1.0, 0.0)
        a_fine = mesh_fem.assemble_stiffness(fine, 1.0, 0.0)
        num_f = float(v_f.values[0] @ a_fine.matvec(u_f.values[0]))
        fl, gl = model.eval_residual_terms(spec, fine, u_f)
        num_f -= float((fl * v_f.values).sum())
        den_f = float((gl * v_f.values).sum())
        value = rayleigh_quotient(spec, mesh, u, v)
        assert abs(value - num_f / den_f) < 1e-10 * abs(value)

    def test_denominator_guard(self):
        mesh = build_mesh(4)
        spec = scalar_power(0.5, 2.0)
        u = FEField(mesh, np.zeros((1, 3)))
        v = FEField(mesh, np.ones((1, 3)))
        with pytest.raises(DenominatorError):
            rayleigh_quotient(spec, mesh, u, v)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_zero_homogeneity_in_v(self, seed):
        rng = np.random.default_rng(seed)
        mesh = build_mesh(int(rng.integers(3, 20)))
        spec = scalar_power(float(rng.uniform(0.1, 0.9)), 2.0)
        u = FEField(mesh, rng.uniform(0.2, 1.5, size=(1, mesh.n_interior)))
        v = FEField(mesh, rng.uniform(0.05, 1.0, size=(1, mesh.n_interior)))
        t = float(rng.uniform(0.01, 100.0))
        r1 = rayleigh_quotient(spec, mesh, u, v)
        r2 = rayleigh_quotient(spec, mesh, u, FEField(mesh, t * v.values))
        assert abs(r1 - r2) <= 1e-12 * (1.0 + abs(r1))


class TestInnerMin:
    def test_full_active_set_at_solution(self):
        from minimax_fold.minimax_solver import newton_multistart

        mesh = build_mesh(16)
        spec = scalar_power(0.5, 2.0)
        lam = 5.0
        sol = newton_multistart(spec, mesh, lam, n_starts=12)
        result = inner_min(spec, mesh, sol.u)
        assert abs(result.value - lam) < 1e-9
        assert result.active_set.size == mesh.n_interior

    def test_linear_diagnostic_at_eigenvector(self):
        mesh = build_mesh(16)
        lam1, vec = principal_eigenpair(mesh)
        spec = linear_diagnostic()
        result = inner_min(spec, mesh, FEField(mesh, vec[None, :]))
        assert abs(result.value - lam1) < 1e-9 * lam1
        assert result.active_set.size == mesh.n_interior

    def test_small_amplitude_positive_value(self):
        # small fields make the sublinear parameter term dominate
        mesh = build_mesh(8)
        spec = scalar_power(0.5, 2.0)
        x = mesh.interior_nodes
        u = FEField(mesh, [0.1 * x * (1 - x)])
        assert inner_min(spec, mesh, u).value > 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_lower_bounds_quotient_at_any_v(self, seed):
        # mediant inequality: min_i R(u, eta_i) <= R(u, v) for cone v
        rng = np.random.default_rng(seed)
        mesh = build_mesh(int(rng.integers(3, 24)))
        spec = scalar_power(float(rng.uniform(0.1, 0.9)), float(rng.uniform(1.5, 3.0)))
        u = FEField(mesh, rng.uniform(0.1, 2.0, size=(1, mesh.n_interior)))
        v = FEField(mesh, rng.uniform(0.0, 1.0, size=(1, mesh.n_interior)) + 1e-6)
        assert inner_min(spec, mesh, u).value <= rayleigh_quotient(spec, mesh, u, v) + 1e-11


class TestResidual:
    def test_zero_field_zero_residual(self):
        # boundary degeneracy of the product reaction plus g(0) = 0
        from tests.test_model import pure_product_spec

        mesh = build_mesh(8)
        spec = pure_product_spec()
        u = FEField(mesh, np.zeros((2, mesh.n_interior)))
        np.testing.assert_allclose(rayleigh.galerkin_terms(spec, mesh, u).residual(3.0), 0.0)

    def test_linear_diagnostic_matrix_form(self):
        mesh = build_mesh(8)
        spec = linear_diagnostic()
        rng = np.random.default_rng(2)
        u = FEField(mesh, rng.uniform(0.1, 1.0, size=(1, mesh.n_interior)))
        lam = 3.7
        a = mesh_fem.assemble_stiffness(mesh, 1.0, 0.0)
        expected = a.matvec(u.values[0]) - lam * (mass_matrix(mesh) @ u.values[0])
        got = rayleigh.galerkin_terms(spec, mesh, u).residual(lam)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_algebraic_identity_with_quotients(self, seed):
        # residual entry (k, i) equals (R_i - lambda) <g(u), eta_i> exactly
        rng = np.random.default_rng(seed)
        mesh = build_mesh(int(rng.integers(3, 20)))
        spec = scalar_power(float(rng.uniform(0.1, 0.9)), 2.0)
        u = FEField(mesh, rng.uniform(0.1, 2.0, size=(1, mesh.n_interior)))
        lam = float(rng.uniform(-2.0, 10.0))
        result = inner_min(spec, mesh, u)
        _, g_load = model.eval_residual_terms(spec, mesh, u)
        expected = (result.quotients - lam) * g_load.ravel()
        got = rayleigh.galerkin_terms(spec, mesh, u).residual(lam)
        scale = max(np.abs(got).max(), 1.0)
        assert np.abs(got - expected).max() <= 1e-12 * scale


class TestGradients:
    def test_finite_difference_match_20_points(self):
        rng = np.random.default_rng(42)
        mesh = build_mesh(8)
        spec = scalar_power(0.5, 2.0)
        n = mesh.n_interior
        for trial in range(20):
            u = FEField(mesh, rng.uniform(0.4, 1.6, size=(1, n)))
            i = int(rng.integers(0, n))
            grad = model.band_to_dense(rayleigh.quotient_gradients(spec, mesh, u), 1, n)[i]
            eps = 1e-5
            fd = np.zeros(n)
            eta = FEField(mesh, np.eye(n)[i][None, :])
            for j in range(n):
                up = u.values.copy()
                dn = u.values.copy()
                up[0, j] += eps
                dn[0, j] -= eps
                fd[j] = (rayleigh_quotient(spec, mesh, FEField(mesh, up), eta)
                         - rayleigh_quotient(spec, mesh, FEField(mesh, dn), eta)) / (2 * eps)
            rel = np.abs(fd - grad).max() / max(np.abs(grad).max(), 1e-300)
            assert rel <= 1e-5

    def test_pure_power_scaling_of_quotient_pieces(self):
        # under u -> t u the three pieces scale as t, t^gamma and t^q
        mesh = build_mesh(8)
        gamma, q = 2.0, 0.5
        spec = scalar_power(q, gamma)
        rng = np.random.default_rng(9)
        u = FEField(mesh, rng.uniform(0.3, 1.2, size=(1, mesh.n_interior)))
        blocks = model.stiffness_blocks(spec, mesh)
        for t in (0.5, 2.0):
            t1 = rayleigh.galerkin_terms(spec, mesh, u, blocks)
            t2 = rayleigh.galerkin_terms(spec, mesh, FEField(mesh, t * u.values), blocks)
            np.testing.assert_allclose(t2.stiff_action, t * t1.stiff_action, rtol=1e-12)
            np.testing.assert_allclose(t2.f_load, t**gamma * t1.f_load, rtol=1e-12)
            np.testing.assert_allclose(t2.g_load, t**q * t1.g_load, rtol=1e-12)


@pytest.mark.parametrize("n_interior", [1, 2, 7])
@pytest.mark.parametrize("name", sorted(STENCIL_CASES))
class TestGradientStencil:
    """The banded gradient and the lazy dense views, bit for bit."""

    def test_dense_views_match_block_assembly(self, name, n_interior):
        spec, mesh, u, terms, parts = stencil_case(name, n_interior)
        m, n = spec.m, n_interior
        xq, _, _, _ = mesh_fem.element_quadrature(mesh)
        tq = mesh_fem.values_at_quadrature(mesh, u.values).reshape(m, -1)
        fj = spec.f_jac(xq.ravel(), tq).reshape((m, m) + xq.shape)
        gt = model.g_t_values(spec, xq.ravel(), tq).reshape((m,) + xq.shape)
        stiff, mass_f, mass_g = (np.zeros((m * n, m * n)) for _ in range(3))
        for k in range(m):
            sl = slice(k * n, (k + 1) * n)
            stiff[sl, sl] = to_dense(terms.blocks[k])
            mass_g[sl, sl] = tridiag_to_dense(*mesh_fem.weighted_mass(mesh, gt[k]))
            for l in range(m):
                mass_f[sl, l * n:(l + 1) * n] = tridiag_to_dense(
                    *mesh_fem.weighted_mass(mesh, fj[k, l]))
        assert np.array_equal(parts.stiffness, stiff)
        for got, expected in zip(dense_parts(parts), (stiff, mass_f, mass_g)):
            assert np.array_equal(got, expected)

    def test_stencil_equals_dense_quotient_rule(self, name, n_interior):
        spec, mesh, u, terms, parts = stencil_case(name, n_interior)
        stencil = rayleigh.quotient_gradients(spec, mesh, u, terms=terms, parts=parts)
        assert stencil.shape == (spec.m * n_interior, 3 * spec.m)
        dense = model.band_to_dense(stencil, spec.m, n_interior)
        assert np.array_equal(dense, dense_gradients(terms, parts))
        # the band holds every nonzero: entries off the mesh are exact zeros
        index, _, _ = model.band_pattern(spec.m, n_interior)
        outside = np.delete(stencil.ravel(), index)
        assert np.count_nonzero(outside) == 0
        # passing the quotients in gives the same stencil
        again = rayleigh.quotient_gradients(spec, mesh, u, terms=terms, parts=parts,
                                            quotients=terms.quotients())
        assert np.array_equal(again, stencil)

    def test_reused_samples_give_identical_bands(self, name, n_interior):
        spec, mesh, u, terms, parts = stencil_case(name, n_interior)
        reused = model.jacobian_parts(spec, mesh, u, blocks=terms.blocks, samples=terms.samples)
        for band in ("stiffness_band", "mass_f_band", "mass_g_band"):
            assert np.array_equal(getattr(reused, band), getattr(parts, band))

    def test_stacked_assembly_matches_each_field(self, name, n_interior):
        spec, mesh, _, _, _ = stencil_case(name, n_interior)
        stack = np.random.default_rng(n_interior + 10).uniform(0.5, 1.5,
                                                               (4, spec.m, n_interior))
        terms = rayleigh.galerkin_terms(spec, mesh, stack)
        parts = model.jacobian_parts(spec, mesh, stack, blocks=terms.blocks,
                                     samples=terms.samples)
        stencils = rayleigh.quotient_gradients(spec, mesh, stack, terms=terms, parts=parts)
        assert stencils.shape == (4, spec.m * n_interior, 3 * spec.m)
        for i, values in enumerate(stack):
            u = FEField(mesh, values)
            alone = model.jacobian_parts(spec, mesh, u)
            for band in ("stiffness_band", "mass_f_band", "mass_g_band"):
                assert np.array_equal(getattr(parts, band)[i], getattr(alone, band))
            assert np.array_equal(stencils[i], rayleigh.quotient_gradients(spec, mesh, u))
        # fields taken apart and joined again give the same terms and stencils
        joined = rayleigh.GalerkinTerms.stack([terms[i] for i in range(len(stack))])
        for a, b in zip(joined.samples[:2], terms.samples[:2]):
            assert np.array_equal(a, b)
        assert joined.samples[2] == terms.samples[2]
        assert np.array_equal(rayleigh.quotient_gradients(spec, mesh, stack, terms=joined),
                              stencils)

    def test_stack_checks_every_field(self, name, n_interior):
        spec, mesh, u, _, _ = stencil_case(name, n_interior)
        below = u.values.copy()
        # positive, but under the relative floor; a lone coefficient is its own sup norm
        below[-1, -1] = 1e-14 * below.max() if below.size > 1 else 0.0
        with pytest.raises(model.ConeError):
            rayleigh.quotient_gradients(spec, mesh, np.stack([u.values, below]))
        # each field is held to its own floor: a tiny field is in the cone, but
        # its pairings <g(u), eta_i> vanish
        with pytest.raises(DenominatorError):
            rayleigh.quotient_gradients(spec, mesh, np.stack([u.values, 1e-30 * u.values]))

    def test_sparse_matrices_match_dense(self, name, n_interior):
        spec, mesh, u, terms, parts = stencil_case(name, n_interior)
        m, n = spec.m, n_interior
        stiffness, mass_f, mass_g = dense_parts(parts)
        dense = stiffness - mass_f - 1.7 * mass_g
        band = parts.jacobian_band(1.7)
        assert np.array_equal(model.band_to_dense(band, m, n), dense)
        assert np.array_equal(model.eval_jacobian(spec, mesh, u, 1.7), dense)
        general = minimax_solver._general_band(band, m, n)
        assert np.array_equal(general_band_to_dense(general, 2 * m - 1),
                              node_major(dense, m, n))
        rng = np.random.default_rng(0)
        col, row = rng.standard_normal((2, m * n))
        with pytest.raises(ValueError):
            minimax_solver._BorderedLU(np.stack([band, band]), m, n, col, row)
        assert_bordered_solves(minimax_solver._BorderedLU(band, m, n, col, row, 0.5),
                               bordered_dense(dense, col, row, 0.5), rng)

    def test_stacked_jacobian_band_borders_each_lambda_alone(self, name, n_interior):
        spec, mesh, u, terms, parts = stencil_case(name, n_interior)
        m, n = spec.m, n_interior
        stiffness, mass_f, mass_g = dense_parts(parts)
        lams = np.array([0.3, 1.7, 4.0])
        bands = parts.jacobian_band(lams[:, None, None])
        assert bands.shape == (3, m * n, 3 * m)
        rng = np.random.default_rng(1)
        cols, rows = rng.standard_normal((2, 3, m * n))
        for lam, band, col, row in zip(lams, bands, cols, rows):
            assert np.array_equal(band, parts.jacobian_band(lam))
            dense = stiffness - mass_f - lam * mass_g
            general = minimax_solver._general_band(band, m, n)
            assert np.array_equal(general_band_to_dense(general, 2 * m - 1),
                                  node_major(dense, m, n))
            assert_bordered_solves(minimax_solver._BorderedLU(band, m, n, col, row, 0.5),
                                   bordered_dense(dense, col, row, 0.5), rng)

