import dataclasses

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from minimax_fold import mesh_fem
from minimax_fold.mesh_fem import OperatorMatrix, assemble_stiffness, build_mesh
from minimax_fold.minimax_solver import torsion_start
from minimax_fold.model import ConeError, FEField, eval_residual_terms, scalar_power
from tests.references import (
    distance_to_boundary,
    exact_unit_source_profile,
    nodal_interpolate,
    relative_interp_error,
    to_dense,
    triplets_to_dense,
)


def sin_load_exact(mesh):
    """Closed-form <sin(pi x), psi_i> from the antiderivatives of sin and x sin."""

    def antider_sin(x):
        return -np.cos(np.pi * x) / np.pi

    def antider_xsin(x):
        return np.sin(np.pi * x) / np.pi**2 - x * np.cos(np.pi * x) / np.pi

    nodes = mesh.nodes
    out = np.zeros(mesh.n_interior)
    for i in range(1, nodes.size - 1):
        xl, xm, xr = nodes[i - 1], nodes[i], nodes[i + 1]
        hl, hr = xm - xl, xr - xm
        # rising piece (x - xl)/hl on [xl, xm]
        rise = (antider_xsin(xm) - antider_xsin(xl) - xl * (antider_sin(xm) - antider_sin(xl))) / hl
        # falling piece (xr - x)/hr on [xm, xr]
        fall = (xr * (antider_sin(xr) - antider_sin(xm)) - (antider_xsin(xr) - antider_xsin(xm))) / hr
        out[i - 1] = rise + fall
    return out


class TestBuildMesh:
    def test_uniform_four_elements(self):
        mesh = build_mesh(4)
        np.testing.assert_allclose(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert mesh.h_max == 0.25
        assert mesh.quasi_uniformity == 1.0

    def test_two_elements_single_interior_node(self):
        mesh = build_mesh(2)
        np.testing.assert_allclose(mesh.nodes, [0.0, 0.5, 1.0])
        assert mesh.n_interior == 1

    def test_geometric_ratio_recomputed_from_nodes(self):
        mesh = build_mesh(8, grading="geometric", ratio=1.2)
        h = np.diff(mesh.nodes)
        assert abs(mesh.quasi_uniformity - h.max() / h.min()) < 1e-12
        assert abs(mesh.quasi_uniformity - 1.2**7) < 1e-9
        assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0

    def test_rejects_small_meshes_and_bad_ratio(self):
        with pytest.raises(ValueError):
            build_mesh(1)
        with pytest.raises(ValueError):
            build_mesh(8, grading="geometric", ratio=2.5)
        with pytest.raises(ValueError):
            build_mesh(8, grading="weird")

    def test_distance_to_boundary(self):
        x = np.array([0.0, 0.25, 0.5, 0.9])
        np.testing.assert_allclose(distance_to_boundary(x), [0.0, 0.25, 0.5, 0.1])


class TestAssembleStiffness:
    def test_laplacian_closed_form(self):
        a = assemble_stiffness(build_mesh(4), 1.0, 0.0)
        np.testing.assert_allclose(a.diag, 8.0, rtol=1e-14)
        np.testing.assert_allclose(a.off, -4.0, rtol=1e-14)

    def test_single_unknown(self):
        a = assemble_stiffness(build_mesh(2), 1.0, 0.0)
        np.testing.assert_allclose(a.diag, [4.0], rtol=1e-14)

    def test_mass_term_closed_form(self):
        # mass matrix oracle: (h/6) * tridiag(1, 4, 1)
        h = 0.25
        a = assemble_stiffness(build_mesh(4), 1.0, 1.0)
        np.testing.assert_allclose(a.diag, 8.0 + 4 * h / 6, rtol=1e-12)
        np.testing.assert_allclose(a.off, -4.0 + h / 6, rtol=1e-12)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            assemble_stiffness(build_mesh(4), lambda x: x - 0.5, 0.0)

    def test_indefinite_operator_assembles(self):
        # c = -50 leaves the stiffness indefinite; assembly does not reject it
        a = assemble_stiffness(build_mesh(8), 1.0, -50.0)
        assert np.linalg.eigvalsh(to_dense(a))[0] <= 0.0

    def test_symmetry_to_tolerance(self):
        a = assemble_stiffness(build_mesh(13), lambda x: 1.0 + x, lambda x: 0.3 * x)
        dense = to_dense(a)
        assert np.abs(dense - dense.T).max() <= 1e-13 * np.abs(dense).max()

    def test_entries_match_loop_assembled_oracle(self):
        # independent scalar-loop assembly of a(psi_j, psi_i)
        from minimax_fold.model import scalar_power
        from minimax_fold.verification import oracle_assembly

        mesh = build_mesh(9, grading="geometric", ratio=1.15)
        sigma = lambda x: 1.0 + 0.5 * x
        c = lambda x: 0.2 + x**2
        import dataclasses

        spec = dataclasses.replace(scalar_power(0.5, 2.0), sigma=(sigma,), c=(c,))
        a = assemble_stiffness(mesh, sigma, c)
        ones = FEField(mesh, np.ones((1, mesh.n_interior)))
        dense = triplets_to_dense(oracle_assembly(spec, mesh, ones).stiff)
        assert np.abs(to_dense(a) - dense).max() <= 1e-13 * np.abs(dense).max()


def load_at_quadrature(mesh, w):
    """<w, psi_i> from samples of w at the mesh's Gauss points."""
    xq, _, _, _ = mesh_fem.element_quadrature(mesh)
    return mesh_fem.quadrature_loads(mesh, np.broadcast_to(w(xq), xq.shape))


class TestQuadratureLoads:
    def test_constant_load_is_h(self):
        load = load_at_quadrature(build_mesh(4), lambda x: 1.0)
        np.testing.assert_allclose(load, 0.25, rtol=1e-14)

    def test_zero_load(self):
        np.testing.assert_allclose(load_at_quadrature(build_mesh(4), lambda x: 0.0), 0.0)

    def test_sine_load_vs_closed_form(self):
        mesh = build_mesh(64)
        load = load_at_quadrature(mesh, lambda x: np.sin(np.pi * x))
        np.testing.assert_allclose(load, sin_load_exact(mesh), atol=1e-6)

    def test_rejects_nonfinite_sample(self):
        # the reaction loads are assembled only from finite samples
        mesh = build_mesh(4)
        base = scalar_power(0.5, 2.0)
        spec = dataclasses.replace(
            base, f=lambda x, t: np.where(x < 0.5, np.nan, base.f(x, t)))
        with pytest.raises(ValueError, match="reaction sample is not finite"):
            eval_residual_terms(spec, mesh, FEField(mesh, np.ones((1, mesh.n_interior))))


class TestMMatrix:
    """The sign pattern and A omega = 1-bar > 0 of the discrete maximum principle."""

    def test_laplacian_torsion_profile(self):
        # A omega = 1-bar reproduces x(1-x)/(2h) exactly at the nodes of a
        # uniform mesh (nodally exact Galerkin solution of -u'' = 1/h)
        mesh = build_mesh(4)
        omega = assemble_stiffness(mesh, 1.0, 0.0).solve(np.ones(mesh.n_interior))
        x = mesh.interior_nodes
        np.testing.assert_allclose(omega, x * (1 - x) / (2 * 0.25), rtol=1e-12)

    def test_identity_matrix(self):
        mesh = build_mesh(6)
        ident = OperatorMatrix(diag=np.ones(5), off=np.zeros(4))
        omega = torsion_start(scalar_power(0.5, 2.0), mesh, (ident,))
        assert np.array_equal(omega.values, np.ones((1, 5)))

    def test_positive_offdiagonal_fails(self):
        # A omega = 1-bar has omega = (-1/2, 3/4, -1/2): the torsion start
        # leaves the open cone
        bad = OperatorMatrix(diag=np.array([1.0, 4.0, 1.0]), off=np.full(2, 2.0))
        np.testing.assert_allclose(bad.solve(np.ones(3)), [-0.5, 0.75, -0.5], rtol=1e-14)
        with pytest.raises(ConeError, match="M-structured"):
            torsion_start(scalar_power(0.5, 2.0), build_mesh(4), (bad,))

    def test_singular_matrix_raises(self):
        singular = OperatorMatrix(diag=np.zeros(1), off=np.zeros(0))
        with pytest.raises(np.linalg.LinAlgError):
            singular.solve(np.ones(1))

    @given(
        n=st.integers(min_value=2, max_value=40),
        s0=st.floats(min_value=0.5, max_value=3.0),
        s1=st.floats(min_value=-0.4, max_value=0.4),
        c0=st.floats(min_value=0.0, max_value=10.0),
        ratio=st.floats(min_value=0.8, max_value=1.25),
    )
    def test_assembled_stiffness_is_m_matrix(self, n, s0, s1, c0, ratio):
        # c is kept moderate relative to h so the sign condition
        # c h^2 / 6 < sigma of the discrete maximum principle holds
        mesh = build_mesh(n, grading="geometric", ratio=ratio)
        a = assemble_stiffness(mesh, lambda x: s0 + s1 * x, c0)
        assert np.all(a.diag > 0.0)
        assert a.n == 1 or np.all(a.off <= 1e-14 * max(1.0, np.abs(a.diag).max()))
        assert np.all(a.solve(np.ones(a.n)) > 0.0)
        dense = to_dense(a)
        assert np.abs(dense - dense.T).max() <= 1e-13 * np.abs(dense).max()


class TestNodalInterpolate:
    def test_parabola(self):
        vals = nodal_interpolate(build_mesh(4), lambda x: x * (1 - x))
        np.testing.assert_allclose(vals, [0.1875, 0.25, 0.1875])

    def test_zero_function(self):
        np.testing.assert_allclose(nodal_interpolate(build_mesh(4), lambda x: 0.0 * x), 0.0)

    def test_sine(self):
        vals = nodal_interpolate(build_mesh(4), lambda x: np.sin(np.pi * x))
        np.testing.assert_allclose(vals, [np.sin(np.pi / 4), 1.0, np.sin(3 * np.pi / 4)])

    def test_projection_property(self):
        # interpolating a P1 function reproduces its own coefficients
        mesh = build_mesh(7)
        coeffs = np.abs(np.sin(3.0 * mesh.interior_nodes)) + 0.1
        vals = nodal_interpolate(mesh, lambda x: mesh_fem.interpolant_values(mesh, coeffs, x))
        np.testing.assert_allclose(vals, coeffs, rtol=1e-15)


class TestRelativeInterpError:
    def test_parabola_positive_and_bounded(self):
        err = relative_interp_error(build_mesh(4), lambda x: x * (1 - x), 0.5)
        assert 0.0 < err <= 1.0

    def test_piecewise_linear_is_reproduced(self):
        mesh = build_mesh(4)
        coeffs = np.array([0.2, 0.5, 0.1])
        err = relative_interp_error(
            mesh, lambda x: mesh_fem.interpolant_values(mesh, coeffs, x), 0.5)
        assert err < 1e-14

    def test_rejects_nonpositive_probe(self):
        with pytest.raises(ValueError, match="positive"):
            relative_interp_error(build_mesh(4), lambda x: x * (1 - x) * (x - 0.5), 0.5)

    def test_monotone_decrease_under_refinement(self):
        errs = [relative_interp_error(build_mesh(n), lambda x: np.sin(np.pi * x), 0.5)
                for n in (8, 16, 32, 64)]
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= coarse * 1.05

    def test_boundary_singular_profile_rate(self):
        # -u'' proportional to d(x)^q gives relative error of order h^(1+q)
        q = 0.5
        w, _ = exact_unit_source_profile(q)
        sizes = np.array([8, 16, 32, 64, 128])
        errs = np.array([relative_interp_error(build_mesh(int(n)), w, q) for n in sizes])
        slope = np.polyfit(np.log(1.0 / sizes), np.log(errs), 1)[0]
        assert slope >= 1.4
