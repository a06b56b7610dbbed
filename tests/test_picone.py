import dataclasses

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from minimax_fold import model
from minimax_fold.mesh_fem import assemble_stiffness, build_mesh
from minimax_fold.minimax_solver import SolverOptions, maximize
from minimax_fold.model import FEField, linear_diagnostic, scalar_power
from tests.references import discrete_picone_gap, ps_energy_diagnostic


def random_stiffness(rng, n_max=50):
    n = int(rng.integers(2, n_max))
    mesh = build_mesh(n + 1)
    sigma = float(rng.uniform(0.5, 3.0))
    c = float(rng.uniform(0.0, 5.0))
    return assemble_stiffness(mesh, sigma, c)


class TestDiscretePiconeGap:
    def test_equality_at_u_equals_v(self):
        a = np.array([[2.0, -1.0], [-1.0, 2.0]])
        result = discrete_picone_gap(a, np.ones(2), np.ones(2))
        assert result.gap == pytest.approx(0.0, abs=1e-15)

    def test_two_by_two_arithmetic(self):
        a = np.array([[2.0, -1.0], [-1.0, 2.0]])
        result = discrete_picone_gap(a, np.array([1.0, 0.0]), np.ones(2))
        assert result.gap == pytest.approx(1.0)
        assert result.decomposition_sum == pytest.approx(1.0)

    def test_rejects_bad_inputs(self):
        asym = np.array([[2.0, -1.0], [0.5, 2.0]])
        with pytest.raises(ValueError, match="symmetric"):
            discrete_picone_gap(asym, np.ones(2), np.ones(2))
        pos_off = np.array([[2.0, 0.5], [0.5, 2.0]])
        with pytest.raises(ValueError, match="off-diagonal"):
            discrete_picone_gap(pos_off, np.ones(2), np.ones(2))
        good = np.array([[2.0, -1.0], [-1.0, 2.0]])
        with pytest.raises(ValueError, match="positive"):
            discrete_picone_gap(good, np.ones(2), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="nonnegative"):
            discrete_picone_gap(good, np.array([-1.0, 1.0]), np.ones(2))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_randomized_nonnegativity_and_identity(self, seed):
        rng = np.random.default_rng(seed)
        a = random_stiffness(rng)
        n = a.n
        u = rng.uniform(0.0, 2.0, n)
        v = rng.uniform(0.05, 2.0, n)
        result = discrete_picone_gap(a, u, v)
        assert result.gap >= -1e-12 * max(result.scale, 1.0)
        ref = max(abs(result.gap), abs(result.decomposition_sum), 1e-30)
        assert abs(result.gap - result.decomposition_sum) <= 1e-10 * max(ref, result.scale)

    @given(st.integers(0, 2**32 - 1), st.floats(0.01, 100.0))
    @settings(max_examples=40)
    def test_equality_on_rays_and_homogeneity(self, seed, t):
        rng = np.random.default_rng(seed)
        a = random_stiffness(rng, n_max=20)
        v = rng.uniform(0.1, 1.5, a.n)
        on_ray = discrete_picone_gap(a, t * v, v)
        assert abs(on_ray.gap) <= 1e-12 * max(on_ray.scale, 1.0)
        u = rng.uniform(0.0, 2.0, a.n)
        g1 = discrete_picone_gap(a, u, v).gap
        g2 = discrete_picone_gap(a, t * u, v).gap
        assert abs(g2 - t**2 * g1) <= 1e-12 * max(abs(g2), abs(t**2 * g1), 1.0)


@pytest.fixture(scope="module")
def cert():
    return maximize(scalar_power(0.5, 2.0), build_mesh(24),
                    options=SolverOptions(n_starts=3))


class TestPSEnergyDiagnostic:
    def test_solver_pair_satisfies_inequality(self, cert):
        spec = scalar_power(0.5, 2.0)
        report = ps_energy_diagnostic(spec, build_mesh(24), cert)
        assert report.applicable and report.consistent
        assert report.energy_margin > 0.0
        assert report.nondeg_margin > 0.0

    def test_reads_the_band_not_the_dense_mass(self, cert, monkeypatch):
        spec, mesh = scalar_power(0.5, 2.0), build_mesh(24)

        def dense(self):
            raise AssertionError("dense Jacobian view in the energy diagnostic")

        monkeypatch.setattr(model.JacobianParts, "stiffness", property(dense))
        report = ps_energy_diagnostic(spec, mesh, cert)
        monkeypatch.undo()
        # dense reference: v^T M_f v - chi <f(u), v^2 / u> at the unit-energy v
        u = cert.u_star.values
        v = cert.v_star.values / np.sqrt(float(
            cert.v_star.values[0] @ model.stiffness_blocks(spec, mesh)[0].matvec(
                cert.v_star.values[0])))
        mass_f = model.band_to_dense(model.jacobian_parts(spec, mesh, cert.u_star).mass_f_band,
                                     1, mesh.n_interior)
        fu_vv = float(v.ravel() @ mass_f @ v.ravel())
        f_load, _ = model.eval_residual_terms(spec, mesh, cert.u_star)
        expected = fu_vv - report.chi * float((v**2 / u * f_load).sum())
        assert abs(report.nondeg_rhs - expected) <= 1e-12 * abs(expected)

    def test_certificate_fields_pass_picone(self, cert):
        spec = scalar_power(0.5, 2.0)
        mesh = build_mesh(24)
        blocks = model.stiffness_blocks(spec, mesh)
        total = sum(discrete_picone_gap(blk, u, v).gap
                    for blk, u, v in zip(blocks, cert.u_star.values, cert.v_star.values))
        assert total >= -1e-12

    def test_linear_diagnostic_not_applicable(self):
        mesh = build_mesh(8)
        cert = maximize(linear_diagnostic(), mesh, options=SolverOptions(n_starts=2))
        report = ps_energy_diagnostic(linear_diagnostic(), mesh, cert)
        assert not report.applicable

    def test_scaled_nonsolution_flagged(self, cert):
        spec = scalar_power(0.5, 2.0)
        inflated = dataclasses.replace(cert, u_star=FEField(cert.u_star.mesh, 10.0 * cert.u_star.values))
        report = ps_energy_diagnostic(spec, build_mesh(24), inflated)
        assert report.energy_margin < 0.0
        assert not report.consistent
