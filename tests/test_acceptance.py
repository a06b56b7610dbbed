"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; budgets are wall-clock and generous on commodity hardware.
"""

import time

import numpy as np
import scipy.linalg

from minimax_fold import harness, model, rayleigh
from minimax_fold.harness import RunConfig
from minimax_fold.mesh_fem import assemble_stiffness, build_mesh
from minimax_fold.minimax_solver import (
    SolverOptions,
    continuation_sweep,
    maximize,
    newton_multistart,
)
from minimax_fold.model import FEField, cooperative_product, linear_diagnostic, scalar_power
from minimax_fold.perturbation import two_sided_example
from minimax_fold.verification import verify_certificate
from tests.references import (
    condition_u_check,
    discrete_picone_gap,
    ps_energy_diagnostic,
    rayleigh_quotient,
    to_dense,
)
from tests.test_rayleigh import closed_form_eigenvalue, mass_matrix

_CERT_CACHE = {}


def solved_certificate(key):
    if key not in _CERT_CACHE:
        spec, n = {
            "sp64": (scalar_power(0.5, 2.0), 64),
            "cp64": (cooperative_product(m=2), 64),
            "sp64_q3g3": (scalar_power(0.3, 3.0), 64),
            "sp128": (scalar_power(0.5, 2.0), 128),
        }[key]
        _CERT_CACHE[key] = maximize(spec, build_mesh(n), options=SolverOptions())
    return _CERT_CACHE[key]


def report(num, name, ok):
    print(f"\n[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} - {name}")
    assert ok, f"acceptance criterion {num} failed: {name}"


def test_criterion_01_linear_collatz_wielandt():
    start = time.perf_counter()
    ok = True
    for n in (4, 16, 64):
        mesh = build_mesh(n)
        cert = maximize(linear_diagnostic(), mesh, options=SolverOptions())
        a = to_dense(assemble_stiffness(mesh, 1.0, 0.0))
        eig = float(scipy.linalg.eigh(a, mass_matrix(mesh), eigvals_only=True,
                                      subset_by_index=(0, 0))[0])
        ok &= abs(cert.lambda_star - eig) <= 1e-8 * eig
        ok &= abs(eig - closed_form_eigenvalue(n)) <= 1e-10 * eig
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    report(1, f"linear Collatz-Wielandt equivalence ({elapsed:.2f}s)", ok)


def test_criterion_02_certificate_validity():
    ok = True
    for key, spec in (("sp64", scalar_power(0.5, 2.0)),
                      ("cp64", cooperative_product(m=2))):
        start = time.perf_counter()
        cert = solved_certificate(key)
        elapsed = time.perf_counter() - start
        audit = verify_certificate(spec, build_mesh(64), cert)
        ok &= cert.valid and audit.valid
        ok &= cert.lambda_star > 0.0
        for value in (audit.primal_residual, audit.adjoint_residual,
                      audit.stationarity_residual, audit.complementarity_residual):
            ok &= value < 1e-8
        ok &= audit.sigma_min < 1e-6 * audit.jac_norm
        ok &= elapsed < 60.0
    report(2, "VALID certificates for both model problems", ok)


def test_criterion_03_fold_oracle_agreement():
    start = time.perf_counter()
    gaps = {}
    ok = True
    for key in ("sp64", "sp64_q3g3"):
        cert = solved_certificate(key)
        spec = scalar_power(0.5, 2.0) if key == "sp64" else scalar_power(0.3, 3.0)
        sweep = continuation_sweep(spec, build_mesh(64),
                                   lambda_max_guess=cert.lambda_star)
        ok &= sweep.fold_lambda is not None
        if sweep.fold_lambda is not None:
            gaps[key] = abs(cert.lambda_star - sweep.fold_lambda) / sweep.fold_lambda
            ok &= gaps[key] <= 0.02
    cert128 = solved_certificate("sp128")
    # the n=128 gap is only meaningful at a certified maximizer
    ok &= cert128.valid
    ok &= verify_certificate(scalar_power(0.5, 2.0), build_mesh(128), cert128).valid
    sweep128 = continuation_sweep(scalar_power(0.5, 2.0), build_mesh(128),
                                  lambda_max_guess=cert128.lambda_star)
    ok &= sweep128.fold_lambda is not None
    gap128 = abs(cert128.lambda_star - sweep128.fold_lambda) / sweep128.fold_lambda
    # both methods locate the same discrete fold, so the gaps sit at solver
    # tolerance; "shrinks under refinement" is asserted up to that noise floor
    ok &= gap128 <= max(gaps["sp64"], 1e-6)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 180.0
    report(3, f"fold-oracle agreement, gaps {gaps['sp64']:.2e}/{gaps['sp64_q3g3']:.2e} "
              f"-> {gap128:.2e} at n=128 ({elapsed:.1f}s)", ok)


def test_criterion_04_no_solutions_above_fold():
    spec = scalar_power(0.5, 2.0)
    mesh = build_mesh(64)
    lam_star = solved_certificate("sp64").lambda_star
    start = time.perf_counter()
    ok = True
    for frac in np.linspace(1.05, 2.0, 10):
        result = newton_multistart(spec, mesh, frac * lam_star, n_starts=20)
        ok &= not result.converged
    for frac in np.linspace(0.05, 0.95, 10):
        result = newton_multistart(spec, mesh, frac * lam_star, n_starts=20)
        ok &= result.converged and result.u.interior
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    report(4, f"nonexistence above lambda*, existence below ({elapsed:.1f}s)", ok)


def test_criterion_05_discrete_picone_suite():
    rng = np.random.default_rng(20240501)
    ok = True
    for trial in range(1000):
        n = int(rng.integers(2, 40))
        mesh = build_mesh(n + 1)
        a = assemble_stiffness(mesh, float(rng.uniform(0.5, 3.0)),
                               float(rng.uniform(0.0, 5.0)))
        u = rng.uniform(0.0, 2.0, a.n)
        v = rng.uniform(0.05, 2.0, a.n)
        result = discrete_picone_gap(a, u, v)
        scale = max(result.scale, 1.0)
        ok &= result.gap >= -1e-12 * scale
        ref = max(abs(result.gap), abs(result.decomposition_sum), scale * 1e-16)
        ok &= abs(result.gap - result.decomposition_sum) <= 1e-10 * ref
        if trial % 5 == 0:
            c = float(rng.uniform(0.1, 10.0))
            equality = discrete_picone_gap(a, c * v, v)
            ok &= abs(equality.gap) <= 1e-12 * max(equality.scale, 1.0)
    report(5, "discrete Picone property suite (1000 trials)", ok)


def test_criterion_06_energy_inequality_at_certificates():
    ok = True
    for key, spec in (("sp64", scalar_power(0.5, 2.0)),
                      ("cp64", cooperative_product(m=2))):
        cert = solved_certificate(key)
        diag = ps_energy_diagnostic(spec, build_mesh(64), cert)
        ok &= diag.applicable and diag.consistent and diag.energy_margin >= 0.0
    report(6, "superlinearity energy inequality at certificates", ok)


def test_criterion_07_interpolation_and_condition_u_rates():
    spec = scalar_power(0.5, 2.0)
    report_u = condition_u_check(spec, (8, 16, 32, 64, 128))
    slope = report_u.slope("unit_source_profile")
    ok = slope is not None and slope >= 1.4
    rows = sorted(report_u.rows, key=lambda r: r.n)
    for coarse, fine in zip(rows, rows[1:]):
        ok &= fine.r_sup_diff <= coarse.r_sup_diff * 1.1
        ok &= fine.rel_interp_error <= coarse.rel_interp_error * 1.05
    report(7, f"interpolation rate {slope:.3f} >= 1.4 and monotone quotient decay", ok)


def test_criterion_08_perturbation_sandwich():
    mesh = build_mesh(64)
    reports = two_sided_example(0.5, 2.0, 3.0, (0.1, 0.01, 0.001), mesh)
    rep = reports[0]
    shift_down = rep.lambda_base - rep.lambda_pert
    ok = rep.bounds_hold
    ok &= -1e-8 <= shift_down <= rep.kappa_norm * rep.u_star_sup**2.5 + 1e-8
    shifts = [r.lambda_base - r.lambda_pert for r in reports]
    ok &= shifts[0] > shifts[1] > shifts[2] >= -1e-10
    report(8, f"perturbation sandwich, shifts {['%.2e' % s for s in shifts]}", ok)


def test_criterion_09_gradient_correctness():
    rng = np.random.default_rng(17)
    mesh = build_mesh(16)
    spec = scalar_power(0.5, 2.0)
    n = mesh.n_interior
    ok = True
    for _ in range(20):
        u = FEField(mesh, rng.uniform(0.4, 1.6, size=(1, n)))
        i = int(rng.integers(0, n))
        grad = model.band_to_dense(rayleigh.quotient_gradients(spec, mesh, u), 1, n)[i]
        eta = FEField(mesh, np.eye(n)[i][None, :])
        eps = 1e-5
        fd = np.zeros(n)
        for j in range(n):
            up, dn = u.values.copy(), u.values.copy()
            up[0, j] += eps
            dn[0, j] -= eps
            fd[j] = (rayleigh_quotient(spec, mesh, FEField(mesh, up), eta)
                     - rayleigh_quotient(spec, mesh, FEField(mesh, dn), eta)) / (2 * eps)
        ok &= np.abs(fd - grad).max() / max(np.abs(grad).max(), 1e-300) <= 1e-5
    report(9, "analytic quotient gradients match central differences", ok)


def test_criterion_10_determinism(tmp_path):
    def config(out):
        return RunConfig(problem_name="scalar_power",
                         problem_params={"q": 0.5, "gamma": 2.0},
                         study="solve", mesh_sizes=(16,),
                         solver=SolverOptions(n_starts=4, seed=123),
                         out_dir=str(out))

    assert harness.run(config(tmp_path / "a")) == 0
    assert harness.run(config(tmp_path / "b")) == 0
    ok = True
    for name in ("certificate.json", "table.csv"):
        ok &= (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    report(10, "byte-identical certificate.json and table.csv under fixed seed", ok)
