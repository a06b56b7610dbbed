"""The kernel wrappers give the bits of the public scipy functions they replace.

Each wrapper in ``_kernels`` makes the call its scipy function makes, and
the node-major bands of J^T J and (J + J^T) / 2 are filled in the order of
scipy's sparse expressions, so every comparison here is exact, except
where scipy takes another LAPACK routine or no scipy function makes the call.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from minimax_fold import _kernels, minimax_solver, model
from minimax_fold.mesh_fem import OperatorMatrix, build_mesh
from tests.test_rayleigh import (
    assert_bordered_solves,
    bordered_dense,
    general_band_to_dense,
    node_major,
)

N_INTERIOR = [1, 2, 7, 64]
SIZES = [(m, n) for m in (1, 2, 3) for n in N_INTERIOR]


def tridiagonal_ab(lower, diag, upper):
    ab = np.zeros((3, diag.size))
    ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower
    return ab


def old_node_major_band(sym, m, n, width):
    """The upper band the solver built from a sparse symmetric matrix before
    it filled the band directly."""
    big = m * n
    coo = sym.tocoo()
    rows, cols = (coo.row % n) * m + coo.row // n, (coo.col % n) * m + coo.col // n
    width = min(width, big - 1)
    upper = rows <= cols
    band = np.zeros((width + 1, big))
    band[width + rows[upper] - cols[upper], cols[upper]] = coo.data[upper]
    return band


@pytest.mark.parametrize("n", N_INTERIOR)
def test_tridiagonal_solve_matches_solve_banded(n):
    rng = np.random.default_rng(n)
    lower, upper = rng.standard_normal((2, n - 1))
    diag = rng.uniform(2.0, 4.0, n)
    operator = OperatorMatrix(diag, upper)
    for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        assert np.array_equal(operator.solve(b), scipy.linalg.solve_banded(
            (1, 1), tridiagonal_ab(upper, diag, upper), b))
        if n > 1:
            assert np.array_equal(_kernels.solve_tridiagonal(lower, diag, upper, b),
                                  scipy.linalg.solve_banded(
                                      (1, 1), tridiagonal_ab(lower, diag, upper), b))


@pytest.mark.parametrize("n", N_INTERIOR)
def test_tridiagonal_eigenvalue_matches_eigh_tridiagonal(n):
    # the symmetric tridiagonal matrix as the upper band of width 1 (the
    # diagonal alone when n = 1)
    rng = np.random.default_rng(n)
    diag, off = rng.standard_normal(n), rng.standard_normal(n - 1)
    band = np.stack([np.concatenate([[0.0], off]), diag])[-min(n, 2):]
    for index in {0, n // 2, n - 1}:
        # dsbevx bisects a width-1 band to the absolute tolerance 2 * dlamch("s")
        ref = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                            select_range=(index, index),
                                            tol=2 * np.finfo(float).tiny)[0]
        assert _kernels.banded_eigenvalue(band, index) == ref


@pytest.mark.parametrize("m, n", SIZES)
def test_banded_eigenvalue_matches_eig_banded(m, n):
    big = m * n
    band = np.random.default_rng(big).standard_normal((min(2 * m, big), big))
    for index in {0, big // 2, big - 1}:
        assert _kernels.banded_eigenvalue(band, index) == scipy.linalg.eig_banded(
            band, eigvals_only=True, select="i", select_range=(index, index))[0]


@pytest.mark.parametrize("m, n", SIZES)
def test_band_builders_match_the_sparse_expressions(m, n):
    jac = np.random.default_rng(m * n).standard_normal((m * n, 3 * m))
    sparse = scipy.sparse.csc_array(model.band_to_dense(jac, m, n))
    assert np.array_equal(minimax_solver._gram_band(jac, m, n),
                          old_node_major_band(sparse.T @ sparse, m, n, 2 * (2 * m - 1)))
    assert np.array_equal(minimax_solver._symmetric_band(jac, m, n),
                          old_node_major_band(0.5 * (sparse + sparse.T), m, n, 2 * m - 1))


@pytest.mark.parametrize("m, n", SIZES)
def test_band_lu_matches_solve_banded(m, n):
    rng = np.random.default_rng(m * n)
    jac = rng.standard_normal((m * n, 3 * m))
    width = 2 * m - 1
    band = minimax_solver._general_band(jac, m, n)
    factors = _kernels.band_lu(band, width)
    dense = general_band_to_dense(band, width)
    for b in (rng.standard_normal(m * n), rng.standard_normal((m * n, 2))):
        x = _kernels.band_lu_solve(factors, b)
        if m == 1:  # solve_banded takes dgtsv for one sub- and superdiagonal
            np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=0, atol=1e-12)
        else:
            assert np.array_equal(x, scipy.linalg.solve_banded((width, width), band[width:], b))
        np.testing.assert_allclose(_kernels.band_lu_solve(factors, b, trans=1),
                                   np.linalg.solve(dense.T, b), rtol=0, atol=1e-12)
    x = rng.standard_normal(m * n)
    for trans, matrix in ((0, dense), (1, dense.T)):
        np.testing.assert_allclose(minimax_solver._band_product(band, width, x, trans),
                                   matrix @ x, rtol=0, atol=1e-13)


@pytest.mark.parametrize("m, n", SIZES)
def test_general_band_is_the_dense_matrix_node_major(m, n):
    jac = np.random.default_rng(m * n).standard_normal((m * n, 3 * m))
    band = minimax_solver._general_band(jac, m, n)
    assert band.shape == (3 * (2 * m - 1) + 1, m * n) and band.flags.f_contiguous
    assert np.array_equal(general_band_to_dense(band, 2 * m - 1),
                          node_major(model.band_to_dense(jac, m, n), m, n))
    # the layout is built once per (m, n); each call only gathers the values
    assert minimax_solver._general_layout(m, n) is minimax_solver._general_layout(m, n)
    assert np.array_equal(minimax_solver._general_band(2.0 * jac, m, n), 2.0 * band)


@pytest.mark.parametrize("m, n", SIZES)
def test_bordered_solve_matches_a_dense_solve(m, n):
    rng = np.random.default_rng(m * n)
    jac, (col, row) = rng.standard_normal((m * n, 3 * m)), rng.standard_normal((2, m * n))
    for corner in (0.0, 0.5):
        assert_bordered_solves(minimax_solver._BorderedLU(jac, m, n, col, row, corner),
                               bordered_dense(model.band_to_dense(jac, m, n), col, row, corner),
                               rng)


@pytest.mark.parametrize("a", [1.0, [1.0, 2.0]], ids=["m1", "m2"])
@pytest.mark.parametrize("n", [64, 256])
def test_bordered_solve_where_j_is_singular_to_roundoff(a, n):
    # J = K - lam_1 M at the computed smallest eigenvalue of K v = lam M v
    spec = model.linear_diagnostic(1 if a == 1.0 else 2, a=a)
    mesh = build_mesh(n)
    m, big = spec.m, spec.m * mesh.n_interior
    parts = model.jacobian_parts(spec, mesh, np.ones((m, mesh.n_interior)))
    stiffness, mass = (model.band_to_dense(b, m, mesh.n_interior)
                       for b in (parts.stiffness_band, parts.mass_g_band))
    lam = scipy.linalg.eigh(stiffness, mass, eigvals_only=True, subset_by_index=(0, 0))[0]
    jac = parts.jacobian_band(lam)
    dense = model.band_to_dense(jac, m, mesh.n_interior)
    assert np.linalg.svd(dense, compute_uv=False)[-1] <= 1e-12 * np.abs(dense).max()
    ones = np.full(big, 1.0 / np.sqrt(big))
    rng = np.random.default_rng(n)
    for corner in (0.0, 0.5):
        lu = minimax_solver._BorderedLU(jac, m, mesh.n_interior, ones, ones, corner)
        assert_bordered_solves(lu, bordered_dense(dense, ones, ones, corner), rng)


def test_non_finite_input_raises_value_error():
    ok, bad = np.ones(3), np.array([1.0, np.nan, 1.0])
    with pytest.raises(ValueError):
        _kernels.solve_tridiagonal(ok[:2], ok, ok[:2], bad)
    with pytest.raises(ValueError):
        _kernels.banded_eigenvalue(np.stack([bad, ok]), 0)


def test_singular_tridiagonal_raises_lin_alg_error():
    with pytest.raises(np.linalg.LinAlgError):
        _kernels.solve_tridiagonal(np.ones(1), np.ones(2), np.ones(1), np.ones(2))
    with pytest.raises(np.linalg.LinAlgError, match="singular operator matrix"):
        OperatorMatrix(np.ones(2), np.ones(1)).solve(np.ones(2))


def test_singular_bordered_matrix_raises_runtime_error():
    m, n = 2, 3
    zero, ones = np.zeros((m * n, 3 * m)), np.ones(m * n)
    with pytest.raises(RuntimeError):
        _kernels.band_lu(np.zeros((3 * (2 * m - 1) + 1, m * n), order="F"), 2 * m - 1)
    with pytest.raises(RuntimeError):
        minimax_solver._bordered_solve(zero, m, n, ones, ones)
