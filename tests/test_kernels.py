"""The kernel wrappers give the bits of the public scipy functions they replace.

Each wrapper in ``_kernels`` makes the call its scipy function makes, and
the node-major bands of J^T J and (J + J^T) / 2 are filled in the order of
scipy's sparse expressions, so every comparison here is exact.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from minimax_fold import _kernels, minimax_solver, model
from minimax_fold.mesh_fem import OperatorMatrix
from tests.test_rayleigh import as_csc_array

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
    sparse = as_csc_array(model.band_csc(jac, m, n))
    assert np.array_equal(minimax_solver._gram_band(jac, m, n),
                          old_node_major_band(sparse.T @ sparse, m, n, 2 * (2 * m - 1)))
    assert np.array_equal(minimax_solver._symmetric_band(jac, m, n),
                          old_node_major_band(0.5 * (sparse + sparse.T), m, n, 2 * m - 1))


@pytest.mark.parametrize("m, n", SIZES)
def test_splu_matches_scipy_splu(m, n):
    rng = np.random.default_rng(m * n)
    jac, (col, row) = rng.standard_normal((m * n, 3 * m)), rng.standard_normal((2, m * n))
    for matrix in (model.band_csc(jac, m, n), model.band_csc(jac, m, n, col, row)):
        assert matrix.indices.dtype == matrix.indptr.dtype == np.int32
        ref = scipy.sparse.linalg.splu(as_csc_array(matrix), diag_pivot_thresh=0.1)
        lu = _kernels.splu(matrix)
        b = rng.standard_normal((matrix.shape[0], 2))
        for trans in ("N", "T"):
            assert np.array_equal(lu.solve(b, trans=trans), ref.solve(b, trans=trans))
        assert np.array_equal(lu.perm_c, ref.perm_c) and np.array_equal(lu.perm_r, ref.perm_r)


@pytest.mark.parametrize("m, n", SIZES)
def test_bordered_band_csc_holds_the_arrays_of_scipy(m, n):
    rng = np.random.default_rng(m * n)
    jac, (col, row) = rng.standard_normal((m * n, 3 * m)), rng.standard_normal((2, m * n))
    bordered = model.band_csc(jac, m, n, col, row, 0.5)
    ref = scipy.sparse.csc_array(np.block([[model.band_to_dense(jac, m, n), col[:, None]],
                                           [row[None, :], 0.5]]))
    assert bordered.shape == ref.shape and bordered.data.size == ref.nnz
    for field in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(bordered, field), getattr(ref, field))
    # the structure is built once per (m, n); each call only gathers the values
    again = model.band_csc(2.0 * jac, m, n, 2.0 * col, 2.0 * row, 1.0)
    assert again.indices is bordered.indices and again.indptr is bordered.indptr
    assert np.array_equal(again.data, 2.0 * bordered.data)


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
        _kernels.splu(model.band_csc(zero, m, n, ones, ones))
    with pytest.raises(RuntimeError):
        minimax_solver._bordered_solve(zero, m, n, ones, ones)
