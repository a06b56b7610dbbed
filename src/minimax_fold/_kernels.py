"""scipy's compiled kernels, called without importing scipy's subpackages.

The solver calls one LP solver and four LAPACK routines, all compiled
extensions of scipy, and no BLAS routine.  Importing them through their
packages (``scipy.optimize``, ``scipy.linalg``) runs each package's
``__init__``, which together cost most of the library's cold start, while
the solver needs nothing else from them.  So this module loads the two
extensions from their files under their canonical names, and wraps each
routine in a function that makes the call the public scipy function makes:

  * ``solve_tridiagonal``: ``scipy.linalg.solve_banded((1, 1), ab, b)``;
  * ``banded_eigenvalue``: ``scipy.linalg.eig_banded`` with
    ``eigvals_only=True, select="i"``;
  * ``band_lu``, ``band_lu_solve``: ``dgbtrf``, ``dgbtrs`` of
    ``solve_banded((width, width), ab, b)``.

Non-finite input to the first two raises ``ValueError``, as scipy's
``check_finite`` does.  Only this module of the library imports scipy.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
import scipy


def _load_extension(name: str):
    """The compiled extension module ``name`` (``scipy.<package>.<leaf>``),
    loaded from its file without running its packages' ``__init__``.

    The module is registered under its own name before it runs, so a later
    import of its package finds and reuses it rather than loading the
    extension a second time; an entry already in ``sys.modules`` is used as
    it is.  That later import does not bind it as an attribute of its
    package; imports by name, as scipy's own are, find it.  A missing file
    raises ``ImportError`` naming the module.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    package, _, leaf = name.rpartition(".")
    subdirs = package.split(".")[1:]
    found = importlib.machinery.PathFinder.find_spec(
        leaf, [os.path.join(path, *subdirs) for path in scipy.__path__])
    if found is None:
        raise ImportError(f"No module named {name!r}", name=name)
    spec = importlib.util.spec_from_file_location(name, found.origin)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


_flapack = _load_extension("scipy.linalg._flapack")
highs = _load_extension("scipy.optimize._highspy._core")


def _finite(a) -> np.ndarray:
    """``a`` as a float array; infs and NaNs raise ``ValueError``."""
    return np.asarray_chkfinite(a, dtype=float)


def _check_info(info: int, driver: str) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {driver}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{driver} did not converge (LAPACK info={info})")


def solve_tridiagonal(lower, diag, upper, b) -> np.ndarray:
    """x with A x = b, for A tridiagonal with sub-, main and super-diagonals
    ``lower``, ``diag`` and ``upper``; ``b`` is (n,) or (n, k).

    LAPACK ``dgtsv`` (Gaussian elimination with partial pivoting); a
    singular A raises ``LinAlgError``.
    """
    *_, x, info = _flapack.dgtsv(_finite(lower), _finite(diag), _finite(upper), _finite(b),
                                 0, 0, 0, 0)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    _check_info(info, "gtsv")
    return x


def banded_eigenvalue(band, index: int) -> float:
    """Eigenvalue ``index`` (ascending, from 0) of the symmetric matrix whose
    upper band ``band`` holds entry (i, j) at ``band[width + i - j, j]``
    (LAPACK ``dsbevx``)."""
    w, _, _, _, info = _flapack.dsbevx(_finite(band), 0.0, 1.0, index + 1, index + 1,
                                       compute_v=0, mmax=1, range=2, lower=0, overwrite_ab=0,
                                       abstol=2 * _flapack.dlamch("s"))
    _check_info(info, "sbevx")
    return float(w[0])


def band_lu(ab, width: int) -> tuple:
    """LU factors ``(lu, piv, width)`` of the square A held, with the top
    ``width`` rows zero, in the Fortran-ordered (3 width + 1, size) ``ab``:
    A[i, j] at ``ab[2 width + i - j, j]`` (LAPACK ``dgbtrf``, partial
    pivoting).  An exactly zero pivot raises ``RuntimeError``."""
    lu, piv, info = _flapack.dgbtrf(ab, width, width)
    if info > 0:
        raise RuntimeError(f"matrix is exactly singular (zero pivot U[{info - 1}, {info - 1}])")
    _check_info(info, "gbtrf")
    return lu, piv, width


def band_lu_solve(factors: tuple, b, trans: int = 0) -> np.ndarray:
    """x with A x = b, or A^T x = b if ``trans`` is 1, from the ``band_lu``
    factors of A; ``b`` is (size,) or (size, k) (LAPACK ``dgbtrs``)."""
    lu, piv, width = factors
    x, info = _flapack.dgbtrs(lu, width, width, b, piv, trans=trans)
    _check_info(info, "gbtrs")
    return x
