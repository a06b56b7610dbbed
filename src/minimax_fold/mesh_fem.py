"""One-dimensional P1 finite elements for -(sigma u')' + c u on (0, 1).

Unknowns live on interior nodes only: Dirichlet rows are eliminated during
assembly, which keeps every operator tridiagonal and, for admissible
coefficients, an irreducible M-matrix.  All integrals use the same fixed
2-point Gauss rule per element, whose geometry each mesh builds once; the
rule is exact for P1 x P1 products with constant coefficients, so the
classical closed forms (stiffness (1/h)*tridiag(-1, 2, -1), mass
(h/6)*tridiag(1, 4, 1)) are reproduced to roundoff on uniform meshes.
Tridiagonal matrices are kept as diagonals or as row-wise bands
(``tridiag_band``).
Assembly checks the samples of sigma and c, not the spectrum: a negative c
may leave the stiffness indefinite, and it is assembled all the same.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import _kernels

Coefficient = Union[float, int, Callable[[np.ndarray], np.ndarray]]

# reference Gauss points on (0, 1): 1/2 +- 1/(2*sqrt(3)), weight 1/2 each
_GAUSS_REL = 0.5 + np.array([-0.5, 0.5]) / np.sqrt(3.0)


def _freeze(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _sample(coeff: Coefficient, x: np.ndarray) -> np.ndarray:
    if callable(coeff):
        return np.broadcast_to(np.asarray(coeff(x), dtype=float), x.shape)
    return np.full_like(x, float(coeff))


@dataclass(frozen=True)
class Mesh1D:
    """Partition 0 = x_0 < x_1 < ... < x_n = 1 of the unit interval.

    ``quasi_uniformity`` is the constant kappa >= 1 with
    kappa^{-1} * h_max <= h_i <= h_max for every element size h_i.
    Instances are immutable and safe to share between threads; the Gauss
    geometry returned by ``element_quadrature`` is built once, read-only, in
    the constructor.
    """

    nodes: np.ndarray
    element_sizes: np.ndarray
    h_max: float
    quasi_uniformity: float

    def __post_init__(self):
        nodes = self.nodes
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("mesh needs at least one interior node")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ValueError("mesh endpoints must be exactly 0 and 1")
        h = np.diff(nodes)
        if not np.all(h > 0):
            raise ValueError("mesh nodes must be strictly increasing")
        if not np.allclose(self.element_sizes, h, rtol=0.0, atol=1e-14):
            raise ValueError("element_sizes inconsistent with nodes")
        lower = self.h_max / self.quasi_uniformity
        if np.any(h > self.h_max * (1 + 1e-12)) or np.any(h < lower * (1 - 1e-12)):
            raise ValueError("element sizes violate the stored quasi-uniformity bound")
        left = nodes[:-1, None]
        hq = self.element_sizes[:, None]
        xq = left + _GAUSS_REL[None, :] * hq
        wq = np.broadcast_to(0.5 * hq, xq.shape)
        lam_right = _GAUSS_REL[None, :] * np.ones_like(xq)
        lam_left = 1.0 - lam_right
        object.__setattr__(self, "_quadrature",
                           (_freeze(xq), wq, _freeze(lam_left), _freeze(lam_right)))

    @property
    def n_elements(self) -> int:
        return self.nodes.size - 1

    @property
    def n_interior(self) -> int:
        return self.nodes.size - 2

    @property
    def interior_nodes(self) -> np.ndarray:
        return self.nodes[1:-1]


def build_mesh(n_elements: int, grading: str = "uniform", ratio: float | None = None) -> Mesh1D:
    """Build a mesh of (0, 1) with ``n_elements`` elements.

    ``grading`` is ``"uniform"`` (kappa = 1) or ``"geometric"`` with
    consecutive element ratio ``ratio`` in (0.5, 2).
    """
    if n_elements < 2:
        raise ValueError(f"n_elements must be >= 2, got {n_elements}")
    if grading == "uniform":
        nodes = np.linspace(0.0, 1.0, n_elements + 1)
        nodes[0], nodes[-1] = 0.0, 1.0
    elif grading == "geometric":
        if ratio is None:
            raise ValueError("geometric grading requires a ratio")
        if not 0.5 < ratio < 2.0:
            raise ValueError(f"geometric ratio must lie in (0.5, 2), got {ratio}")
        if ratio == 1.0:
            nodes = np.linspace(0.0, 1.0, n_elements + 1)
        else:
            h1 = (1.0 - ratio) / (1.0 - ratio**n_elements)
            sizes = h1 * ratio ** np.arange(n_elements)
            nodes = np.concatenate(([0.0], np.cumsum(sizes)))
        nodes[0], nodes[-1] = 0.0, 1.0
    else:
        raise ValueError(f"unknown grading {grading!r}")
    return mesh_from_nodes(nodes)


def mesh_from_nodes(nodes: np.ndarray) -> Mesh1D:
    """Mesh on the given nodes, with element sizes and kappa computed from them.

    ``mesh_from_nodes(mesh.nodes[::2])`` is the mesh with every other node of
    ``mesh``: a geometric mesh of ratio r halves to one of ratio r^2.
    """
    h = np.diff(nodes)
    h_max = float(h.max())
    return Mesh1D(
        nodes=_freeze(nodes),
        element_sizes=_freeze(h),
        h_max=h_max,
        quasi_uniformity=float(h_max / h.min()),
    )


def element_quadrature(mesh: Mesh1D):
    """Gauss points, weights and P1 basis values, each shaped (n_elements, 2).

    ``lam_left``/``lam_right`` are the hat-function values attached to the
    left/right node of each element at the quadrature points.  The arrays are
    the mesh's read-only cache, shared by every caller.
    """
    return mesh._quadrature


def _element_sum(samples: np.ndarray) -> np.ndarray:
    """Sum over the two Gauss points of each element (the last axis).

    Written as one addition, which rounds exactly as ``sum(axis=-1)`` over
    two terms but skips numpy's reduction set-up (several times the cost of
    the addition on these small arrays).
    """
    return samples[..., 0] + samples[..., 1]


def values_at_quadrature(mesh: Mesh1D, coeffs: np.ndarray) -> np.ndarray:
    """Evaluate the P1 field with interior coefficients ``coeffs`` at Gauss points.

    ``coeffs`` has shape (..., n_interior); the result has shape
    (..., n_elements, 2).  Boundary values are zero.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    shape = coeffs.shape[:-1]
    full = np.zeros(shape + (mesh.nodes.size,))
    full[..., 1:-1] = coeffs
    _, _, lam_l, lam_r = element_quadrature(mesh)
    return full[..., :-1, None] * lam_l + full[..., 1:, None] * lam_r


def quadrature_loads(mesh: Mesh1D, samples: np.ndarray) -> np.ndarray:
    """Assemble load vectors <w, psi_i> from samples of w at the Gauss points.

    ``samples`` has shape (..., n_elements, 2); the result collects the
    interior entries, shape (..., n_interior).
    """
    samples = np.asarray(samples, dtype=float)
    _, wq, lam_l, lam_r = element_quadrature(mesh)
    to_left = _element_sum(samples * lam_l * wq)
    to_right = _element_sum(samples * lam_r * wq)
    acc = np.zeros(samples.shape[:-2] + (mesh.nodes.size,))
    acc[..., :-1] += to_left
    acc[..., 1:] += to_right
    return acc[..., 1:-1]


def weighted_mass(mesh: Mesh1D, weight: np.ndarray):
    """Tridiagonal matrix of integral(w * psi_j * psi_i) for sampled weight w.

    ``weight`` has shape (..., n_elements, 2); returns ``(diag, off)`` with
    shapes (..., n_interior) and (..., n_interior - 1).
    """
    weight = np.asarray(weight, dtype=float)
    _, wq, lam_l, lam_r = element_quadrature(mesh)
    d_left = _element_sum(weight * lam_l * lam_l * wq)
    d_right = _element_sum(weight * lam_r * lam_r * wq)
    o_mid = _element_sum(weight * lam_l * lam_r * wq)
    diag = np.zeros(weight.shape[:-2] + (mesh.nodes.size,))
    diag[..., :-1] += d_left
    diag[..., 1:] += d_right
    return diag[..., 1:-1], o_mid[..., 1:-1]


def tridiag_band(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Rows (off_{i-1}, diag_i, off_i) of symmetric tridiagonal matrices.

    ``diag`` (..., n) and ``off`` (..., n - 1) give the band, shape (..., n,
    3), with zeros where a row's neighbour lies past either end.
    """
    band = np.zeros(diag.shape + (3,))
    band[..., 1] = diag
    band[..., 1:, 0] = off
    band[..., :-1, 2] = off
    return band


@dataclass(frozen=True)
class OperatorMatrix:
    """Symmetric tridiagonal Galerkin matrix over interior nodes.

    Entry (i, j) is the bilinear form a(psi_j, psi_i) of one component
    operator.
    """

    diag: np.ndarray
    off: np.ndarray

    @property
    def n(self) -> int:
        return self.diag.size

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = self.diag * x
        if self.n > 1:
            y[..., :-1] += self.off * x[..., 1:]
            y[..., 1:] += self.off * x[..., :-1]
        return y

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Tridiagonal LU solve of A x = b."""
        b = np.asarray(b, dtype=float)
        if self.n == 1:
            if self.diag[0] == 0.0:
                raise np.linalg.LinAlgError("singular operator matrix")
            return b / self.diag[0]
        try:
            x = _kernels.solve_tridiagonal(self.off, self.diag, self.off, b)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(f"singular operator matrix: {exc}") from exc
        if not np.all(np.isfinite(x)):
            raise np.linalg.LinAlgError("singular operator matrix (non-finite solve)")
        return x

    @functools.cached_property
    def band(self) -> np.ndarray:
        """Row-wise band (n, 3) of ``tridiag_band``, built once."""
        return tridiag_band(self.diag, self.off)


def assemble_stiffness(mesh: Mesh1D, sigma: Coefficient, c: Coefficient) -> OperatorMatrix:
    """Assemble integral(sigma psi_i' psi_j' + c psi_i psi_j) over interior nodes."""
    xq, wq, _, _ = element_quadrature(mesh)
    sig = _sample(sigma, xq)
    if not np.all(np.isfinite(sig)):
        raise ValueError("sigma sample is not finite")
    if np.any(sig <= 0.0):
        raise ValueError("sigma must be strictly positive at quadrature points")
    cs = _sample(c, xq)
    if not np.all(np.isfinite(cs)):
        raise ValueError("c sample is not finite")

    h = mesh.element_sizes
    grad = _element_sum(sig * wq) / h**2  # integral(sigma) / h^2 per element
    diag_full = np.zeros(mesh.nodes.size)
    diag_full[:-1] += grad
    diag_full[1:] += grad
    mass_diag, mass_off = weighted_mass(mesh, cs)
    diag = diag_full[1:-1] + mass_diag
    off = -grad[1:-1] + mass_off

    return OperatorMatrix(diag=_freeze(diag), off=_freeze(off))


def interpolant_values(mesh: Mesh1D, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate the P1 function with interior coefficients ``coeffs`` at ``x``."""
    full = np.zeros(mesh.nodes.size)
    full[1:-1] = coeffs
    return np.interp(np.asarray(x, dtype=float), mesh.nodes, full)

