"""Dense complex-matrix primitives shared by every other module.

All routines operate on plain ``numpy`` arrays (``complex128``) and treat a
matrix as Hermitian after symmetrizing it, which keeps round-off drift from
accumulating across chained products.  Eigenvalues in ``[-PSD_TOL, 0)`` are
considered numerical zeros; anything more negative is a genuine sign problem
and is either clamped (projection contexts) or raised (validation contexts).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NonPositiveDefinite, SingularMatrix

# Eigenvalues above -PSD_TOL count as nonnegative.
PSD_TOL = 1e-10
# Relative floor below which an eigenvalue is treated as zero for inversion.
SINGULAR_REL_TOL = 1e-14


def frozen(a: np.ndarray) -> np.ndarray:
    """Read-only complex copy."""
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def herm(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def hermitize(m: np.ndarray) -> np.ndarray:
    """Average a nominally Hermitian matrix with its conjugate transpose."""
    return (m + m.conj().T) / 2


def min_eigenvalue(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitize(m))[0])


class SvdTriple(NamedTuple):
    """Economy SVD ``m = left @ diag(singular) @ right^H``.

    ``singular`` holds min(rows, cols) values sorted nonincreasing, so the
    implied diagonal matrix is square; ``left`` and ``right`` are truncated
    to matching column counts and have orthonormal columns.
    """

    left: np.ndarray
    singular: np.ndarray
    right: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singular) @ self.right.conj().T


def logdet_hpd(m: np.ndarray) -> float:
    """log-determinant of a Hermitian positive definite matrix, in nats.

    Computed as the sum of eigenvalue logs rather than through the raw
    determinant, which would over/underflow already at moderate size.

    Raises:
        NonPositiveDefinite: if any eigenvalue is at or below
            ``SINGULAR_REL_TOL`` times the largest one.
    """
    w = np.linalg.eigvalsh(hermitize(np.asarray(m, dtype=complex)))
    largest = w[-1]
    if largest <= 0.0 or w[0] <= SINGULAR_REL_TOL * largest:
        raise NonPositiveDefinite(
            f"eigenvalue range [{w[0]:.3e}, {largest:.3e}] is not safely positive")
    return float(np.sum(np.log(w)))


def _i_plus_2x2(m: np.ndarray):
    """Diagonal entries, averaged off-diagonal entry and determinant of I + m.

    Python scalars: numpy's per-element indexing and scalar arithmetic
    dominated this hot path, and the IEEE results are the same.
    """
    (p, q), (r, s) = m.tolist()
    a = 1.0 + p.real
    d = 1.0 + s.real
    b = 0.5 * (q + r.conjugate())
    return a, d, b, a * d - (b.real * b.real + b.imag * b.imag)


def logdet_i_plus(m: np.ndarray) -> float:
    """Fast ``log det(I + m)`` for PSD ``m``.

    This is the hot-loop variant used by rate and solver evaluations, where
    the argument is I plus a PSD product and positive definiteness is
    structural.  Dimensions 1 and 2 use the closed-form determinant (exact
    at that size); larger matrices go through Cholesky with an eigenvalue
    fallback for inputs that round-off pushed slightly indefinite.
    """
    n = m.shape[0]
    if n == 1:
        x = m.item().real
        if x > -1.0:
            return float(np.log1p(x))
    elif n == 2:
        a, _, _, det = _i_plus_2x2(m)
        if a > 0.0 and det > 0.0:
            return float(np.log(det))
    a = hermitize(np.asarray(m, dtype=complex))
    a = a + np.eye(a.shape[0])
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return logdet_hpd(a)
    return float(2.0 * np.sum(np.log(np.real(np.diagonal(chol)))))


def inv_i_plus(m: np.ndarray) -> np.ndarray:
    """Inverse of ``I + m`` for PSD ``m``, the gradient partner of
    :func:`logdet_i_plus`: it reads the same Hermitian part of ``m`` and
    shares its closed forms at dimensions 1 and 2."""
    n = m.shape[0]
    if n == 1:
        return np.array([[1.0 / (1.0 + m.item().real)]], dtype=complex)
    if n == 2:
        a, d, b, det = _i_plus_2x2(m)
        return np.array([[d, -b], [-b.conjugate(), a]]) / det
    return np.linalg.inv(np.eye(n) + hermitize(m))


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a PSD matrix.

    Eigenvalues are clamped at zero before taking roots, so inputs that are
    PSD up to round-off never produce NaNs.
    """
    w, v = np.linalg.eigh(hermitize(np.asarray(m, dtype=complex)))
    w = np.clip(w, 0.0, None)
    return hermitize((v * np.sqrt(w)) @ v.conj().T)


def psd_inv_sqrt(m: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Inverse Hermitian square root, with an optional eigenvalue ridge.

    Raises:
        SingularMatrix: if any (ridged) eigenvalue is at or below
            ``SINGULAR_REL_TOL`` times the largest.
    """
    if ridge < 0.0:
        raise ValueError("ridge must be nonnegative")
    w, v = np.linalg.eigh(hermitize(np.asarray(m, dtype=complex)))
    w = w + ridge
    largest = w[-1]
    if largest <= 0.0 or w[0] <= SINGULAR_REL_TOL * largest:
        raise SingularMatrix(
            f"eigenvalue range [{w[0]:.3e}, {largest:.3e}] cannot be inverted")
    return hermitize((v / np.sqrt(w)) @ v.conj().T)


def project_psd(m: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrix: eigenvalues clamped at 0, vectors kept.

    Dimensions 1 and 2 use the closed-form eigensystem.
    """
    h = hermitize(np.asarray(m, dtype=complex))
    n = h.shape[0]
    if n == 1:
        return np.array([[complex(max(h[0, 0].real, 0.0))]])
    if n == 2:
        a = float(h[0, 0].real)
        d = float(h[1, 1].real)
        b = h[0, 1]
        mid = 0.5 * (a + d)
        r = float(np.hypot(0.5 * (a - d), abs(b)))
        if mid - r >= 0.0:
            return h
        if mid + r <= 0.0:
            return np.zeros((2, 2), dtype=complex)
        if abs(b) == 0.0:
            return np.array([[complex(max(a, 0.0)), 0.0],
                             [0.0, complex(max(d, 0.0))]])
        hi = mid + r
        v = np.array([b, hi - a], dtype=complex)
        v = v / np.linalg.norm(v)
        return hi * np.outer(v, v.conj())
    w, v = np.linalg.eigh(h)
    if w[0] >= 0.0:
        return h
    w = np.clip(w, 0.0, None)
    return hermitize((v * w) @ v.conj().T)


def svd_square_diag(m: np.ndarray) -> SvdTriple:
    """Economy SVD with the square-diagonal convention (see SvdTriple)."""
    u, s, vh = np.linalg.svd(np.asarray(m, dtype=complex), full_matrices=False)
    return SvdTriple(left=u, singular=s, right=vh.conj().T)


def random_psd(dim: int, rng: np.random.Generator, trace: float | None = None) -> np.ndarray:
    """Random PSD matrix ``A A^H`` from i.i.d. complex Gaussian A.

    If ``trace`` is given the matrix is rescaled to that exact trace
    (zero-dimension matrices are returned as-is).
    """
    a = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    m = a @ a.conj().T
    if trace is not None and dim > 0:
        t = float(np.trace(m).real)
        m = m * (trace / t) if t > 0 else m
    return hermitize(m)
