"""Dense complex-matrix primitives shared by every other module.

All routines operate on plain ``numpy`` arrays (``complex128``) and treat a
matrix as Hermitian after symmetrizing it, which keeps round-off drift from
accumulating across chained products.  Eigenvalues in ``[-PSD_TOL, 0)`` are
considered numerical zeros; anything more negative is a genuine sign problem
and is either clamped (projection contexts) or raised (validation contexts).

Closed forms replace LAPACK on small input, where numpy's per-call dispatch
outweighs the arithmetic; they agree with it to round-off:

* 1x1: ``logdet_i_plus``, ``inv_i_plus``, ``sqrt_pair``, ``psd_sqrt``, and bit
  for bit ``project_psd`` and ``min_eigenvalue`` (1x1 eigh returns the real part);
* 2x2: ``logdet_i_plus``, ``inv_i_plus``; well-conditioned ``sqrt_pair``, ``psd_sqrt``;
* 1xn and nx1: ``svd_square_diag``.

Other input, singular or ill-conditioned included, goes to LAPACK.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NonPositiveDefinite, SingularMatrix

# Eigenvalues above -PSD_TOL count as nonnegative.
PSD_TOL = 1e-10
# Relative floor below which an eigenvalue is treated as zero for inversion.
SINGULAR_REL_TOL = 1e-14
# det / tr^2 floor of the 2x2 closed-form square root: condition numbers up to
# about 1e3, where it still agrees with the eigh route to about 2e-13 (a det
# near the subnormal range, or past overflow, also goes to eigh).
SQRT_2X2_MIN_DET = 1e-3


def frozen(a: np.ndarray) -> np.ndarray:
    """Read-only complex copy."""
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def herm(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def hermitize(m: np.ndarray) -> np.ndarray:
    """Average a nominally Hermitian matrix (or each one in a stack) with its
    conjugate transpose."""
    return (m + m.conj().swapaxes(-1, -2)) / 2


def real_trace(m: np.ndarray) -> np.ndarray:
    """Real part of the trace of a matrix, or of every matrix in a stack."""
    return np.trace(m, axis1=-2, axis2=-1).real


def min_eigenvalue(m: np.ndarray) -> float:
    if m.shape[0] == 1:
        return float(m.item().real)
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
        NonPositiveDefinite: if an entry is not finite, or any eigenvalue is
            at or below ``SINGULAR_REL_TOL`` times the largest one.
    """
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():
        raise NonPositiveDefinite("a non-finite entry is not safely positive")
    w = np.linalg.eigvalsh(hermitize(m))
    if _near_singular(w):
        raise NonPositiveDefinite(
            f"eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}] is not safely positive")
    return float(np.sum(np.log(w)))


def _near_singular(w: np.ndarray) -> bool:
    """Whether ascending eigenvalues ``w`` are not safely positive: the largest
    at or below zero, or the smallest at or below SINGULAR_REL_TOL times it,
    or either not finite (every comparison with NaN is false)."""
    return not (0.0 < w[-1] < np.inf and w[0] > SINGULAR_REL_TOL * w[-1])


def _i_plus_2x2(m: np.ndarray, shift: float):
    """Diagonal entries, averaged off-diagonal entry and determinant of shift I + m.

    Python scalars: numpy's per-element indexing and scalar arithmetic
    dominated this hot path, and the IEEE results are the same.
    """
    (p, q), (r, s) = m.tolist()
    a = shift + p.real
    d = shift + s.real
    b = 0.5 * (q + r.conjugate())
    return a, d, b, a * d - (b.real * b.real + b.imag * b.imag)


def logdet_i_plus(m: np.ndarray) -> float:
    """Fast ``log det(I + m)`` for PSD ``m``.

    This is the hot-loop variant used by rate and solver evaluations, where
    the argument is I plus a PSD product and positive definiteness is
    structural.  Dimensions 1 and 2 use the closed-form determinant (exact
    at that size); larger matrices go through Cholesky with an eigenvalue
    fallback for inputs that round-off pushed slightly indefinite.  A stack
    gives one log-det per matrix, bit for bit: by the closed forms of
    :func:`_logdet_i_plus_stack`, or by one stacked Cholesky, and matrix by
    matrix if either leaves its domain.
    """
    n = m.shape[-1]
    if m.ndim > 2 and n <= 2:
        return _logdet_i_plus_stack(m)
    if n == 1:
        x = m.item().real
        if x > -1.0:
            return float(np.log1p(x))
    elif n == 2:
        a, _, _, det = _i_plus_2x2(m, 1.0)
        if a > 0.0 and det > 0.0:
            return float(np.log(det))
    a = hermitize(np.asarray(m, dtype=complex)) + np.eye(n)
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return np.array([logdet_i_plus(x) for x in m]) if m.ndim > 2 else logdet_hpd(a)
    ld = 2.0 * np.sum(np.log(np.real(np.diagonal(chol, axis1=-2, axis2=-1))), axis=-1)
    return ld if m.ndim > 2 else float(ld)


def inv_i_plus(m: np.ndarray) -> np.ndarray:
    """Inverse of ``I + m`` for PSD ``m``, the gradient partner of
    :func:`logdet_i_plus`: it reads the same Hermitian part of ``m`` and
    shares its closed forms at dimensions 1 and 2.  A stack of matrices gives
    one inverse per matrix, bit for bit (the closed forms elementwise, see
    :func:`_inv_i_plus_stack`)."""
    n = m.shape[-1]
    if m.ndim > 2 and n <= 2:
        return _inv_i_plus_stack(m)
    if n == 1:
        return np.array([[1.0 / (1.0 + m.item().real)]], dtype=complex)
    if n == 2:
        a, d, b, det = _i_plus_2x2(m, 1.0)
        return np.array([[d, -b], [-b.conjugate(), a]]) / det
    return np.linalg.inv(np.eye(n) + hermitize(m))


def _i_plus_2x2_stack(m: np.ndarray):
    """:func:`_i_plus_2x2` at shift 1 of every matrix in a (B, 2, 2) stack."""
    a = 1.0 + m[:, 0, 0].real
    d = 1.0 + m[:, 1, 1].real
    b = 0.5 * (m[:, 0, 1] + m[:, 1, 0].conj())
    return a, d, b, a * d - (b.real * b.real + b.imag * b.imag)


def _logdet_i_plus_stack(m: np.ndarray) -> np.ndarray:
    """:func:`logdet_i_plus`'s closed forms on every matrix of a (B, n, n)
    stack with n <= 2; if a row leaves their domain, the whole stack goes
    matrix by matrix, as after a failed stacked Cholesky."""
    if m.shape[-1] == 1:
        x = np.ascontiguousarray(m[:, 0, 0].real)
        ok, log = x > -1.0, np.log1p
    else:
        a, _, _, x = _i_plus_2x2_stack(m)
        ok, log = (a > 0.0) & (x > 0.0), np.log
    return log(x) if ok.all() else np.array([logdet_i_plus(r) for r in m])


def _inv_i_plus_stack(m: np.ndarray) -> np.ndarray:
    """:func:`inv_i_plus`'s closed forms on every matrix of a (B, n, n) stack
    with n <= 2."""
    if m.shape[-1] == 1:
        return (1.0 / (1.0 + m[:, :1, :1].real)).astype(complex)
    a, d, b, det = _i_plus_2x2_stack(m)
    out = np.empty(m.shape, dtype=complex)
    out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = d, -b, -b.conj(), a
    return out / det[:, None, None]


def _sqrt_closed(m: np.ndarray):
    """:func:`sqrt_pair` at sizes 1 and 2, or None outside the domain.  At
    size 2, R = (M + s I) / t with s = sqrt(det M), t = sqrt(tr M + 2 s) has
    determinant s, so R^-1 = adj(M + s I) / (t s).  Python scalars, as in
    :func:`_i_plus_2x2`, at shift 0."""
    n = m.shape[0]
    if n == 1:
        x = m.item().real
        if 0.0 < x < math.inf:
            root = math.sqrt(x)
            return np.array([[root]], dtype=complex), np.array([[1.0 / root]], dtype=complex)
    elif n == 2:
        a, d, b, det = _i_plus_2x2(m, 0.0)
        tr = a + d
        if a > 0.0 and 1e-300 < SQRT_2X2_MIN_DET * tr * tr < det < math.inf:
            s = math.sqrt(det)
            t = math.sqrt(tr + 2.0 * s)
            return (np.array([[a + s, b], [b.conjugate(), d + s]], dtype=complex) / t,
                    np.array([[d + s, -b], [-b.conjugate(), a + s]], dtype=complex) / (t * s))
    return None


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a PSD matrix, through :func:`sqrt_pair`'s
    closed forms where they apply.

    Eigenvalues are clamped at zero before taking roots, so inputs that are
    PSD up to round-off never produce NaNs.
    """
    m = np.asarray(m, dtype=complex)
    pair = _sqrt_closed(m)
    if pair is not None:
        return pair[0]
    w, v = np.linalg.eigh(hermitize(m))
    w = np.clip(w, 0.0, None)
    return hermitize((v * np.sqrt(w)) @ v.conj().T)


def psd_inv_sqrt(m: np.ndarray) -> np.ndarray:
    """Inverse Hermitian square root; raises ``SingularMatrix`` as
    :func:`sqrt_pair` does."""
    return sqrt_pair(m)[1]


def sqrt_pair(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(square root, inverse square root) of a Hermitian positive definite
    matrix, in closed form at sizes 1 and 2 and otherwise from one
    eigendecomposition; the square root equals :func:`psd_sqrt`'s.

    Raises:
        SingularMatrix: if an entry is not finite, or any eigenvalue is at or
            below ``SINGULAR_REL_TOL`` times the largest.
    """
    m = np.asarray(m, dtype=complex)
    pair = _sqrt_closed(m)
    if pair is not None:
        return pair
    if not np.isfinite(m).all():
        raise SingularMatrix("a non-finite entry cannot be inverted")
    w, v = np.linalg.eigh(hermitize(m))
    if _near_singular(w):
        raise SingularMatrix(
            f"eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}] cannot be inverted")
    r = np.sqrt(w)
    return hermitize((v * r) @ v.conj().T), hermitize((v / r) @ v.conj().T)


def project_psd(m: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrix: eigenvalues clamped at 0, vectors kept."""
    h = hermitize(np.asarray(m, dtype=complex))
    if h.shape[0] == 1 and h.item().real >= 0.0:
        return h
    w, v = np.linalg.eigh(h)
    if w[0] >= 0.0:
        return h
    w = np.clip(w, 0.0, None)
    return hermitize((v * w) @ v.conj().T)


def anderson_psd(pairs: list) -> list[np.ndarray]:
    """A projected Anderson step (Walker & Ni 2011, type II) for a fixed
    point iteration on lists of PSD blocks, from its last ``pairs``
    (x_i, f_i) of an iterate and its image.

    With residuals r_i = f_i - x_i, the real coefficients g minimize
    |r_last - dR g| over the differences dR of consecutive residuals, and
    the step f_last - dF g (dF: those of the f_i) has each block projected
    onto the PSD cone by :func:`project_psd`.  The least squares go through
    the real part of the complex Gram matrix and complex ``eigh``,
    eigenvalues below 1e-12 of the largest dropped: a real-dtype product or
    another LAPACK routine would load code that nothing else here needs.
    """
    x, f = (np.array(col) for col in zip(*pairs))  # (pairs, blocks, n, n)
    dr, df = (np.diff(a, axis=0).reshape(len(pairs) - 1, -1) for a in (f - x, f))
    s, v = np.linalg.eigh((dr.conj() @ dr.T).real + 0j)
    v, s = v[:, s > 1e-12 * s[-1]], s[s > 1e-12 * s[-1]]
    g = (v @ ((herm(v) @ (dr.conj() @ (f[-1] - x[-1]).ravel()).real) / s)).real
    return [project_psd(c) for c in f[-1] - (g @ df).reshape(f.shape[1:])]


def svd_square_diag(m: np.ndarray) -> SvdTriple:
    """Economy SVD with the square-diagonal convention (see SvdTriple); a
    single row or column a gives left = a / |a| or right = a^H / |a|, and the
    other factor [[1]]."""
    m = np.asarray(m, dtype=complex)
    if 1 in m.shape:
        norm = math.sqrt(np.vdot(m, m).real)
        if 0.0 < norm < math.inf:
            one = np.ones((1, 1), dtype=complex)
            if m.shape[0] == 1:
                return SvdTriple(left=one, singular=np.array([norm]), right=herm(m) / norm)
            return SvdTriple(left=m / norm, singular=np.array([norm]), right=one)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
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
