"""Dense complex-matrix primitives shared by every other module.

All routines operate on plain ``numpy`` arrays (``complex128``) and treat a
matrix as Hermitian after symmetrizing it, which keeps round-off drift from
accumulating across chained products.  Eigenvalues in ``[-PSD_TOL, 0)`` are
considered numerical zeros; anything more negative is a genuine sign problem
and is either clamped (projection contexts) or raised (validation contexts).

Input rule: ``logdet_hpd``, ``psd_sqrt``, ``psd_inv_sqrt`` and ``project_psd`` take
one non-empty square 2-D matrix, else raise ``DimensionMismatch``, as do
``min_eigenvalue``, ``logdet_i_plus`` and ``inv_i_plus`` on a 2-D matrix.
All of these raise ``NonPositiveDefinite`` (``SingularMatrix`` for the inverse) on a
non-finite entry of one matrix, the imaginary part of a diagonal entry included,
before any arithmetic could warn or return NaN.  ``logdet_i_plus`` and ``inv_i_plus``
also take a (B, n, n) stack and give each matrix's own result, bit for bit: a stack
with any matrix off the closed form's domain or with a non-finite entry goes matrix
by matrix, so it raises as that matrix does.

Closed forms replace LAPACK on small input, where numpy's per-call dispatch
outweighs the arithmetic; they agree with it to round-off.  ``logdet_i_plus`` and
``inv_i_plus`` have one closed form and one domain test (positive pivots or
determinant, finite product) per size, run by a matrix in Python floats and by a
stack in arrays, under ``np.errstate`` as arrays warn on overflow where floats do not;
one poisoned first pivot (``_pivots_3x3``) tests a matrix's and a stack's imaginary diagonal:

* 1x1 and 2x2: ``logdet_i_plus``, ``inv_i_plus``, ``min_eigenvalue``
  (bit for bit at 1x1) and well-conditioned ``inv_geometric_mean``;
* 3x3: ``logdet_i_plus``, from LDL^H pivots (a cofactor determinant lost 0.3 nats);
* up to 3x3: bit for bit ``project_psd`` of a PSD 1x1 or certified-PD input.

Other input, singular or ill-conditioned included, goes to LAPACK.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonPositiveDefinite, SingularMatrix

# Eigenvalues above -PSD_TOL count as nonnegative.
PSD_TOL = 1e-10
# Relative floor below which an eigenvalue is treated as zero for inversion.
SINGULAR_REL_TOL = 1e-14
# det / tr^2 floor of each argument of the 2x2 closed-form geometric mean: condition
# numbers up to about 1e3 (a det near the subnormal range, or past overflow, also fails).
MEAN_2X2_MIN_DET = 1e-3


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
    return m.trace(axis1=-2, axis2=-1).real


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of a square matrix, by closed form
    at 1x1 (bit for bit ``eigvalsh``) and 2x2 unless it overflows, else ``eigvalsh``.

    Raises:
        NonPositiveDefinite: if an entry is not finite.
    """
    if m.shape == (1, 1) and cmath.isfinite(x := m.item()):
        return float(x.real)
    if m.shape == (2, 2):  # (a + d) / 2 - sqrt(((a - d) / 2)^2 + |b|^2)
        a, d, b, _ = _i_plus_2x2(m, 0.0)
        try:
            low = (a + d) / 2 - math.sqrt(((a - d) / 2) ** 2 + b.real * b.real + b.imag * b.imag)
        except OverflowError:  # the float power, past |a - d| of about 2.7e154
            low = math.nan
        if math.isfinite(low):
            return low
    return float(np.linalg.eigvalsh(hermitize(_as_matrix(m, NonPositiveDefinite)))[0])


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
    w = np.linalg.eigvalsh(hermitize(_as_matrix(m, NonPositiveDefinite)))
    if _near_singular(w):
        raise NonPositiveDefinite(
            f"eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}] is not safely positive")
    return float(np.sum(np.log(w)))


def _as_matrix(m: np.ndarray, error: type[Exception]) -> np.ndarray:
    """``m`` as a complex matrix; raises DimensionMismatch unless it is 2-D, square and
    not empty, and ``error``, the caller's NonPositiveDefinite or SingularMatrix, on
    a non-finite entry, before ``hermitize`` could warn on it."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise DimensionMismatch(f"expected a non-empty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise error("matrix has a non-finite entry")
    return m


def _near_singular(w: np.ndarray) -> bool:
    """Whether ascending eigenvalues ``w`` are not safely positive: the largest
    at or below zero, or the smallest at or below SINGULAR_REL_TOL times it,
    or either not finite (every comparison with NaN is false)."""
    return not (0.0 < w[-1] < np.inf and w[0] > SINGULAR_REL_TOL * w[-1])


def _i_plus_2x2(m: np.ndarray, shift: float):
    """Diagonal entries, averaged off-diagonal entry and determinant of shift I + m,
    or of each matrix of a (B, 2, 2) stack.

    A single matrix's entries are Python scalars: numpy's per-element indexing
    and scalar arithmetic dominated this hot path, and the IEEE results are the same.
    The first diagonal entry is poisoned as :func:`_pivots_3x3`'s first pivot is.
    """
    (p, q), (r, s) = m.tolist() if m.ndim == 2 else [[m[:, i, j] for j in (0, 1)] for i in (0, 1)]
    a = shift + p.real + (0.0 * p.imag + 0.0 * s.imag)
    d = shift + s.real
    b = 0.5 * (q + r.conjugate())
    return a, d, b, a * d - (b.real * b.real + b.imag * b.imag)


def _pivots_3x3(m: np.ndarray, shift: float):
    """LDL^H pivots of shift I + the Hermitian part of a 3x3 matrix, or of each
    of a (B, 3, 3) stack, in real arithmetic so that both give the same bits; a
    single matrix's stop at the first that is not positive (so is the last).

    The first pivot, of a matrix or each of a stack's, is poisoned: it adds 0 times the
    imaginary part of each diagonal entry, a signed zero that keeps its bits if that part
    is finite (a zero pivot may flip sign, and stops either way), else NaN, which fails
    every domain test, so a stack goes matrix by matrix and that matrix raises."""
    single = m.ndim == 2
    e = m.tolist() if single else [[m[:, i, j] for j in range(3)] for i in range(3)]
    b12, b13, b23 = (0.5 * (e[i][j] + e[j][i].conjugate()) for i, j in ((0, 1), (0, 2), (1, 2)))
    d1 = shift + e[0][0].real + (0.0 * e[0][0].imag + 0.0 * e[1][1].imag + 0.0 * e[2][2].imag)
    if single and not d1 > 0.0:
        return (d1,)
    d2 = shift + e[1][1].real - (b12.real * b12.real + b12.imag * b12.imag) / d1
    if single and not d2 > 0.0:
        return d1, d2
    s33 = shift + e[2][2].real - (b13.real * b13.real + b13.imag * b13.imag) / d1
    u_re = b23.real - (b12.real * b13.real + b12.imag * b13.imag) / d1
    u_im = b23.imag - (b12.real * b13.imag - b12.imag * b13.real) / d1
    return d1, d2, s33 - (u_re * u_re + u_im * u_im) / d2


def logdet_i_plus(m: np.ndarray) -> float:
    """Fast ``log det(I + m)`` for PSD ``m``.

    This is the hot-loop variant used by rate and solver evaluations, where
    the argument is I plus a PSD product and positive definiteness is
    structural.  Dimensions 1 to 3 use closed forms (the determinant, then
    the LDL^H pivots); larger matrices go through Cholesky with an eigenvalue
    fallback for inputs that round-off pushed slightly indefinite.  A stack
    gives one log-det per matrix, bit for bit: by the same closed form or one
    stacked Cholesky, and matrix by matrix if any matrix leaves its domain.
    A non-finite matrix raises ``NonPositiveDefinite``.
    """
    n, stack = m.shape[-1], m.ndim > 2
    if 0 < n <= 3 and m.shape[-2:] == (n, n):
        if stack:
            with np.errstate(all="ignore"):  # arrays warn where Python floats do not
                ld = _logdet_closed(m, n)
        else:
            ld = _logdet_closed(m, n)
        if ld is not None:
            return ld
    if stack and (n <= 3 or np.count_nonzero(np.isfinite(m)) < m.size):
        return np.array([logdet_i_plus(x) for x in m])
    a = hermitize(m if stack else _as_matrix(m, NonPositiveDefinite)) + np.eye(n)
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return np.array([logdet_i_plus(x) for x in m]) if stack else logdet_hpd(a)
    ld = 2.0 * np.sum(np.log(np.real(np.diagonal(chol, axis1=-2, axis2=-1))), axis=-1)
    return ld if stack else float(ld)


def _logdet_closed(m: np.ndarray, n: int):
    """:func:`logdet_i_plus` of a matrix or stack by its closed form at n <= 3;
    None off the domain."""
    stack = m.ndim > 2
    if n == 1:
        z = m[:, 0, 0] if stack else m.item()
        x, log = (np.ascontiguousarray(z.real) if stack else z.real), np.log1p
        ok = (x + 0.0 * z.imag > -1.0) & (x < math.inf)  # poisoned as in _pivots_3x3; x keeps -0.0
    elif n == 2:
        a, _, _, x = _i_plus_2x2(m, 1.0)
        ok, log = (a > 0.0) & (x > 0.0) & (x < math.inf), np.log
    else:  # p[1] > 0 follows; one matrix's pivots stop at the first not > 0
        p = _pivots_3x3(m, 1.0)
        x = math.prod(p)
        ok, log = (p[0] > 0.0) & (p[-1] > 0.0) & (x > 0.0) & (x < math.inf), np.log
    if (np.count_nonzero(ok) == ok.size if stack else ok):  # ok.all() costs twice the count
        return log(x) if stack else float(log(x))
    return None


def inv_i_plus(m: np.ndarray) -> np.ndarray:
    """Inverse of ``I + m`` for PSD ``m``, the gradient partner of
    :func:`logdet_i_plus`: it reads the same Hermitian part of ``m`` and
    shares its closed forms at dimensions 1 and 2.  A stack of matrices gives
    one inverse per matrix, bit for bit, as :func:`logdet_i_plus` gives its
    log-dets.  A non-finite matrix raises ``SingularMatrix``."""
    n, stack = m.shape[-1], m.ndim > 2
    if 0 < n <= 2 and m.shape[-2:] == (n, n):
        if stack:
            with np.errstate(all="ignore"):  # arrays warn where Python floats do not
                inv = _inv_closed(m, n)
        else:
            inv = _inv_closed(m, n)
        if inv is not None:
            return inv
    if stack and (n <= 2 or np.count_nonzero(np.isfinite(m)) < m.size):
        return np.array([inv_i_plus(x) for x in m])
    return np.linalg.inv(np.eye(n) + hermitize(m if stack else _as_matrix(m, SingularMatrix)))


def _inv_closed(m: np.ndarray, n: int):
    """:func:`inv_i_plus` of a matrix or stack by its closed form at n <= 2; None off
    the domain, a determinant in (0, inf)."""
    stack = m.ndim > 2
    if n == 1:
        z = m[:, :1, :1] if stack else m.item()
        det = 1.0 + z.real + 0.0 * z.imag  # poisoned as _pivots_3x3's first pivot is
    else:
        a, d, b, det = _i_plus_2x2(m, 1.0)
    ok = (det > 0.0) & (det < math.inf)
    if not (np.count_nonzero(ok) == ok.size if stack else ok):
        return None
    if n == 1:
        inv = 1.0 / det
        return inv.astype(complex) if stack else np.array([[inv]], dtype=complex)
    inv = np.array([[d, -b], [-b.conjugate(), a]]) / det  # a stack's on the last axis
    return inv.transpose(2, 0, 1).copy() if stack else inv


def inv_geometric_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Inverse of the geometric mean a # b = a^1/2 (a^-1/2 b a^-1/2)^1/2 a^1/2 of
    Hermitian positive definite a, b; None if b is singular or a 2x2 input fails
    MEAN_2X2_MIN_DET.  1x1: 1 / sqrt(ab).  2x2: a # b = (alpha beta)^1/4 S / sqrt(det S)
    with alpha = det a, beta = det b, S = a / sqrt(alpha) + b / sqrt(beta) (Bhatia,
    Positive Definite Matrices, 2007, Prop. 4.1.12).  Larger: with a = L L^H and
    M = L^-1 b L^-H, it is L^-H M^-1/2 L^-1: one Cholesky, one inverse, one eigh."""
    n = a.shape[0]
    if n == 1:
        x = a.item().real * b.item().real
        return np.array([[1.0 / math.sqrt(x)]], dtype=complex) if 0.0 < x < math.inf else None
    if n == 2:
        (a1, a2, ab, alpha), (b1, b2, bb, beta) = _i_plus_2x2(a, 0.0), _i_plus_2x2(b, 0.0)
        if not all(x > 0.0 and 1e-300 < MEAN_2X2_MIN_DET * t * t < det < math.inf
                   for x, t, det in ((a1, a1 + a2, alpha), (b1, b1 + b2, beta))):
            return None
        ra, rb = math.sqrt(alpha), math.sqrt(beta)
        s1, s2, s12 = a1 / ra + b1 / rb, a2 / ra + b2 / rb, ab / ra + bb / rb
        k = 1.0 / (math.sqrt(ra * rb) * math.sqrt(s1 * s2 - (s12.real ** 2 + s12.imag ** 2)))
        return np.array([[s2 * k, -s12 * k], [-s12.conjugate() * k, s1 * k]], dtype=complex)
    l_inv = np.linalg.inv(np.linalg.cholesky(a))
    w, v = np.linalg.eigh(l_inv @ b @ herm(l_inv))
    x = herm(l_inv) @ v
    return None if _near_singular(w) else (x / np.sqrt(w)) @ herm(x)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a PSD matrix.

    Eigenvalues are clamped at zero before taking roots, so inputs that are
    PSD up to round-off never produce NaNs.
    """
    w, v = np.linalg.eigh(hermitize(_as_matrix(m, NonPositiveDefinite)))
    w = np.clip(w, 0.0, None)
    return hermitize((v * np.sqrt(w)) @ v.conj().T)


def psd_inv_sqrt(m: np.ndarray) -> np.ndarray:
    """Inverse Hermitian square root; raises ``SingularMatrix`` as
    :func:`sqrt_pair` does."""
    return sqrt_pair(m)[1]


def sqrt_pair(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(square root, inverse square root) of a Hermitian positive definite
    matrix from one eigendecomposition; the square root equals :func:`psd_sqrt`'s.

    Raises:
        SingularMatrix: if an entry is not finite, or any eigenvalue is at or
            below ``SINGULAR_REL_TOL`` times the largest.
    """
    w, v = np.linalg.eigh(hermitize(_as_matrix(m, SingularMatrix)))
    if _near_singular(w):
        raise SingularMatrix(
            f"eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}] cannot be inverted")
    r = np.sqrt(w)
    return hermitize((v * r) @ v.conj().T), hermitize((v / r) @ v.conj().T)


def project_psd(m: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrix: eigenvalues clamped at 0, vectors kept; an h
    certified positive definite (2x2: lambda_min > 1e-12 tr, 3x3: pivots of
    h - 1e-10 tr I positive) skips ``eigh``, which would return h too."""
    h = hermitize(_as_matrix(m, NonPositiveDefinite))
    n = h.shape[0]
    if n == 1 and h.item().real >= 0.0:
        return h
    if n == 2 and min_eigenvalue(h) > 1e-12 * sum(h.diagonal().real.tolist()):
        return h
    if n == 3 and _pivots_3x3(h, -1e-10 * sum(h.diagonal().real.tolist()))[-1] > 0.0:
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
    """Economy SVD with the square-diagonal convention (see SvdTriple)."""
    u, s, vh = np.linalg.svd(np.asarray(m, dtype=complex), full_matrices=False)
    return SvdTriple(left=u, singular=s, right=vh.conj().T)


def random_psd(dim: int, rng: np.random.Generator, trace: float | None = None) -> np.ndarray:
    """Random PSD matrix ``A A^H`` from i.i.d. complex Gaussian A.

    If ``trace`` is given the matrix is rescaled to that exact trace
    (zero-dimension matrices are returned as-is).
    """
    a = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    m = a @ a.conj().T
    if trace is not None and dim > 0:
        t = float(real_trace(m))
        m = m * (trace / t) if t > 0 else m
    return hermitize(m)
