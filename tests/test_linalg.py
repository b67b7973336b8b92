import warnings

import numpy as np
import pytest

from conftest import herm, rand_complex, rand_hermitian, rand_hpd
from securebc import (BC, CovariancePlan, DimensionMismatch, NonPositiveDefinite,
                      SingularMatrix, logdet_hpd, project_psd, psd_inv_sqrt, psd_sqrt,
                      random_psd, svd_square_diag)
from securebc.linalg import (anderson_psd, inv_geometric_mean, inv_hpd, inv_i_plus,
                             logdet_i_plus, min_eigenvalue, sqrt_pair)

rng = np.random.default_rng(42)


class TestLogdet:
    def test_identity(self):
        assert logdet_hpd(np.eye(3)) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal(self):
        assert logdet_hpd(np.diag([4.0, 9.0])) == pytest.approx(np.log(36.0), abs=1e-12)

    def test_against_lu_determinant(self):
        for _ in range(30):
            m = rand_hpd(rng, 4, scale=4.0)
            sign, ref = np.linalg.slogdet(m)
            assert sign > 0
            assert logdet_hpd(m) == pytest.approx(ref, rel=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(NonPositiveDefinite):
            logdet_hpd(np.diag([1.0, -1.0]))

    def test_rejects_near_singular(self):
        with pytest.raises(NonPositiveDefinite):
            logdet_hpd(np.diag([1.0, 1e-16]))

    def test_additive_on_commuting_pairs(self):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            q = np.linalg.qr(rand_complex(rng, n, n))[0]
            d1 = rng.random(n) + 0.3
            d2 = rng.random(n) + 0.3
            a = (q * d1) @ herm(q)
            b = (q * d2) @ herm(q)
            assert logdet_hpd(a) + logdet_hpd(b) == pytest.approx(
                logdet_hpd(a @ b), abs=1e-9)


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]),
                           atol=1e-13)

    def test_squares_back(self):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            m = random_psd(n, rng)
            r = psd_sqrt(m)
            err = np.linalg.norm(r @ r - m) / max(np.linalg.norm(m), 1e-300)
            assert err < 1e-10
            assert np.linalg.eigvalsh(r)[0] >= -1e-12


class TestPsdInvSqrt:
    def test_identity(self):
        assert np.allclose(psd_inv_sqrt(np.eye(3)), np.eye(3), atol=1e-13)

    def test_diagonal(self):
        out = psd_inv_sqrt(np.diag([4.0, 16.0]))
        assert np.allclose(out, np.diag([0.5, 0.25]), atol=1e-13)

    def test_reconstructs_identity(self):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            m = rand_hpd(rng, n, scale=float(n))
            r = psd_inv_sqrt(m)
            assert np.linalg.norm(r @ m @ r - np.eye(n)) < 1e-9

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            psd_inv_sqrt(np.diag([1.0, 0.0]))
        with pytest.raises(SingularMatrix):
            sqrt_pair(np.diag([1.0, 0.0]))

    def test_pair_matches_square_root(self):
        # the duality transform takes both roots from one eigendecomposition
        for _ in range(20):
            n = int(rng.integers(1, 6))
            m = rand_hpd(rng, n, scale=float(n))
            root, inv_root = sqrt_pair(m)
            assert np.array_equal(root, psd_sqrt(m))
            assert np.linalg.norm(root @ inv_root - np.eye(n)) < 1e-9


def _eigh_roots(m):
    """(root, inverse root) through eigh, without the Hermitian averaging."""
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(w)) @ herm(v), (v / np.sqrt(w)) @ herm(v)


def _hpd_with_condition(gen, n, cond):
    q = np.linalg.qr(rand_complex(gen, n, n))[0]
    w = np.geomspace(1.0, 1.0 / cond, n) * 10.0 ** gen.uniform(-4, 4)
    m = (q * w) @ herm(q)
    return (m + herm(m)) / 2


class TestSqrtClosedForms:
    def test_match_eigh_route(self):
        # conditions up to 1e12
        gen = np.random.default_rng(5)
        for _ in range(300):
            n = int(gen.integers(1, 3))
            m = _hpd_with_condition(gen, n, 10.0 ** gen.uniform(0, 12))
            root, inv_root = sqrt_pair(m)
            ref_root, ref_inv = _eigh_roots(m)
            assert np.linalg.norm(root - ref_root) <= 1e-12 * np.linalg.norm(ref_root)
            assert np.linalg.norm(inv_root - ref_inv) <= 1e-12 * np.linalg.norm(ref_inv)
            assert np.array_equal(psd_sqrt(m), root)
            assert np.array_equal(psd_inv_sqrt(m), inv_root)

    def test_closed_form_domain(self):
        # MEAN_2X2_MIN_DET guards each argument of the 2x2 geometric mean
        eye = np.eye(2)
        for a, b in ((eye, eye * 1e-160), (eye * 1e-160, eye)):  # det would be subnormal
            assert inv_geometric_mean(a, b) is None
        for a, b in ((eye, eye * 1e160), (eye * 1e160, eye)):  # tr^2 would overflow
            assert inv_geometric_mean(a, b) is None
        for a, b in ((eye, np.diag([1.0, 1e-6])), (np.diag([1.0, 1e-6]), eye)):
            assert inv_geometric_mean(a, b) is None
        assert inv_geometric_mean(eye, np.diag([1.0, 2.0])) is not None
        assert inv_geometric_mean(np.array([[1.0]]), np.array([[4.0]])) is not None

    def test_singular_and_negative_raise(self):
        for m in (np.diag([1.0, 0.0]), np.zeros((2, 2)), np.zeros((1, 1)),
                  np.array([[-1.0]]), np.diag([-1.0, -2.0])):
            with pytest.raises(SingularMatrix):
                sqrt_pair(m)
            with pytest.raises(SingularMatrix):
                psd_inv_sqrt(m)

    @pytest.mark.parametrize("diag", [[np.nan, 1.0], [np.nan, 1.0, 2.0], [np.inf],
                                      [np.inf, 1.0], [np.inf, 1.0, 2.0], [np.nan],
                                      [1.0, np.nan]])
    def test_nan_eigenvalue_raises_without_warning(self, diag):
        # every comparison with NaN is false, so a NaN must count as not
        # safely positive rather than slip through to the roots; an infinite
        # entry raises the same errors before the Hermitian average could
        # warn on it; the closed forms of logdet_i_plus, inv_i_plus and
        # min_eigenvalue refuse both, rather than return inf, NaN or 0
        m = np.diag(diag).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrix):
                sqrt_pair(m)
            with pytest.raises(NonPositiveDefinite):
                logdet_hpd(m)
            with pytest.raises(NonPositiveDefinite):
                logdet_i_plus(m)
            with pytest.raises(SingularMatrix):
                inv_i_plus(m)
            for f in (project_psd, psd_sqrt, min_eigenvalue):
                with pytest.raises(NonPositiveDefinite):
                    f(m)

    @pytest.mark.parametrize("m", [np.zeros((0, 0)), np.ones((2, 3)), np.ones(3),
                                   np.ones((2, 2, 2))], ids=["0x0", "2x3", "1-d", "3-d"])
    @pytest.mark.parametrize("f", [project_psd, psd_sqrt, psd_inv_sqrt, logdet_hpd],
                             ids=lambda f: f.__name__)
    def test_malformed_shape_raises_dimension_mismatch(self, f, m):
        # not an IndexError, numpy's broadcast ValueError or AxisError, and
        # no empty or meaningless result
        with pytest.raises(DimensionMismatch, match="non-empty square matrix"):
            f(m)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 2), (2, 1), (4, 3), (0, 0)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("f", [min_eigenvalue, logdet_i_plus, inv_i_plus],
                             ids=lambda f: f.__name__)
    def test_non_square_matrix_raises_dimension_mismatch(self, f, shape):
        # the closed forms read a matrix by its size: a non-square or empty
        # one must not reach them, where it raised ValueError or IndexError,
        # or gave the log-det of its top 3x3 block
        with pytest.raises(DimensionMismatch, match="non-empty square matrix"):
            f(np.ones(shape))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("f, error", [(logdet_i_plus, NonPositiveDefinite),
                                          (inv_i_plus, SingularMatrix)],
                             ids=["logdet_i_plus", "inv_i_plus"])
    def test_non_finite_stack_raises_without_warning(self, f, error, bad, n):
        # a stack with a non-finite entry, on the diagonal or off it, goes
        # matrix by matrix, so it raises the single matrix's error where it
        # returned NaN, inf or 0, warned, or raised numpy's LinAlgError
        for at in {(0, 0), (n - 1, 0)}:
            m = np.stack([np.eye(n, dtype=complex)] * 2)
            m[1][at] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(error, match="non-finite"):
                    f(m)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("f, error", [(logdet_i_plus, NonPositiveDefinite),
                                          (inv_i_plus, SingularMatrix),
                                          (inv_hpd, SingularMatrix),
                                          (min_eigenvalue, NonPositiveDefinite)],
                             ids=["logdet_i_plus", "inv_i_plus", "inv_hpd", "min_eigenvalue"])
    def test_non_finite_imaginary_diagonal_raises(self, f, error, bad, n):
        # the closed forms read only the real part of a diagonal entry, so
        # 1 + nan j gave log 2, an inverse entry of 0.5 or a minimum eigenvalue
        # of 1 where n = 4 raised; a stack goes matrix by matrix and raises too,
        # the middle entry of a 3x3 by the first pivot's poison alone
        for at in range(n):
            m = np.eye(n, dtype=complex)
            m[at, at] = complex(1.0, bad)
            stacked = [] if f is min_eigenvalue else [np.stack([np.eye(n, dtype=complex), m])]
            for x in [m] + stacked:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(error, match="non-finite"):
                        f(x)

    def test_inv_hpd_refuses_an_inverse_past_the_largest_float(self):
        # a positive determinant does not bound the inverse: [[5e-324]] gave
        # [[inf]], diag(1, 5e-324) inf and NaN entries with overflow and
        # invalid-value warnings, and a stack of them an overflow warning;
        # diag(1e10, 1e-310) overflows with a normal determinant, 1e-300
        cases = [[5e-324], [1.0, 5e-324], [1e10, 1e-310], [1.0, 1.0, 5e-324]]
        for diag in cases:
            m = np.diag(diag).astype(complex)
            for x in (m, np.stack([np.eye(len(diag), dtype=complex), m])):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(SingularMatrix, match="largest float"):
                        inv_hpd(x)
        # finite inverses are still given, without a warning; numpy's division
        # through 1 / det would overflow on diag(0.5, 1e-308), so LAPACK gives it
        for diag in ([1e-300], [1e10, 1e-290], [0.5, 1e-308]):
            m = np.diag(diag).astype(complex)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = inv_hpd(m)
            assert np.allclose(got, np.diag(1.0 / np.array(diag)), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_stack_off_the_closed_form_goes_matrix_by_matrix(self, n):
        # a 2x2 stack whose determinant overflows returned inf and 0 with an
        # overflow warning, and a singular one inf+nanj, where one matrix
        # leaves the closed form: for LAPACK, which gives 921.03 and 1e-200 at
        # 1e200 I, or raises numpy's singular-matrix error
        big = np.stack([1e200 * np.eye(n, dtype=complex)] * 2)
        singular = np.stack([np.diag([-1.0] + [1.0] * (n - 1)).astype(complex)] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logdet_i_plus(big)
            assert np.array_equal(got, [logdet_i_plus(x) for x in big])
            assert got == pytest.approx([n * 460.517018599] * 2, rel=1e-12)
            got = inv_i_plus(big)
            assert np.array_equal(got, [inv_i_plus(x) for x in big])
            assert np.array_equal(got, np.stack([1e-200 * np.eye(n)] * 2))
            with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                inv_i_plus(singular[0])
            with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                inv_i_plus(singular)

    def test_psd_sqrt_of_singular_input_keeps_clamping(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]), atol=1e-14)
        assert np.array_equal(psd_sqrt(np.zeros((1, 1))), np.zeros((1, 1)))


class TestProjectPsd:
    def test_scalar_equals_lapack_route(self):
        gen = np.random.default_rng(6)
        for _ in range(200):
            x = complex(*gen.standard_normal(2)) * 10.0 ** gen.uniform(-20, 20)
            m = np.array([[x]])
            assert np.array_equal(project_psd(m), [[max(x.real, 0.0)]])
            assert min_eigenvalue(m) == np.linalg.eigvalsh((m + herm(m)) / 2)[0]
        assert np.array_equal(project_psd(np.array([[-0.5 + 1j]])), np.zeros((1, 1)))

    def test_2x2_past_the_float_power_overflow(self):
        # ((a - d) / 2) ** 2 raises OverflowError past |a - d| of about
        # 2.7e154; min_eigenvalue then takes eigvalsh, and a valid PSD plan
        # with that spread builds
        m = np.diag([1e200, 1.0]).astype(complex)
        assert min_eigenvalue(m) == 1.0
        assert np.array_equal(project_psd(m), m)
        assert np.array_equal(CovariancePlan(BC, [m]).matrices[0], m)

    def test_clamps_negative_eigenvalue(self):
        assert np.allclose(project_psd(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]),
                           atol=1e-14)

    def test_psd_is_fixed_point(self):
        for _ in range(20):
            m = random_psd(int(rng.integers(1, 5)), rng)
            assert np.max(np.abs(project_psd(m) - m)) < 1e-12

    def test_matches_independent_eigensolver(self):
        # oracle: general (non-Hermitian-path) eigensolver, clamp, rebuild
        for _ in range(40):
            n = int(rng.integers(1, 6))
            m = rand_hermitian(rng, n, scale=2.0)
            w, v = np.linalg.eig(m)
            ref = (v * np.clip(w.real, 0.0, None)) @ np.linalg.inv(v)
            assert np.max(np.abs(project_psd(m) - ref)) < 1e-10

    def test_idempotent(self):
        for _ in range(20):
            m = rand_hermitian(rng, int(rng.integers(1, 6)), scale=3.0)
            once = project_psd(m)
            twice = project_psd(once)
            assert np.max(np.abs(twice - once)) < 1e-12


def _rank_psd(gen, n, rank, scale):
    """Exactly Hermitian PSD n x n matrix of the given rank and trace."""
    a = rand_complex(gen, n, rank)
    m = a @ herm(a)
    m = m * (scale / np.trace(m).real)
    return (m + herm(m)) / 2


class TestLogdetIPlus3x3:
    SCALES = (1e-3, 1e-1, 1.0, 1e2, 1e4, 1e7)

    @staticmethod
    def _max_error(gen, n, scale):
        err = 0.0
        for rank in range(1, n + 1):
            for _ in range(60):
                m = _rank_psd(gen, n, rank, scale)
                ref = np.linalg.slogdet(np.eye(n) + m)[1]
                err = max(err, abs(logdet_i_plus(m) - ref))
        return err

    @pytest.mark.parametrize("scale", SCALES)
    def test_pivots_as_accurate_as_the_2x2_closed_form(self, scale):
        # the cofactor determinant was off by up to 0.3 nats on rank-one
        # input at 1e7; the pivots stay within twice the 2x2 closed form's
        # error at the same scale (nine entries to its four)
        gen = np.random.default_rng(int(np.log10(scale)) + 40)
        err3 = self._max_error(gen, 3, scale)
        err2 = self._max_error(gen, 2, scale)
        assert err3 <= 2.0 * err2 + 1e-15, (err3, err2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("f", [logdet_i_plus, inv_i_plus], ids=lambda f: f.__name__)
    def test_stack_equals_single_bit_for_bit(self, f, n):
        # one closed form per size serves a matrix and a stack; a stack with one
        # matrix off its domain, here an indefinite I + m, goes matrix by
        # matrix: LAPACK inverts that one, and its log-det raises
        gen = np.random.default_rng(8)
        m = np.array([_rank_psd(gen, n, 1 + i % n, 10.0 ** gen.uniform(-3, 7))
                      + 1e-9 * rand_complex(gen, n, n) for i in range(40)])
        assert np.array_equal(f(m), [f(x) for x in m])
        m[7] = np.diag([-2.0] + [0.0] * (n - 1))
        if f is logdet_i_plus:
            with pytest.raises(NonPositiveDefinite):
                f(m)
        else:
            assert np.array_equal(f(m), [f(x) for x in m])

    def test_indefinite_input_leaves_the_closed_form(self):
        m = np.diag([1.0, -2.0, 1.0]).astype(complex)  # I + m is singular
        with pytest.raises(NonPositiveDefinite):
            logdet_i_plus(m)
        stack = np.array([np.zeros((3, 3)), m])
        with pytest.raises(NonPositiveDefinite):
            logdet_i_plus(stack)


def _eigh_route(m):
    """project_psd without its closed-form shortcut."""
    h = (m + herm(m)) / 2
    w, v = np.linalg.eigh(h)
    if w[0] >= 0.0:
        return h
    w = np.clip(w, 0.0, None)
    out = (v * w) @ herm(v)
    return (out + herm(out)) / 2


class TestProjectPsdShortcut:
    @pytest.mark.parametrize("n", [2, 3])
    def test_same_bytes_as_the_eigh_route(self, n, monkeypatch):
        gen = np.random.default_rng(n)
        cases = []
        for _ in range(100):
            scale = 10.0 ** gen.uniform(-6, 6)
            cases.append(_rank_psd(gen, n, n, scale))  # positive definite
            cases.append(_rank_psd(gen, n, int(gen.integers(1, n)), scale))  # rank-deficient
            h = _rank_psd(gen, n, n, scale)
            low = np.linalg.eigvalsh(h)[0] + 1e-13 * scale
            cases.append(h - low * np.eye(n))  # slightly indefinite
            cases.append(h + 1e-3 * scale * rand_complex(gen, n, n))  # not Hermitian
        cases.append(np.zeros((n, n), dtype=complex))
        want = [_eigh_route(m).tobytes() for m in cases]
        eigh_calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda h: eigh_calls.append(1) or real(h))
        assert [project_psd(m).tobytes() for m in cases] == want
        assert 0 < len(eigh_calls) < len(cases)  # the shortcut ran, and not always

    def test_min_eigenvalue_2x2_closed_form(self):
        gen = np.random.default_rng(12)
        for _ in range(100):
            m = rand_hermitian(gen, 2, scale=10.0 ** gen.uniform(-3, 3))
            ref = np.linalg.eigvalsh(m)
            assert abs(min_eigenvalue(m) - ref[0]) <= 1e-14 * np.max(np.abs(ref))


def _eigh_inv_mean(a, b):
    """(a # b)^-1 from eigh square roots: a^-1/2 (a^-1/2 b a^-1/2)^-1/2 a^-1/2."""
    ra = _eigh_roots(a)[1]
    w, v = np.linalg.eigh(ra @ b @ ra)
    return ra @ (v / np.sqrt(w)) @ herm(v) @ ra


class TestInvGeometricMean:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_eigh_route(self, n):
        gen = np.random.default_rng(30 + n)
        for _ in range(50):
            a = rand_hpd(gen, n, scale=10.0 ** gen.uniform(-1, 2))
            b = rand_hpd(gen, n, scale=10.0 ** gen.uniform(-1, 2))
            got, want = inv_geometric_mean(a, b), _eigh_inv_mean(a, b)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            # the mean is symmetric in its arguments, and the inverse of a # a is a^-1
            assert np.allclose(inv_geometric_mean(b, a), got, rtol=1e-12, atol=0.0)
            assert np.allclose(inv_geometric_mean(a, a), inv_hpd(a), rtol=1e-12, atol=0.0)

    def test_singular_argument_is_none(self):
        for n in (1, 2, 3, 4):
            a, singular = np.eye(n), np.diag([1.0] * (n - 1) + [0.0]).astype(complex)
            assert inv_geometric_mean(a, singular) is None


class TestAndersonPsd:
    def test_one_step_lands_on_an_affine_fixed_point(self):
        # for f(x) = c x + b the residuals of two iterates are parallel, so
        # one step solves the fixed point x = b / (1 - c) exactly; a fixed
        # point off the PSD cone comes back projected onto it
        for b in ([rand_hpd(rng, 3), rand_hpd(rng, 3)],
                  [-rand_hpd(rng, 2), rand_hermitian(rng, 2)]):
            c = 0.9

            def f(x):
                return [c * xi + bi for xi, bi in zip(x, b)]

            x0 = [random_psd(len(bi), rng) for bi in b]
            x1 = f(x0)
            step = anderson_psd([(x0, x1), (x1, f(x1))])
            for got, bi in zip(step, b):
                want = project_psd(bi / (1.0 - c))
                assert np.allclose(got, want, atol=1e-9)
                assert np.linalg.eigvalsh(got)[0] >= -1e-12

    def test_parallel_residual_differences_are_dropped(self):
        # three pairs whose residual differences are parallel: the Gram
        # matrix is singular and the least squares keep one direction
        c, b = 0.5, [rand_hpd(rng, 2)]

        def f(x):
            return [c * x[0] + b[0]]

        xs = [[random_psd(2, rng)]]
        for _ in range(3):
            xs.append(f(xs[-1]))
        step = anderson_psd([(x, f(x)) for x in xs[:3]])
        assert np.allclose(step[0], b[0] / (1.0 - c), atol=1e-9)

    def test_translation_returns_projected_last_image(self):
        # a drift at constant velocity, f(x) = x + d: every residual is d,
        # the residual differences vanish, and the step is the last image
        # projected (dyadic entries keep the differences exactly zero)
        d = [np.array([[0.5, 0.25j], [-0.25j, -0.5]]), np.diag([-0.25, 0.75]) + 0j]
        x = [np.diag([2.0, 1.0]) + 0j, np.array([[1.0, 0.5], [0.5, 3.0]]) + 0j]
        pairs = []
        for _ in range(4):
            f = [a + b for a, b in zip(x, d)]
            pairs.append((x, f))
            x = f
        step = anderson_psd(pairs)
        for got, last in zip(step, pairs[-1][1]):
            assert np.all(np.isfinite(got))
            assert np.array_equal(got, project_psd(last))


class TestSvdSquareDiag:
    def test_identity(self):
        triple = svd_square_diag(np.eye(3))
        assert np.allclose(triple.singular, np.ones(3), atol=1e-14)
        assert np.allclose(triple.reconstruct(), np.eye(3), atol=1e-13)

    def test_rank_deficient_diagonal(self):
        triple = svd_square_diag(np.diag([3.0, 0.0]))
        assert np.allclose(triple.singular, [3.0, 0.0], atol=1e-14)

    def test_rectangular_reconstruction(self):
        for _ in range(30):
            r, c = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            m = rand_complex(rng, r, c)
            triple = svd_square_diag(m)
            k = min(r, c)
            assert triple.singular.shape == (k,)
            assert triple.left.shape == (r, k)
            assert triple.right.shape == (c, k)
            rel = np.linalg.norm(triple.reconstruct() - m) / np.linalg.norm(m)
            assert rel < 1e-10

    def test_orthonormal_columns_and_ordering(self):
        m = rand_complex(rng, 4, 3)
        triple = svd_square_diag(m)
        assert np.allclose(herm(triple.left) @ triple.left, np.eye(3), atol=1e-10)
        assert np.allclose(herm(triple.right) @ triple.right, np.eye(3), atol=1e-10)
        assert np.all(np.diff(triple.singular) <= 1e-14)

    def test_single_row_and_column(self):
        gen = np.random.default_rng(8)
        for _ in range(20):
            n = int(gen.integers(1, 5))
            for m in (rand_complex(gen, 1, n), rand_complex(gen, n, 1)):
                triple = svd_square_diag(m)
                assert triple.singular.shape == (1,)
                assert triple.singular[0] == pytest.approx(np.linalg.norm(m), rel=1e-14)
                assert np.max(np.abs(triple.reconstruct() - m)) < 1e-14
                for factor in (triple.left, triple.right):
                    assert factor.shape[1] == 1
                    assert abs((herm(factor) @ factor)[0, 0] - 1.0) < 1e-14

    def test_zero_vector_falls_back(self):
        for shape in ((1, 3), (3, 1), (1, 1)):
            triple = svd_square_diag(np.zeros(shape))
            assert np.array_equal(triple.singular, [0.0])
            assert np.array_equal(triple.reconstruct(), np.zeros(shape))

    def test_singular_values_unitarily_invariant(self):
        for _ in range(20):
            m = rand_complex(rng, 3, 4)
            u = np.linalg.qr(rand_complex(rng, 3, 3))[0]
            v = np.linalg.qr(rand_complex(rng, 4, 4))[0]
            s0 = svd_square_diag(m).singular
            s1 = svd_square_diag(u @ m @ v).singular
            assert np.max(np.abs(s0 - s1)) < 1e-10


class TestRandomPsd:
    def test_trace_and_psd(self):
        for _ in range(10):
            m = random_psd(3, rng, trace=2.5)
            assert np.trace(m).real == pytest.approx(2.5, rel=1e-12)
            assert np.linalg.eigvalsh(m)[0] >= -1e-12
