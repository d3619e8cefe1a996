import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import lapack
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_problem
from mflq import linalg
from mflq.errors import (ImaginaryAxisEigenvalue, MflqError, SchurConvergenceFailure,
                         SingularMatrix)
from mflq.linalg import (
    add_diag,
    as_square,
    block_2x2,
    block_balance,
    default_axis_tol,
    eigenvalues,
    fill_powers,
    fro,
    lu_factor,
    lu_solve,
    mat_exp,
    real_schur_ordered,
    solve_linear,
    solve_spd,
    spectral_abscissa,
    weighted_gram,
)
from mflq.mfg import solve_mfg


def scalar_consistency_matrix(a, b, q, r, rho, gamma):
    """Closed-form 2x2 consistency matrix of the scalar model."""
    a_rho = a - rho / 2.0
    br2 = b * b / r
    root = np.sqrt(a_rho**2 + q * br2)
    return np.array([[-root, -br2], [(2.0 * gamma - gamma**2) * q, root]])


class TestEigenvalues:
    def test_diagonal(self):
        lam = np.sort(eigenvalues(np.diag([-1.0, 2.0])).real)
        assert np.allclose(lam, [-1.0, 2.0])

    def test_rotation_generator(self):
        lam = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.allclose(np.sort_complex(lam), [-1j, 1j])

    def test_scalar_consistency_matrix(self):
        h = scalar_consistency_matrix(2.0, 1.0, 2.0, 1.0, 1.0, 1.0)
        lam = np.sort(eigenvalues(h).real)
        assert np.allclose(lam, [-1.5, 1.5], atol=1e-12)

    @pytest.mark.parametrize("a,dtype", [
        (np.diag([-1.0, 2.0]), float),
        (np.triu(np.ones((3, 3))), float),
        (np.array([[0.0, 1.0], [-1.0, 0.0]]), complex),
        (np.array([[1.0, 2.0, 0.0], [-3.0, 1.0, 0.0], [0.0, 0.0, 4.0]]), complex),
    ])
    def test_dtype_convention_of_eigvals(self, a, dtype):
        # real when every eigenvalue is real, complex as soon as one pair is
        lam = eigenvalues(a)
        ref = np.linalg.eigvals(a)
        assert lam.dtype == ref.dtype == np.dtype(dtype)
        assert np.array_equal(lam, ref)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-140, 1e139, 1e300])
    def test_extreme_scale(self, scale):
        # dgeev scales such matrices internally; the eigenvalues must come
        # back at the scale of the input
        a = np.array([[1.0, 0.5], [-3.0, -2.0]])
        lam = np.sort(eigenvalues(a * scale))
        assert np.allclose(lam / scale, np.sort(np.linalg.eigvals(a)),
                           rtol=1e-14, atol=0.0)
        # the abscissa reads the same rescaled real parts, a real and a complex spectrum
        for m in (a * scale, np.array([[1.0, 2.0], [-3.0, 0.5]]) * scale):
            assert spectral_abscissa(m) == float(eigenvalues(m).real.max())

    def test_scale_past_2_to_1023_is_exact(self):
        # the input is scaled by 2^-1024, and 2.0**1024 overflows
        assert np.array_equal(eigenvalues(np.array([[1e308]])), [1e308])
        assert spectral_abscissa(np.array([[1e308]])) == 1e308

    def test_lapack_failure_raises_linalg_error(self, monkeypatch):
        real = linalg.dgeev

        def failing(*args, **kwargs):
            *out, _ = real(*args, **kwargs)
            return (*out, 1)

        monkeypatch.setattr(linalg, "dgeev", failing)
        with pytest.raises(np.linalg.LinAlgError, match="dgeev"):
            eigenvalues(np.diag([2.0, -1.0]))

    def test_conjugate_closure(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            lam = eigenvalues(rng.standard_normal((n, n)))
            conj = np.conjugate(lam)
            assert np.allclose(np.sort_complex(lam), np.sort_complex(conj))


class TestSpectralAbscissa:
    def test_diagonal(self):
        assert spectral_abscissa(np.diag([-1.0, -3.0])) == pytest.approx(-1.0)

    @pytest.mark.parametrize("spectrum", ["real", "complex"])
    def test_equals_max_real_part_of_eigenvalues(self, spectrum):
        # one dgeev pass, no complex array: the same float as eigenvalues()
        rng = np.random.default_rng(29)
        kinds = set()
        for n in range(1, 9):
            g = rng.standard_normal((n, n))
            a = g + g.T if spectrum == "real" else g - g.T + 0.1 * g
            lam = eigenvalues(a)
            kinds.add("complex" if np.iscomplexobj(lam) else "real")
            assert spectral_abscissa(a) == float(lam.real.max())
        assert spectrum in kinds

    def test_shift_property(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.standard_normal((4, 4))
            c = float(rng.uniform(-2, 2))
            assert spectral_abscissa(a + c * np.eye(4)) == pytest.approx(
                spectral_abscissa(a) + c, abs=1e-9
            )


class TestSolveLinear:
    def test_identity(self):
        b = np.arange(6.0).reshape(3, 2)
        assert np.allclose(solve_linear(np.eye(3), b), b)

    def test_matrix_right_hand_side_matches_numpy(self):
        rng = np.random.default_rng(8)
        for n, k in [(1, 1), (3, 2), (8, 5)]:
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, k))
            x = solve_linear(a, b)
            assert x.shape == (n, k)
            assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-12, atol=1e-12)

    def test_diagonal(self):
        x = solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0])

    def test_cramer_oracle_3x3(self):
        # brute-force adjugate/Cramer solve, valid for tiny systems
        def cramer(a, b):
            det = np.linalg.det(a)
            x = np.empty(3)
            for j in range(3):
                aj = a.copy()
                aj[:, j] = b
                x[j] = np.linalg.det(aj) / det
            return x

        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
            b = rng.standard_normal(3)
            assert np.allclose(solve_linear(a, b), cramer(a, b), atol=1e-10)

    def test_residual_bound(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((5, 5)) + 4.0 * np.eye(5)
        b = rng.standard_normal((5, 3))
        x = solve_linear(a, b)
        kappa = np.linalg.cond(a)
        assert np.linalg.norm(a @ x - b, "fro") <= 1e-10 * kappa * (
            1.0 + np.linalg.norm(b, "fro")
        )

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            solve_linear(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))
        with pytest.raises(SingularMatrix):
            solve_linear(np.zeros((2, 2)), np.ones(2))

    def test_condition_limit(self):
        # both pivots are 1; the dgecon estimate decides, as it does for U11
        with pytest.raises(SingularMatrix, match=r"condition 4\.000e\+12"):
            solve_linear(np.array([[1.0, 2e6], [0.0, 1.0]]), np.ones(2))
        x = solve_linear(np.array([[1.0, 5e5], [0.0, 1.0]]), np.ones(2))
        assert np.array_equal(x, [1.0 - 5e5, 1.0])


class TestLuFactor:
    def test_solves_and_transposed_solves_match_numpy(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 3))
        lu, piv, condition = lu_factor(a)
        assert np.allclose(lu_solve(lu, piv, b), np.linalg.solve(a, b))
        assert np.allclose(lu_solve(lu, piv, b, trans=1), np.linalg.solve(a.T, b))
        assert condition == pytest.approx(np.linalg.cond(a, 1), rel=1e-10)

    def test_condition_estimates_the_one_norm_condition(self):
        # dgecon's estimate is a lower bound, and within a small factor, on
        # the leading blocks of the ordered Schur bases the games split by
        rng = np.random.default_rng(31)
        solved = 0
        while solved < 20:
            p = random_problem(rng, max_n=6)
            try:
                k = solve_mfg(p).decomposition.K
            except MflqError:
                continue
            solved += 1
            _, w, _ = real_schur_ordered(block_balance(k)[0])
            u11 = w[:p.n, :p.n]
            exact = np.linalg.cond(u11, 1)
            assert exact / 3.0 <= lu_factor(u11)[2] <= exact * (1.0 + 1e-10)

    def test_exactly_singular_is_infinite(self):
        assert lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))[2] == np.inf
        assert lu_factor(np.zeros((3, 3)))[2] == np.inf

    def test_ill_conditioned(self):
        a = np.diag([1.0, 1e-14])
        assert lu_factor(a)[2] == pytest.approx(1e14, rel=1e-12)


class TestCholeskyGram:
    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(4)
        b = rng.standard_normal((4, 2))
        g = rng.standard_normal((2, 2))
        r = g @ g.T + 0.5 * np.eye(2)
        assert np.allclose(solve_spd(r, b.T), np.linalg.solve(r, b.T))
        m = weighted_gram(b, r)
        assert np.array_equal(m, m.T)
        assert np.allclose(m, b @ np.linalg.inv(r) @ b.T, rtol=1e-12)

    def test_same_bits_as_dpotrf_then_dpotrs(self):
        rng = np.random.default_rng(7)
        for m in range(1, 9):
            g = rng.standard_normal((m, m))
            r = g @ g.T + 0.1 * np.eye(m)
            b = rng.standard_normal((m, 3))
            c, info = lapack.dpotrf(r)
            assert info == 0
            assert np.array_equal(solve_spd(r, b), lapack.dpotrs(c, b)[0])

    @pytest.mark.parametrize("r", [[[1.0, 0.0], [0.0, -1.0]],
                                   [[1.0, 2.0], [2.0, 1.0]],
                                   [[0.0, 0.0], [0.0, 1.0]]])
    def test_indefinite_r_raises(self, r):
        b = np.ones((2, 2))
        with pytest.raises(np.linalg.LinAlgError):
            weighted_gram(b, np.array(r))


    def test_huge_b_is_scaled_exactly(self):
        # b b' overflows at 2^1120, yet M = 2^120 M0 is representable
        rng = np.random.default_rng(6)
        b = rng.standard_normal((3, 2))
        g = rng.standard_normal((2, 2))
        r = g @ g.T + 0.5 * np.eye(2)
        assert np.array_equal(weighted_gram(2.0**560 * b, 2.0**1000 * r),
                              2.0**120 * weighted_gram(b, r))

    @pytest.mark.parametrize("b,r", [([[1e160], [1e160]], [[1.0]]),
                                     ([[1e150]], [[1e-10]]),
                                     ([[np.nan]], [[1.0]])],
                             ids=["b_overflows", "r_tiny", "b_nan"])
    def test_non_finite_gram_raises_without_warning(self, b, r):
        with pytest.raises(ValueError, match="^B inv\\(R\\) B' overflows"):
            weighted_gram(np.array(b), np.array(r))

    @pytest.mark.parametrize("k", [-41, -1, 1, 7])
    def test_power_of_two_scaling_of_r_is_exact(self, k):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((3, 2))
        g = rng.standard_normal((2, 2))
        r = g @ g.T + 0.5 * np.eye(2)
        assert np.array_equal(weighted_gram(b, 2.0**k * r),
                              2.0**-k * weighted_gram(b, r))


def _matrices(max_side, square=False, big=1e150):
    """Matrices with zero entries and entries of magnitude in ``[1/big, big]``.
    With the default `big` the squares and their sums are normal numbers, so
    np.linalg.norm's plain sum of squares is accurate too."""
    entries = st.one_of(st.just(0.0), st.floats(1 / big, big), st.floats(-big, -1 / big))
    sides = st.integers(1, max_side)
    shapes = sides.map(lambda m: (m, m)) if square else st.tuples(sides, sides)
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=entries))


class TestFro:
    @given(_matrices(8))
    def test_matches_numpy_norm(self, a):
        ref = np.linalg.norm(a, "fro")
        assert abs(fro(a) - ref) <= 4 * np.finfo(float).eps * ref
        assert abs(fro(a.T) - ref) <= 4 * np.finfo(float).eps * ref

    @given(_matrices(16, square=True))
    def test_views_match_numpy_norm(self, k):
        n = max(k.shape[0] // 2, 1)
        for view in (k[:n, n:], k[n:, :n], k[::2, 1::2]):
            ref = np.linalg.norm(view, "fro")
            assert abs(fro(view) - ref) <= 4 * np.finfo(float).eps * ref

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (4, 2)])
    def test_zero_for_empty_and_zero_arrays(self, shape):
        assert fro(np.zeros(shape)) == 0.0

    # dlassq sums the squares of three magnitude ranges, split near 2^-511
    # and 2^486, apart; scaling is exact while no entry changes range
    @given(_matrices(8, big=1e100), st.integers(-30, 30))
    def test_power_of_two_scaling_is_exact(self, a, k):
        assert fro(np.ldexp(a, k)) == np.ldexp(fro(a), k)

    def test_no_overflow_on_huge_entries(self):
        a = np.full((3, 3), 1e300)
        assert fro(a) == pytest.approx(3e300, rel=4 * np.finfo(float).eps)


class TestBlockBalance:
    def test_nearest_power_of_two(self):
        k = np.array([[1.0, 3.0], [3.0 * 2.0**20, -1.0]])
        out, c = block_balance(k)
        assert c == 2.0**10
        assert np.array_equal(out, [[1.0, 3.0 * 2.0**10], [3.0 * 2.0**10, -1.0]])
        # sqrt(2^9) is 2^4.5: the tie rounds up
        assert block_balance(np.array([[0.0, 1.0], [2.0**9, 0.0]]))[1] == 2.0**5
        assert block_balance(np.array([[0.0, 1.0], [1.1 * 2.0**-9, 0.0]]))[1] \
            == 2.0**-4

    @pytest.mark.parametrize("j", [-37, -1, 0, 1, 40])
    def test_opposite_block_scalings_shift_c_exactly(self, j):
        rng = np.random.default_rng(9)
        k = rng.standard_normal((4, 4))
        moved = k.copy()
        moved[:2, 2:] *= 2.0**-j
        moved[2:, :2] *= 2.0**j
        assert block_balance(moved)[1] == 2.0**j * block_balance(k)[1]

    @pytest.mark.parametrize("zero", ["upper", "lower"])
    def test_zero_block_is_left_alone(self, zero):
        k = np.arange(1.0, 17.0).reshape(4, 4)
        if zero == "upper":
            k[:2, 2:] = 0.0
        else:
            k[2:, :2] = 0.0
        out, c = block_balance(k)
        assert c == 1.0 and out is k


class TestBlock2x2:
    def test_matches_np_block(self):
        rng = np.random.default_rng(6)
        a11, a12, a21, a22 = rng.standard_normal((4, 3, 3))
        assert np.array_equal(block_2x2(a11, a12, a21, a22),
                              np.block([[a11, a12], [a21, a22]]))
        assert np.array_equal(block_2x2(a11, 0.0, a21, a22),
                              np.block([[a11, np.zeros((3, 3))], [a21, a22]]))


def _reference_fill_powers(e, out):
    """The doubling of ``fill_powers`` as first written (a product assigned
    per slab, then a squaring after every slab), kept verbatim as the
    reference."""
    flat = out.reshape(-1, e.shape[0])
    per = len(flat) // len(out)
    power = e
    k = 1
    while k < len(out):
        take = min(k, len(out) - k)
        flat[k * per:(k + take) * per] = flat[:take * per] @ power.T
        k += take
        power = power @ power


class TestFillPowers:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 6), count=st.integers(1, 300), width=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_doubling_bit_for_bit(self, n, count, width, seed):
        # width 0: vector rows, as a trajectory; else matrix rows, as the
        # contraction quadrature
        rng = np.random.default_rng(seed)
        e = rng.standard_normal((n, n))
        e /= np.linalg.norm(e, 2)
        shape = (count, n) if width == 0 else (count, width, n)
        out = np.empty(shape)
        out[0] = rng.standard_normal(shape[1:])
        ref = out.copy()
        fill_powers(e, out)
        _reference_fill_powers(e, ref)
        assert out.tobytes() == ref.tobytes()


def _layouts(a):
    """`a` C-ordered, F-ordered, and as strided views of larger arrays."""
    big = np.zeros((2 * a.shape[0] + 1, 3 * a.shape[1]))
    big[1::2, ::3] = a
    wide = np.zeros((a.shape[1], 2 * a.shape[0]))
    wide[:, ::2] = a.T
    return [np.ascontiguousarray(a), np.asfortranarray(a), big[1::2, ::3],
            wide[:, ::2].T]


class TestAsSquare:
    @given(a=st.integers(1, 8).flatmap(lambda m: arrays(
               np.float64, (m, m), elements=st.floats(allow_nan=False,
                                                      allow_infinity=False))),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]), data=st.data())
    @example(a=np.array([[1.7e308, -1.7e308], [5e-324, -2.2e-308]]), bad=np.nan,
             data=None)
    def test_non_finite_anywhere_is_rejected(self, a, bad, data):
        for view in _layouts(a):
            assert as_square(view, "X") is not None
        i, j = (0, 0) if data is None else data.draw(
            st.tuples(st.integers(0, a.shape[0] - 1), st.integers(0, a.shape[1] - 1)))
        a = a.copy()
        a[i, j] = bad
        for view in _layouts(a):
            with pytest.raises(ValueError, match="^X has non-finite entries$"):
                as_square(view, "X")

    def test_empty_is_accepted(self):
        assert as_square(np.zeros((0, 0))).shape == (0, 0)


class TestAddDiag:
    @pytest.mark.parametrize("s", [0.75, -2.5])
    def test_matches_identity_shift(self, s):
        a = np.random.default_rng(8).standard_normal((4, 4))
        for view in (a, np.asfortranarray(a), a.T):
            out = add_diag(view, s)
            assert np.array_equal(out, view + s * np.eye(4))
            assert out is not view and not np.shares_memory(out, view)


# Higham's unrolled [m/m] Pade formulas with their hand-copied coefficients,
# the reference that mat_exp's one evaluation over the even powers must
# match bit for bit
_UNROLLED_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
         960960.0, 16380.0, 182.0, 1.0),
}


def _unrolled_pade(a, m):
    b = _UNROLLED_PADE_COEFFS[m]
    ident = np.eye(a.shape[0])
    a2 = a @ a
    if m == 3:
        u = a @ (b[3] * a2 + b[1] * ident)
        v = b[2] * a2 + b[0] * ident
    elif m == 5:
        a4 = a2 @ a2
        u = a @ (b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = b[4] * a4 + b[2] * a2 + b[0] * ident
    elif m == 7:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    elif m == 9:
        a4 = a2 @ a2
        a6 = a4 @ a2
        a8 = a6 @ a2
        u = a @ (b[9] * a8 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = b[8] * a8 + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    else:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    return np.linalg.solve(v - u, v + u)


def _unrolled_mat_exp(a):
    nrm = linalg.dlange("1", a)
    for m in (3, 5, 7, 9):
        if nrm <= linalg._PADE_THETA[m]:
            return _unrolled_pade(a, m)
    s = max(0, int(np.ceil(np.log2(nrm / linalg._PADE_THETA[13]))))
    result = _unrolled_pade(a / 2.0**s, 13)
    for _ in range(s):
        result = result @ result
    return result


_THETA = [0.0, *linalg._PADE_THETA.values(), 40.0 * linalg._PADE_THETA[13]]


class TestMatExp:
    def test_coefficients_are_the_unrolled_ones(self):
        assert linalg._PADE_COEFFS == _UNROLLED_PADE_COEFFS

    @pytest.mark.parametrize("band", range(6), ids=["3", "5", "7", "9", "13", "scaled"])
    def test_same_bits_as_the_unrolled_formulas(self, band):
        # 1-norms spread log-uniformly over the band of each degree, its top
        # included, and past theta_13, where the input is scaled and squared
        lo, hi = max(_THETA[band], 1e-6), _THETA[band + 1]
        rng = np.random.default_rng(band)
        for k in range(300):
            a = rng.standard_normal((int(rng.integers(1, 9)),) * 2)
            target = hi if k == 0 else np.exp(rng.uniform(np.log(lo), np.log(hi)))
            a *= target / linalg.dlange("1", a)
            assert lo <= linalg.dlange("1", a) <= hi * (1 + 1e-15)
            assert mat_exp(a).tobytes() == _unrolled_mat_exp(a).tobytes()

    def test_zero(self):
        assert np.allclose(mat_exp(np.zeros((2, 2))), np.eye(2))

    def test_diagonal(self):
        e = mat_exp(np.diag([1.0, -1.0]))
        assert np.allclose(e, np.diag([np.e, 1.0 / np.e]), rtol=1e-13)

    def test_nilpotent(self):
        e = mat_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(e, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

    @pytest.mark.parametrize("scale", [0.01, 0.3, 1.0, 4.0, 40.0, 400.0])
    def test_against_scipy(self, scale):
        rng = np.random.default_rng(int(scale * 100))
        for _ in range(5):
            a = rng.standard_normal((5, 5)) * scale / 5.0
            ours = mat_exp(a)
            ref = sla.expm(a)
            denom = max(np.linalg.norm(ref, "fro"), 1e-300)
            assert np.linalg.norm(ours - ref, "fro") / denom < 1e-10

    def test_group_property(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            a = rng.standard_normal((4, 4)) - 2.0 * np.eye(4)  # stable-ish
            s, t = rng.uniform(0.0, 2.0, size=2)
            lhs = mat_exp(a * (s + t))
            rhs = mat_exp(a * s) @ mat_exp(a * t)
            scale = 1.0 + np.linalg.norm(rhs, "fro")
            assert np.linalg.norm(lhs - rhs, "fro") <= 1e-8 * scale

    def test_overflow(self):
        with pytest.raises(OverflowError):
            mat_exp(np.diag([2000.0, 2000.0]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_argument_overflows(self, bad):
        # the documented error, which evaluate_trajectory names by the grid end
        with pytest.raises(OverflowError, match="not finite"):
            mat_exp(np.array([[1.0, bad], [0.0, 1.0]]))


def antistable_leading(m=24):
    """A similarity whose unordered reduction tends to put the antistable
    block first, so the reordering must move every stable block past the
    whole antistable block."""
    rng = np.random.default_rng(51)
    core = np.triu(rng.standard_normal((m, m)), 1)
    for i in range(m // 2):
        core[i, i] = rng.uniform(0.3, 2.0)
    for i in range(m // 2, m):
        core[i, i] = -rng.uniform(0.3, 2.0)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return q @ core @ q.T


def unsorted_dgees_then_dtrsen(k):
    """The reference ordering in two LAPACK calls: the unsorted real Schur
    form, then ``dtrsen`` moves the eigenvalues with ``Re < 0`` first."""
    t, _, wr, _, w, _, info = lapack.dgees(lambda re, im: 0, k)
    assert info == 0
    t, w, _, _, k_stable, _, _, info = lapack.dtrsen(wr < 0.0, t, w, job="N")
    assert info == 0
    return t, w, k_stable


def dgees_reports(monkeypatch, info):
    """Make ``linalg.dgees`` return its factors with `info` as its status."""
    real = linalg.dgees

    def failing(*args, **kwargs):
        *out, _ = real(*args, **kwargs)
        return (*out, info)

    monkeypatch.setattr(linalg, "dgees", failing)


class TestRealSchurOrdered:
    def test_already_ordered(self):
        t, w, k_stable = real_schur_ordered(np.diag([-1.0, 2.0]))
        assert k_stable == 1
        assert t[0, 0] == pytest.approx(-1.0)

    def test_swap_required(self):
        t, w, k_stable = real_schur_ordered(np.diag([2.0, -1.0]))
        assert k_stable == 1
        assert t[0, 0] == pytest.approx(-1.0)
        assert t[1, 1] == pytest.approx(2.0)

    def test_axis_eigenvalue_rejected(self):
        # scalar boundary case: double zero eigenvalue
        k = scalar_consistency_matrix(0.5, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ImaginaryAxisEigenvalue):
            real_schur_ordered(k)
        with pytest.raises(ImaginaryAxisEigenvalue):
            real_schur_ordered(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_default_axis_tol_boundary(self):
        # the tolerance is 1e-9 (1 + ||k||_F), about 2e-9 here
        with pytest.raises(ImaginaryAxisEigenvalue):
            real_schur_ordered(np.diag([-1e-9, 1.0]))
        t, w, k_stable = real_schur_ordered(np.diag([-1e-6, 1.0]))
        assert k_stable == 1

    def test_default_axis_tol_scales(self):
        assert default_axis_tol(np.zeros((2, 2))) == pytest.approx(1e-9)
        assert default_axis_tol(100.0 * np.eye(2)) > 1e-7

    @pytest.mark.parametrize("seed", range(8))
    def test_reconstruction_and_ordering(self, seed):
        from conftest import random_spectrum_matrix

        rng = np.random.default_rng(seed)
        n_stable = int(rng.integers(0, 5))
        n_anti = int(rng.integers(0, 5))
        if n_stable + n_anti == 0:
            n_stable = 2
        k, stable_eigs, anti_eigs = random_spectrum_matrix(rng, n_stable, n_anti)
        t, w, k_stable = real_schur_ordered(k)
        m = k.shape[0]
        assert k_stable == n_stable
        assert np.linalg.norm(w.T @ w - np.eye(m), "fro") <= 1e-10 * m
        nrm = np.linalg.norm(k, "fro")
        assert np.linalg.norm(w @ t @ w.T - k, "fro") <= 1e-8 * nrm
        # eigenvalue multisets agree and are correctly partitioned
        lam_t = np.sort_complex(eigenvalues(t))
        lam_k = np.sort_complex(eigenvalues(k))
        assert np.allclose(lam_t, lam_k, atol=1e-8 * (1.0 + nrm))
        lead = eigenvalues(t[:n_stable, :n_stable]) if n_stable else []
        trail = eigenvalues(t[n_stable:, n_stable:]) if n_anti else []
        assert all(z.real < 0 for z in lead)
        assert all(z.real > 0 for z in trail)
        assert np.allclose(np.sort_complex(np.asarray(lead, complex)),
                           np.sort_complex(np.array(stable_eigs)), atol=1e-7)

    def test_stable_subspace_matches_lapack_sorted_schur(self):
        # the dgees + dtrsen ordering must span the same stable invariant
        # subspace as scipy's eigenvalue-sorted reduction (sorting dgees)
        import scipy.linalg as sla

        rng = np.random.default_rng(50)
        for _ in range(10):
            m = int(rng.integers(8, 41))
            a = rng.standard_normal((m, m))
            lam = eigenvalues(a)
            if np.abs(lam.real).min() < 1e-3:
                continue
            t, w, k_stable = real_schur_ordered(a)
            _, w_ref, sdim = sla.schur(a, output="real",
                                       sort=lambda re, im: re < 0.0)
            assert k_stable == sdim
            ours = w[:, :sdim]
            ref = w_ref[:, :sdim]
            proj_gap = np.linalg.norm(ours @ ours.T - ref @ ref.T, "fro")
            assert proj_gap <= 1e-10 * m

    def test_many_swaps_antistable_leading(self):
        a = antistable_leading()
        m = len(a)
        t, w, k_stable = real_schur_ordered(a)
        assert k_stable == m // 2
        assert np.linalg.norm(w @ t @ w.T - a, "fro") <= \
            1e-8 * np.linalg.norm(a, "fro")

    @pytest.mark.parametrize("seed", range(4))
    def test_same_bits_as_unsorted_dgees_then_dtrsen(self, seed):
        # the sorting dgees runs the same dtrsen pass on the same factors
        rng = np.random.default_rng(seed)
        cases = [rng.standard_normal((m, m)) * 10.0 ** rng.uniform(-3, 3)
                 for m in range(2, 65, 2)]
        for k in cases + [antistable_leading()]:
            t, w, k_stable = real_schur_ordered(k)
            t_ref, w_ref, k_ref = unsorted_dgees_then_dtrsen(k)
            assert k_stable == k_ref
            assert np.array_equal(t, t_ref) and np.array_equal(w, w_ref), len(k)

    @pytest.mark.parametrize("info", [1, 3, 4], ids=["1", "n+1", "n+2"])
    def test_lapack_failure_raises_convergence_failure(self, monkeypatch, info):
        # 1..n: the QR iteration failed; n+1, n+2: the reordering did
        dgees_reports(monkeypatch, info)
        with pytest.raises(SchurConvergenceFailure, match=f"dgees info {info}"):
            real_schur_ordered(np.diag([2.0, -1.0]))

    @pytest.mark.parametrize("change,check", [
        # off orthogonal by 2e-9, yet w' k w is within 1e-8 of t
        (lambda w: w * (1.0 + 1e-9), "orthogonality 2"),
        # orthogonal, but its columns in the wrong order
        (lambda w: w[:, ::-1], "reconstruction [1-9]"),
    ], ids=["not_orthogonal", "wrong_basis"])
    def test_inaccurate_factors_raise_convergence_failure(self, monkeypatch, change, check):
        real = linalg.dgees

        def perturbed(*args, **kwargs):
            t, sdim, wr, wi, w, work, info = real(*args, **kwargs)
            return t, sdim, wr, wi, change(w), work, info

        monkeypatch.setattr(linalg, "dgees", perturbed)
        with pytest.raises(SchurConvergenceFailure,
                           match=f"^ordered Schur factors inaccurate .*{check}"):
            real_schur_ordered(np.array([[2.0, 3.0], [0.0, -1.0]]))

    def test_axis_eigenvalue_named_when_the_reordering_also_fails(self, monkeypatch):
        dgees_reports(monkeypatch, 3)
        with pytest.raises(ImaginaryAxisEigenvalue):
            real_schur_ordered(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_quasi_triangular_structure(self):
        rng = np.random.default_rng(33)
        from conftest import random_spectrum_matrix

        k, _, _ = random_spectrum_matrix(rng, 3, 4)
        t, w, k_stable = real_schur_ordered(k)
        below = np.tril(t, -2)
        assert np.abs(below).max() == 0.0
        sub = np.diag(t, -1)
        # no two consecutive nonzero subdiagonal entries (1x1/2x2 blocks only)
        nz = np.flatnonzero(sub)
        assert all(b - a >= 2 for a, b in zip(nz, nz[1:]))


class TestHamiltonianSpectrumSymmetry:
    def test_plus_minus_symmetry(self):
        from conftest import multiset_close

        rng = np.random.default_rng(40)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            a = rng.standard_normal((n, n))
            c = rng.standard_normal((n, n))
            m = c @ c.T
            g = rng.standard_normal((n, n))
            q = 0.5 * (g + g.T)
            h = np.block([[a, -m], [-q, -a.T]])
            lam = eigenvalues(h)
            assert multiset_close(lam, -lam, 1e-8 * (1.0 + np.abs(lam).max()))
