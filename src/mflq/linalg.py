"""Dense real linear algebra kernels shared by all solver modules.

Eigenvalues, the stable-first real Schur form, a scaling-and-squaring matrix
exponential, LU and Cholesky solves, matrix norms, 2x2 block assembly and
spectral helpers.  LAPACK ``dgeev``, ``dgetrf``/``dgetrs``/``dgecon``,
``dposv``, ``dgees`` (sorting), ``dlange`` (every matrix norm) and
``dsyev`` (the eigenvalues of `R`) are called directly: on small
matrices their numpy and scipy wrappers cost more than they do.  The
wrappers are the functions of scipy's compiled extension
``scipy.linalg._flapack``, the same objects ``scipy.linalg.lapack``
re-exports, loaded without running the ``scipy.linalg`` package init (see
:func:`_load_flapack`).  The kernels are pure on float64 arrays that the
library built, and check nothing that :class:`problem.ProblemData` or the
builders guarantee; :func:`as_square` checks an array from outside.
"""

import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np
import scipy

from .errors import (
    ImaginaryAxisEigenvalue,
    SchurConvergenceFailure,
    SingularMatrix,
)


def _load_flapack():
    """The extension module ``scipy.linalg._flapack``, loaded from scipy's
    install directory and registered under its own name.

    ``import scipy.linalg.lapack`` would run the ``scipy.linalg`` package
    init, which clones numpy for the array API layer and so imports
    ``numpy.f2py``, ``numpy.ma``, ``numpy.testing`` and ``numpy.random``:
    a median 280 ms in a fresh process on a 2-vCPU VM (Python 3.11, scipy
    1.17), three times ``import numpy``, against 5 ms for loading the
    extension alone.  The top-level ``scipy`` package is still imported
    (above) for its platform set-up.  An entry already in ``sys.modules``
    is reused, and a later ``import scipy.linalg`` picks up the one
    registered here, so there is one module object per process.  The
    package object does not get the attribute, though: after ``import
    mflq; import scipy.linalg``, ``scipy.linalg._flapack`` raises
    ``AttributeError``, while ``scipy.linalg.lapack`` and ``from
    scipy.linalg import _flapack`` work.
    """
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is not None:
        return module
    directory = os.path.join(scipy.__path__[0], "linalg")
    finder = importlib.machinery.FileFinder(
        directory,
        (importlib.machinery.ExtensionFileLoader,
         importlib.machinery.EXTENSION_SUFFIXES),
    )
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"LAPACK extension {name} not found in {directory}",
                          name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_flapack = _load_flapack()
dgecon = _flapack.dgecon
dgees = _flapack.dgees
dgeev = _flapack.dgeev
dgetrf = _flapack.dgetrf
dgetrs = _flapack.dgetrs
dlange = _flapack.dlange
dposv = _flapack.dposv
dsyev = _flapack.dsyev

# a matrix whose ``dgecon`` 1-norm condition estimate exceeds this is singular
CONDITION_LIMIT = 1e12


def as_square(a, name="matrix"):
    """Validate and return `a` as a finite square float64 array."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not dlange("M", a) < np.inf:  # the max-abs norm propagates NaN and inf
        raise ValueError(f"{name} has non-finite entries")
    return a


def add_diag(a, s):
    """``a + s*I`` with no identity built: a copy of `a`, `s` added to its diagonal."""
    out = a.copy()  # C-ordered, so its flat view is the matrix
    out.reshape(-1)[::len(out) + 1] += s
    return out


def fro(a):
    """Frobenius norm of a 2-D float64 array (``dlange``), 0.0 when empty.

    ``dlange`` sums scaled squares (``dlassq``), so it neither overflows
    nor underflows where the plain sum of squares would."""
    return dlange("F", a)


def as_symmetric(a, name="matrix"):
    """:func:`as_square`, and symmetric to a relative Frobenius error 1e-10."""
    a = as_square(a, name)
    err = fro(a - a.T)
    if err > 1e-10 * max(fro(a), np.finfo(float).tiny):
        raise ValueError(f"{name} is not symmetric (asymmetry {err:.3e})")
    return a


def default_axis_tol(k):
    """Scale-invariant tolerance for 'eigenvalue on the imaginary axis'."""
    return 1e-9 * (1.0 + fro(k))


def block_2x2(a11, a12, a21, a22):
    """``[[a11, a12], [a21, a22]]`` from n-by-n blocks (or scalars)."""
    n = a11.shape[0]
    out = np.empty((2 * n, 2 * n))
    out[:n, :n], out[:n, n:], out[n:, :n], out[n:, n:] = a11, a12, a21, a22
    return out


def block_balance(k):
    """``(inv(T) k T, c)``, ``T = diag(I, cI)``, `c` the power of two nearest
    ``sqrt(||k21|| / ||k12||)`` (1 if either is zero): exact symplectic balancing
    (Benner, SISC 2001).  Exponents and mantissas are rounded apart, so
    ``(k12, k21) -> (2^-j k12, 2^j k21)`` gives ``2^j c`` exactly."""
    n = k.shape[0] // 2
    norms = fro(k[n:, :n]), fro(k[:n, n:])
    if not 0.0 < min(norms) <= max(norms) < np.inf:
        return k, 1.0
    (m_lo, e_lo), (m_up, e_up) = map(math.frexp, norms)
    d = e_lo - e_up
    e = d // 2 + math.floor(0.5 * (d % 2 + math.log2(m_lo / m_up)) + 0.5)
    if not e:
        return k, 1.0
    c = math.ldexp(1.0, e)
    out = k.copy()
    out[:n, n:] *= c
    out[n:, :n] /= c
    return out, c


def _dgeev(a):
    """The real and imaginary parts ``(wr, wi)`` of the eigenvalues of `a`
    (``dgeev``), for :func:`eigenvalues` and :func:`spectral_abscissa`."""
    big = dlange("M", a)
    if big and not 2.0**-459 <= big <= 2.0**459:
        # scipy's bundled dgeev leaves the eigenvalues scaled when it has to
        # scale such an `a` itself; an exact power-of-two scaling avoids that
        # (a scale-up is exact, and split in two, since 2.0**1024 overflows)
        e = int(np.frexp(big)[1])
        half = max(e, 0) // 2
        return [part * 2.0**half * 2.0**(e - half) for part in _dgeev(np.ldexp(a, -e))]
    wr, wi, _, _, info = dgeev(a, compute_vl=0, compute_vr=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeev did not converge (info {info})")
    return wr, wi


def eigenvalues(a):
    """All eigenvalues of a real square matrix, with multiplicity (``dgeev``).

    Complex eigenvalues come in conjugate pairs since the input is real; the
    array is real when all are.  `a` must be finite.  Raises
    ``np.linalg.LinAlgError`` if the QR iteration fails.
    """
    wr, wi = _dgeev(a)
    return wr + 1j * wi if wi.any() else wr


def spectral_abscissa(a):
    """max Re(lambda) over the eigenvalues of `a`: the largest of ``dgeev``'s real parts."""
    return float(_dgeev(a)[0].max())


def lu_factor(a):
    """Pivoted LU factors of a square `a` (``dgetrf``) and, from them, the
    ``dgecon`` estimate of its 1-norm condition ``||a||_1 ||inv(a)||_1``.

    Returns ``(lu, piv, condition)``.  Up to rounding the estimate is a
    lower bound on the exact 1-norm condition, and on small matrices it is
    usually equal to it; it is ``inf`` when a pivot is exactly zero.
    """
    lu, piv, info = dgetrf(a)
    if info > 0:
        return lu, piv, np.inf
    rcond, _ = dgecon(lu, dlange("1", a))
    return lu, piv, 1.0 / rcond if rcond > 0.0 else np.inf


def lu_solve(lu, piv, b, trans=0):
    """Solve ``a @ x = b``, or ``a.T @ x = b`` with ``trans=1``, on the
    factors ``lu, piv`` of `a` from :func:`lu_factor` (``dgetrs``)."""
    return dgetrs(lu, piv, b, trans=trans)[0]


def solve_linear(a, b):
    """Solve ``a @ x = b`` on the factors of :func:`lu_factor`.

    Raises :class:`SingularMatrix`, rather than returning garbage, when the
    ``dgecon`` estimate of the 1-norm condition of `a` exceeds
    :data:`CONDITION_LIMIT`: the rule by which
    :func:`dichotomy.decompose_from_schur` refuses `U11`.
    """
    lu, piv, condition = lu_factor(a)
    if not condition <= CONDITION_LIMIT:
        raise SingularMatrix(f"coefficient matrix has condition {condition:.3e}, "
                             f"above {CONDITION_LIMIT:.0e}")
    return lu_solve(lu, piv, b)


def solve_spd(a, b):
    """Solve ``a @ x = b`` (matrix `b`) by Cholesky, one ``dposv`` call;
    raises ``np.linalg.LinAlgError`` unless `a` is positive definite."""
    _, x, info = dposv(a, b)
    if info != 0:
        raise np.linalg.LinAlgError(f"not positive definite (dposv info {info})")
    return x


def weighted_gram(b, r):
    """``b @ inv(r) @ b.T`` by :func:`solve_spd` against ``b.T``, symmetrized; `r` is
    first scaled to ``1 <= max |r_ij| < 2``, so ``2^k r`` scales it by exactly ``2^-k``,
    and a `b` past ``2^530`` (``b b'`` overflows) below 1.  ``ValueError`` if not finite."""
    e = math.frexp(dlange("M", r))[1] - 1
    f = math.frexp(dlange("M", b))[1]
    b, f = (np.ldexp(b, -f), f) if f > 530 else (b, 0)
    m = b @ solve_spd(np.ldexp(r, -e), b.T)
    m = 0.5 * (m + m.T)
    mantissa, exponent = math.frexp(dlange("M", m))  # (inf or nan, 0) if not finite
    if not (mantissa < 1.0 and exponent + 2 * f - e <= 1024):
        raise ValueError("B inv(R) B' overflows or is not finite")
    return np.ldexp(m, 2 * f - e)


def fill_powers(e, out):
    """Fill ``out[j] = out[0] @ (e^j)'`` from ``out[0]`` by doubling: once
    the rows ``j < k`` are in place and ``power = e^k``, the next `k` rows
    are ``rows @ power.T``, written in place, then `power` is squared if more
    rows are left.  A vector row `v` gives ``e^j v``, a matrix row `m` gives
    ``(e^j m')'``.  `out` must be contiguous: each product runs on flat views."""
    flat = out.reshape(-1, e.shape[0])
    per = len(flat) // len(out)
    power = e
    k = 1
    while k < len(out):
        take = min(k, len(out) - k)
        np.matmul(flat[:take * per], power.T, out=flat[k * per:(k + take) * per])
        k += take
        power = power @ power if k < len(out) else None


# ---------------------------------------------------------------------------
# Matrix exponential: scaling and squaring with diagonal Pade approximants.
# Degree and scaling power are chosen from the 1-norm of the input, following
# the classic theta thresholds for double precision.

# the [m/m] numerator coefficients b_j = (2m - j)! / (j! (m - j)!), exact as doubles
_PADE_COEFFS = {m: tuple(math.factorial(2 * m - j)
                         / (math.factorial(j) * math.factorial(m - j)) for j in range(m + 1))
                for m in (3, 5, 7, 9, 13)}

_PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}


def _pade_approximant(a, m):
    """[m/m] diagonal Pade approximant ``inv(v - u) (v + u)`` of exp at `a`:
    `u` and `v`, the odd and even parts of its numerator, are sums over the
    even powers ``I, a^2, a^4, ...``, each added from the highest power
    down.  Degree 13 stops at ``a^6`` and nests its terms of degree 8 and up."""
    b = _PADE_COEFFS[m]
    powers = [np.eye(a.shape[0]), a @ a]
    while len(powers) <= (3 if m == 13 else m // 2):
        powers.append(powers[-1] @ powers[1])
    u = v = None
    if m == 13:
        a2, a4, a6 = powers[1:]
        u = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
    for j in range(len(powers) - 1, -1, -1):
        odd, even = b[2 * j + 1] * powers[j], b[2 * j] * powers[j]
        u, v = (odd, even) if u is None else (u + odd, v + even)
    u = a @ u
    return np.linalg.solve(v - u, v + u)


def mat_exp(a):
    """Matrix exponential ``exp(a)`` of a real square matrix.

    Uses [m/m] diagonal Pade approximants with scaling and squaring
    (Higham, SIAM J. Matrix Anal. Appl. 26, 2005); the degree m in
    {3, 5, 7, 9, 13} and the scaling power are picked from the 1-norm of
    `a`.  The kernel is written here, not taken from ``scipy.linalg.expm``,
    because importing that runs the ``scipy.linalg`` package init
    (:func:`_load_flapack`) and scipy's compiled Pade kernels are private.
    The order of evaluation fixes its bits: the products of Higham's
    unrolled formulas, each sum added from the highest power down.  Raises
    ``OverflowError`` if `a` or the result is not finite (extreme norms).
    """
    nrm = dlange("1", a)
    if not nrm < np.inf:  # NaN fails too
        raise OverflowError("matrix exponential of a matrix that is not finite")
    m = next((m for m in (3, 5, 7, 9) if nrm <= _PADE_THETA[m]), 13)
    s = max(0, int(np.ceil(np.log2(nrm / _PADE_THETA[13])))) if m == 13 else 0
    result = _pade_approximant(a / 2.0**s if s else a, m)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        for _ in range(s):
            result = result @ result
    if not np.isfinite(result).all():
        raise OverflowError("matrix exponential overflowed")
    return result


# ---------------------------------------------------------------------------
# Real Schur form with stable-first ordering.


def real_schur_ordered(k):
    """Real Schur form of `k` with all stable eigenvalues moved first.

    One LAPACK ``dgees`` call, told to sort: it computes the real Schur
    form, then moves every eigenvalue with negative real part into the
    leading block by orthogonal swaps of adjacent 1x1/2x2 diagonal blocks
    (``dtrsen``; Bai & Demmel, "On swapping diagonal blocks in real Schur
    form", Linear Algebra Appl. 186, 1993), and counts them in ``sdim``.
    The axis test reads the eigenvalues of the ordered factor.

    Parameters
    ----------
    k : array, shape (m, m)
        Real square matrix with no eigenvalue within
        ``default_axis_tol(k) = 1e-9 * (1 + ||k||_F)`` of the imaginary
        axis.  Eigenvalues within that tolerance are rejected even if
        genuinely off-axis: the splitting would not be numerically
        trustworthy.

    Returns
    -------
    t, w, k_stable
        The quasi-triangular `t` and orthogonal `w` with ``k = w @ t @ w.T``,
        and the number `k_stable` of eigenvalues with negative real part,
        which occupy the leading ``k_stable x k_stable`` block of `t`.

    Raises
    ------
    ImaginaryAxisEigenvalue
        If some eigenvalue has ``|Re| <= default_axis_tol(k)``, whether or
        not the reordering succeeded.
    SchurConvergenceFailure
        If the QR iteration or the reordering fails, or the final factors do
        not reproduce `k` to working accuracy.
    """
    t, k_stable, wr, wi, w, _, info = dgees(lambda re, im: re < 0.0, k, sort_t=1)
    if 0 < info <= len(k):
        raise SchurConvergenceFailure(
            f"Schur reduction did not converge (dgees info {info})"
        )
    norm = fro(k)  # one norm for the axis tolerance and the reconstruction bound
    on_axis = np.abs(wr) <= 1e-9 * (1.0 + norm)  # default_axis_tol(k)
    if on_axis.any():
        # real eigenvalues stay real, as eigenvalues() reports them
        on_axis = (wr + 1j * wi if wi.any() else wr)[on_axis]
        raise ImaginaryAxisEigenvalue(
            "eigenvalue(s) on or near the imaginary axis: "
            + ", ".join(f"{z:.6g}" for z in on_axis),
            eigenvalues=on_axis,
        )
    if info != 0:
        raise SchurConvergenceFailure(
            f"stable-first reordering failed (dgees info {info})"
        )

    gram = w.T @ w
    gram.reshape(-1)[::len(k) + 1] -= 1.0  # W'W - I, in place on the fresh product
    recon = w.T @ k @ w
    recon -= t
    ortho_err, recon_err = fro(gram), fro(recon)
    if ortho_err > 1e-10 * len(k) or recon_err > 1e-8 * max(norm, 1.0):
        raise SchurConvergenceFailure(
            f"ordered Schur factors inaccurate (orthogonality {ortho_err:.3e}, "
            f"reconstruction {recon_err:.3e})"
        )
    return t, w, k_stable
