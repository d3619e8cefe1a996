"""Dense real linear algebra kernels shared by all solver modules.

Eigenvalues, the stable-first real Schur form, a scaling-and-squaring matrix
exponential, LU and Cholesky solves, 2x2 block assembly and spectral helpers.
LAPACK ``dgeev``, ``dgetrf``/``dgetrs``/``dgecon``, ``dpotrf``/``dpotrs``,
``dgees`` and ``dtrsen`` are called directly: on small matrices their numpy
and scipy wrappers cost more than they do.  The wrappers are the functions
of scipy's compiled extension ``scipy.linalg._flapack``, the same objects
``scipy.linalg.lapack`` re-exports, loaded without running the
``scipy.linalg`` package init (see :func:`_load_flapack`).  All functions
are pure on float64 arrays.
"""

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

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
dpotrf = _flapack.dpotrf
dpotrs = _flapack.dpotrs
dtrsen = _flapack.dtrsen

__all__ = [
    "OrderedSchurForm",
    "as_square",
    "as_symmetric",
    "block_2x2",
    "block_balance",
    "default_axis_tol",
    "eigenvalues",
    "fill_powers",
    "lu_factor",
    "lu_solve",
    "mat_exp",
    "real_schur_ordered",
    "solve_linear",
    "solve_spd",
    "spectral_abscissa",
    "weighted_gram",
]


def as_square(a, name="matrix"):
    """Validate and return `a` as a finite square float64 array."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    return a


def as_symmetric(a, name="matrix"):
    """:func:`as_square`, and symmetric to a relative Frobenius error 1e-10."""
    a = as_square(a, name)
    err = np.linalg.norm(a - a.T, "fro")
    if err > 1e-10 * max(np.linalg.norm(a, "fro"), np.finfo(float).tiny):
        raise ValueError(f"{name} is not symmetric (asymmetry {err:.3e})")
    return a


def default_axis_tol(k):
    """Scale-invariant tolerance for 'eigenvalue on the imaginary axis'."""
    k = np.asarray(k, dtype=float)
    return 1e-9 * (1.0 + np.linalg.norm(k, "fro"))


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
    norms = np.linalg.norm(k[n:, :n]), np.linalg.norm(k[:n, n:])
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


def eigenvalues(a):
    """All eigenvalues of a real square matrix, with multiplicity (``dgeev``).

    Complex eigenvalues come in conjugate pairs since the input is real; the
    array is real when all are.  Raises ``ValueError`` for non-square input
    and ``np.linalg.LinAlgError`` if the QR iteration fails.
    """
    a = as_square(a)
    if a.shape[0] == 0:
        return np.zeros(0)
    big = np.abs(a).max()
    if big and not 2.0**-459 <= big <= 2.0**459:
        # scipy's bundled dgeev leaves the eigenvalues scaled when it has to
        # scale such an `a` itself; an exact power-of-two scaling avoids that
        e = int(np.frexp(big)[1])
        return eigenvalues(np.ldexp(a, -e)) * 2.0**e
    wr, wi, _, _, info = dgeev(a, compute_vl=0, compute_vr=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeev did not converge (info {info})")
    return wr + 1j * wi if wi.any() else wr


def spectral_abscissa(a):
    """max Re(lambda) over the eigenvalues of `a`."""
    return float(eigenvalues(a).real.max())


def solve_linear(a, b):
    """Solve ``a @ x = b`` by pivoted LU factorization (``dgetrf``, ``dgetrs``).

    Raises :class:`SingularMatrix` when any pivot falls below
    ``1e-12 * ||a||_F``, rather than returning garbage.  An empty `a` has
    the empty solution.
    """
    a = as_square(a, "coefficient matrix")
    b = np.asarray(b, dtype=float)
    if a.shape[0] == 0:
        return np.zeros(b.shape)
    nrm = np.linalg.norm(a, "fro")
    lu, piv, _ = dgetrf(a)
    pivots = np.abs(np.diag(lu))
    if nrm == 0.0 or pivots.min() < 1e-12 * nrm:
        raise SingularMatrix(
            f"pivot {pivots.min():.3e} below threshold {1e-12 * nrm:.3e}"
        )
    return dgetrs(lu, piv, b)[0]


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
    rcond, _ = dgecon(lu, np.linalg.norm(a, 1))
    return lu, piv, 1.0 / rcond if rcond > 0.0 else np.inf


def lu_solve(lu, piv, b, trans=0):
    """Solve ``a @ x = b``, or ``a.T @ x = b`` with ``trans=1``, on the
    factors ``lu, piv`` of `a` from :func:`lu_factor` (``dgetrs``)."""
    return dgetrs(lu, piv, b, trans=trans)[0]


def solve_spd(a, b):
    """Solve ``a @ x = b`` (matrix `b`) by Cholesky, ``dpotrf`` + ``dpotrs``;
    raises ``np.linalg.LinAlgError`` unless `a` is positive definite."""
    c, info = dpotrf(a)
    if info != 0:
        raise np.linalg.LinAlgError(f"not positive definite (dpotrf info {info})")
    return dpotrs(c, b)[0]


def weighted_gram(b, r):
    """``b @ inv(r) @ b.T`` by :func:`solve_spd` against ``b.T``, symmetrized; `r` is
    first scaled to ``1 <= max |r_ij| < 2``, so ``2^k r`` scales it by exactly ``2^-k``."""
    e = int(np.frexp(np.abs(r).max())[1]) - 1
    m = b @ solve_spd(np.ldexp(r, -e), b.T)
    return np.ldexp(0.5 * (m + m.T), -e)


def fill_powers(e, out):
    """Fill ``out[j] = out[0] @ (e^j)'`` from ``out[0]`` by doubling: once
    the rows ``j < k`` are in place and ``power = e^k``, the next `k` rows
    are ``rows @ power.T``, then `power` is squared.  A vector row `v` gives
    ``e^j v``, a matrix row `m` gives ``(e^j m')'``.  `out` must be
    contiguous: each product then runs on one flat view of its rows."""
    flat = out.reshape(-1, e.shape[0])
    per = len(flat) // len(out)
    power = e
    k = 1
    while k < len(out):
        take = min(k, len(out) - k)
        flat[k * per:(k + take) * per] = flat[:take * per] @ power.T
        k += take
        power = power @ power


# ---------------------------------------------------------------------------
# Matrix exponential: scaling and squaring with diagonal Pade approximants.
# Degree and scaling power are chosen from the 1-norm of the input, following
# the classic theta thresholds for double precision.

_PADE_COEFFS = {
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

_PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}


def _pade_approximant(a, m):
    """[m/m] diagonal Pade approximant of exp at `a`."""
    b = _PADE_COEFFS[m]
    n = a.shape[0]
    ident = np.eye(n)
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
    else:  # m == 13
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    return np.linalg.solve(v - u, v + u)


def mat_exp(a):
    """Matrix exponential ``exp(a)`` of a real square matrix.

    Uses [m/m] diagonal Pade approximants with scaling and squaring; the
    degree m in {3, 5, 7, 9, 13} and the scaling power are picked from the
    1-norm of `a`.  Raises ``OverflowError`` if the result overflows to
    non-finite values (extreme norms).
    """
    a = as_square(a)
    if a.shape[0] == 0:
        return a.copy()
    nrm = np.linalg.norm(a, 1)
    result = None
    for m in (3, 5, 7, 9):
        if nrm <= _PADE_THETA[m]:
            result = _pade_approximant(a, m)
            break
    if result is None:
        s = max(0, int(np.ceil(np.log2(nrm / _PADE_THETA[13]))))
        result = _pade_approximant(a / 2.0**s, 13)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(s):
                result = result @ result
    if not np.isfinite(result).all():
        raise OverflowError("matrix exponential overflowed")
    return result


# ---------------------------------------------------------------------------
# Real Schur form with stable-first ordering.


@dataclass(frozen=True)
class OrderedSchurForm:
    """Orthogonal similarity ``K = W @ T @ W.T`` with stable eigenvalues
    collected in the leading diagonal blocks of the quasi-triangular `T`.

    `k_stable` is the number of eigenvalues with negative real part; they
    occupy the leading ``k_stable x k_stable`` block of `T`.
    """

    W: np.ndarray
    T: np.ndarray
    k_stable: int


def _select_none(re, im):
    # dgees needs a select callback even when it is told not to sort
    return 0


def real_schur_ordered(k):
    """Real Schur form of `k` with all stable eigenvalues moved first.

    LAPACK ``dgees`` computes the unordered real Schur form and its
    eigenvalues; after the axis test on those eigenvalues, ``dtrsen`` moves
    every eigenvalue with negative real part into the leading block by
    orthogonal swaps of adjacent 1x1/2x2 diagonal blocks (Bai & Demmel, "On
    swapping diagonal blocks in real Schur form", Linear Algebra Appl. 186,
    1993).

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
    OrderedSchurForm

    Raises
    ------
    ImaginaryAxisEigenvalue
        If some eigenvalue has ``|Re| <= default_axis_tol(k)``.
    SchurConvergenceFailure
        If the QR iteration or the reordering fails, or the final factors do
        not reproduce `k` to working accuracy.
    """
    k = as_square(k)
    m = k.shape[0]
    if m == 0:
        return OrderedSchurForm(W=k.copy(), T=k.copy(), k_stable=0)
    t, _, wr, wi, w, _, info = dgees(_select_none, k)
    if info != 0:
        raise SchurConvergenceFailure(
            f"Schur reduction did not converge (dgees info {info})"
        )
    # real eigenvalues stay real, as np.linalg.eigvals reports them
    lam = wr + 1j * wi if wi.any() else wr
    on_axis = lam[np.abs(wr) <= default_axis_tol(k)]
    if on_axis.size:
        raise ImaginaryAxisEigenvalue(
            "eigenvalue(s) on or near the imaginary axis: "
            + ", ".join(f"{z:.6g}" for z in on_axis),
            eigenvalues=on_axis,
        )

    t, w, _, _, k_stable, _, _, info = dtrsen(
        wr < 0.0, t, w, job="N", overwrite_t=1, overwrite_q=1
    )
    if info != 0:
        raise SchurConvergenceFailure(
            f"stable-first reordering failed (dtrsen info {info})"
        )

    ortho_err = np.linalg.norm(w.T @ w - np.eye(m), "fro")
    recon_err = np.linalg.norm(w.T @ k @ w - t, "fro")
    if ortho_err > 1e-10 * m or recon_err > 1e-8 * max(np.linalg.norm(k, "fro"), 1.0):
        raise SchurConvergenceFailure(
            f"ordered Schur factors inaccurate (orthogonality {ortho_err:.3e}, "
            f"reconstruction {recon_err:.3e})"
        )
    return OrderedSchurForm(W=w, T=t, k_stable=k_stable)
