"""Fixed-point contraction bound for the mean-field consistency map.

An alternative to the subspace method is to view the discounted mean field
as the fixed point of an integral map and verify a contraction condition.
The contraction constant is the product of two improper integrals of matrix
norms of decaying exponentials,

    beta = int_0^inf ||exp(As*s) G||_F ds * int_0^inf ||exp(As'*t) Q_Gamma||_F dt,

with ``As`` the discount-shifted closed-loop drift and `G` the control Gram
matrix.  ``beta < 1`` certifies the contraction; the bound is conservative
and may fail (``beta >= 1``) on instances the subspace method still solves.

The integrands are norms, so no closed form exists; each factor is computed
by composite Simpson quadrature on ``[0, T]``, with `T` doubled from
``1 / -alpha`` until ``||exp(A*T)||_F`` certifies a relative tail bound,
refined by panel doubling to a relative tolerance; each doubling reuses the
coarse samples and computes only the new midpoints, as powers of one step
exponential filled by doubling.  The truncation and refinement targets are
the module constants below.  When `G` or `Q_Gamma` is exactly zero, ``beta``
is exactly 0 and the other factor, which might not converge, is not integrated.
"""

import numpy as np

from .errors import MflqError, UnstableGenerator
from .linalg import (add_diag, as_square, fill_powers, fro, mat_exp,
                     spectral_abscissa, weighted_gram)
from .problem import gamma_weights

TRUNCATION_TOL = 1e-10  # bound on ||exp(a*T)||_F: tail <= tol/(1 - tol) of the rest
BASE_PANELS = 2048      # Simpson panels before the first doubling (even)
REL_TOL = 1e-6          # two successive estimates must agree to this
MAX_DOUBLINGS = 6


def _power_norms(step, c, count):
    """||step^k @ c||_F for k = 0..count-1, by :func:`linalg.fill_powers`
    on blocks of at most 2**18 entries whatever the count; the rows hold the
    transposes ``(step^k c)'``, which have the same norms."""
    block = np.empty((min(count, max(1, 2**18 // c.size)),) + c.T.shape)
    vals = np.empty(count)
    first = c.T
    for lo in range(0, count, len(block)):
        rows = block[:count - lo]
        rows[0] = first
        fill_powers(step, rows)
        vals[lo:lo + len(rows)] = np.sqrt(np.einsum("kij,kij->k", rows, rows))
        first = rows[-1] @ step.T
    return vals


def _simpson(vals, h):
    return h / 3.0 * (vals[0] + vals[-1]
                      + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-1:2].sum())


def decaying_norm_integral(a, c):
    """``int_0^inf ||exp(a*t) @ c||_F dt`` for a stable matrix `a`.

    The domain is truncated at the first ``T = 2**j / -alpha`` (``alpha``
    the spectral abscissa, at most 60 doublings) with ``||exp(a*T)||_F <=``
    :data:`TRUNCATION_TOL`, then integrated by composite Simpson with panel
    doubling until two successive estimates agree to :data:`REL_TOL`;
    :class:`MflqError`, naming the last relative change, if they do not
    within :data:`MAX_DOUBLINGS` doublings.  With ``q = ||exp(a*T)||_F``,
    ``||exp(a*(k*T + u)) @ c||_F <= q**k * ||exp(a*u) @ c||_F``, so the
    discarded tail is at most ``q / (1 - q)`` of the kept integral, whatever
    the scale of `c` or of time.
    """
    alpha = spectral_abscissa(a)
    if alpha >= 0.0:
        raise UnstableGenerator(f"generator is not stable (abscissa {alpha:.3e})")
    if fro(c) == 0.0:
        return 0.0
    t_end = 1.0 / -alpha
    for _ in range(60):
        if fro(mat_exp(a * t_end)) <= TRUNCATION_TOL:
            break
        t_end *= 2.0

    h = t_end / BASE_PANELS
    step = mat_exp(a * h)
    vals = _power_norms(step, c, BASE_PANELS + 1)
    refined = _simpson(vals, h)
    for _ in range(MAX_DOUBLINGS):
        h /= 2.0
        coarse, step = step, mat_exp(a * h)
        even, vals = vals, np.empty(2 * len(vals) - 1)
        vals[::2] = even
        vals[1::2] = _power_norms(coarse, step @ c, len(even) - 1)
        estimate, refined = refined, _simpson(vals, h)
        if abs(refined - estimate) <= REL_TOL * max(abs(refined), 1e-300):
            return refined
    change = abs(refined - estimate) / max(abs(refined), 1e-300)
    raise MflqError(f"the integral of ||exp(a t) c||_F did not converge in "
                    f"{MAX_DOUBLINGS} panel doublings (last relative change "
                    f"{change:.3e}, tolerance {REL_TOL:g})")


def contraction_bound(p, Pi):
    """Contraction constant ``beta`` of the fixed-point map for problem `p`
    with discounted Riccati solution `Pi`.

    ``ValueError`` if `Pi` is not a finite n-by-n matrix, or if the shifted
    closed-loop drift or `Q_Gamma` built from it overflows.  Raises
    :class:`UnstableGenerator`, from :func:`decaying_norm_integral`, if the
    drift is not stable (it always is when `Pi` is the stabilizing solution),
    and :class:`MflqError` if a quadrature does not converge.  ``beta`` is
    0.0, with no quadrature run, if ``B inv(R) B'`` or `Q_Gamma` is zero.
    """
    Pi = as_square(Pi, "Pi")
    if Pi.shape != (p.n, p.n):
        raise ValueError(f"Pi must have shape {(p.n, p.n)}, got {Pi.shape}")
    gram = weighted_gram(p.B, p.R)
    a_shift = as_square(add_diag(p.A - gram @ Pi, -0.5 * p.rho), "A - M Pi - (rho/2) I")
    q_gamma = as_square(gamma_weights(p)[0], "Q_Gamma")
    factors = ((a_shift, gram), (a_shift.T, q_gamma))
    for a, c in factors:
        if fro(c) == 0.0:
            return decaying_norm_integral(a, c)
    left, right = (decaying_norm_integral(a, c) for a, c in factors)
    return float(left * right)
