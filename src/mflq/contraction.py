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
by composite Simpson quadrature on ``[0, T]`` with `T` chosen from an
analytic exponential tail bound, refined by panel doubling to a relative
tolerance; each doubling reuses the coarse samples and computes only the
new midpoints, as powers of one step exponential filled by doubling.  The
truncation and refinement targets are the module constants below.
"""

import numpy as np

from .errors import UnstableGenerator
from .linalg import add_diag, as_square, fill_powers, fro, mat_exp, weighted_gram
from .problem import gamma_weights

__all__ = ["contraction_bound", "decaying_norm_integral"]

TRUNCATION_TOL = 1e-10  # bound on the discarded tail of each integral
BASE_PANELS = 2048      # Simpson panels before the first doubling (even)
REL_TOL = 1e-6          # two successive estimates must agree to this
MAX_DOUBLINGS = 6


def _norm_samples(a, c, t_end, panels, coarse=None):
    """||exp(a*k*h) @ c||_F for k = 0..panels, h = t_end/panels.

    Returns the samples, `h` and the step ``exp(a*h)``.  With
    ``coarse = (samples, step)`` from ``panels/2`` panels, the even samples
    are taken from it and only the odd ones are computed, from
    ``exp(a*h) @ c`` by powers of the coarse step ``exp(2a*h)``.
    """
    h = t_end / panels
    step = mat_exp(a * h)
    if coarse is None:
        return _power_norms(step, c, panels + 1), h, step
    vals = np.empty(panels + 1)
    vals[::2] = coarse[0]
    vals[1::2] = _power_norms(coarse[1], step @ c, panels // 2)
    return vals, h, step


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

    The domain is truncated at `T` where the analytic tail bound
    ``kappa * ||c||_F * exp(alpha*T) / (-alpha)`` (with ``alpha`` the
    spectral abscissa and ``kappa`` an eigenvector-conditioning constant)
    falls below :data:`TRUNCATION_TOL`, then integrated by composite
    Simpson with panel doubling until two successive estimates agree to
    :data:`REL_TOL`, or :data:`MAX_DOUBLINGS` doublings are done.
    """
    lam, eigvecs = np.linalg.eig(a)
    alpha = float(lam.real.max())
    if alpha >= 0.0:
        raise UnstableGenerator(f"generator is not stable (abscissa {alpha:.3e})")
    c_norm = fro(c)
    if c_norm == 0.0:
        return 0.0

    kappa = np.linalg.cond(eigvecs)
    if not np.isfinite(kappa) or kappa > 1e8:
        kappa = 1e8  # defective or near-defective: fall back to a cap
    t_end = max(np.log(kappa * c_norm / (TRUNCATION_TOL * -alpha)) / -alpha,
                1.0 / -alpha)
    # The bound can be loose the other way for strongly non-normal a;
    # extend until the integrand itself is below the tail target.
    for _ in range(60):
        if fro(mat_exp(a * t_end) @ c) <= TRUNCATION_TOL * -alpha:
            break
        t_end *= 1.5

    panels = BASE_PANELS
    vals, h, step = _norm_samples(a, c, t_end, panels)
    refined = _simpson(vals, h)
    for _ in range(MAX_DOUBLINGS):
        panels *= 2
        vals, h, step = _norm_samples(a, c, t_end, panels, (vals, step))
        estimate, refined = refined, _simpson(vals, h)
        if abs(refined - estimate) <= REL_TOL * max(abs(refined), 1e-300):
            break
    return refined


def contraction_bound(p, Pi):
    """Contraction constant ``beta`` of the fixed-point map for problem `p`
    with discounted Riccati solution `Pi`.

    ``ValueError`` if `Pi` is not a finite n-by-n matrix, or if the shifted
    closed-loop drift or `Q_Gamma` built from it overflows.  Raises
    :class:`UnstableGenerator`, from :func:`decaying_norm_integral`, if the
    drift is not stable (it always is when `Pi` is the stabilizing solution).
    """
    Pi = as_square(Pi, "Pi")
    gram = weighted_gram(p.B, p.R)
    a_shift = as_square(add_diag(p.A - gram @ Pi, -0.5 * p.rho), "A - M Pi - (rho/2) I")
    q_gamma = as_square(gamma_weights(p).Q_Gamma, "Q_Gamma")
    left = decaying_norm_integral(a_shift, gram)
    right = decaying_norm_integral(a_shift.T, q_gamma)
    return float(left * right)
