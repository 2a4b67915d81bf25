"""Closed-form bound machinery for hyperplane rounding guarantees.

Everything here is scalar math: the same-cluster probability ``f_k``, its
linear envelope ``h_k``, the per-k additive error ``g_k``, the bipartition
envelopes ``p_plus_lce`` / ``p_minus_lce`` with their tangency constants,
and the worst-case constants that cap every reported error floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import _checked_int

__all__ = [
    "BoundConstants",
    "CONSTANTS",
    "f_k",
    "h_k",
    "g_k",
    "g_table",
    "l_k",
    "full_lower_bound_curve",
    "cut_envelopes",
    "cut_error_function",
    "cut_error_curve",
    "verify_auxiliary_bounds",
    "K_CAP",
]

# Cap on the hyperplane count in curve/verification scans. Beyond this the
# per-k error differences fall below float64 resolution.
K_CAP = 64


def _check_domain(x, lo, hi, name="x"):
    arr = np.asarray(x, dtype=float)
    # written so that NaN, and None with it, fails the check
    if not (np.all(arr >= lo) and np.all(arr <= hi)):
        raise ValueError(f"{name} must lie in [{lo}, {hi}]")
    return arr


def f_k(x, k):
    """Probability that k independent random hyperplanes keep together two
    unit vectors with inner product x: (1 - arccos(x)/pi)**k."""
    arr = _check_domain(x, 0.0, 1.0)
    k = _checked_int("k", k, 1)
    out = (1.0 - np.arccos(arr) / np.pi) ** k
    return out if out.ndim else float(out)


def h_k(x, k):
    """Linear lower convex envelope of -f_k on [0, 1]:
    -1/2**k + (1/2**k - 1) * x."""
    arr = _check_domain(x, 0.0, 1.0)
    k = _checked_int("k", k, 1)
    w = 0.5**k
    out = -w + (w - 1.0) * arr
    return out if out.ndim else float(out)


def g_k(x, k):
    """Additive error of k-hyperplane rounding as a function of the
    positive-mass average: x - f_k(x) + 1/2**k. Strictly concave on (0, 1).
    It is the last column of ``g_table(x, k)``, to the bit."""
    out = g_table(x, _checked_int("k", k, 1))[..., -1]
    return out if out.ndim else float(out)


def g_table(x, k_hi):
    """x - f_k(x) + 1/2**k for k = 1, ..., k_hi along a new last axis: the
    one evaluation of the per-k error."""
    arr = _check_domain(x, 0.0, 1.0)
    ks = np.arange(1, _checked_int("k_hi", k_hi, 1) + 1)
    base = 1.0 - np.arccos(arr) / np.pi
    return arr[..., None] - base[..., None] ** ks + 0.5**ks


def l_k(x, k):
    """Auxiliary geometric sum (1/2**(k-1)) * sum_{i<k} (2x)**i, convex on
    [0, 1]; strictly below x + 1/2 left of (1+sqrt(5))/4."""
    arr = _check_domain(x, 0.0, 1.0)
    k = _checked_int("k", k, 1)
    acc = np.zeros_like(arr)
    for i in range(k):
        acc = acc + (2.0 * arr) ** i
    out = acc / 2.0 ** (k - 1)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class BoundConstants:
    """Worst-case constants of the two rounding schemes.

    full_worst_error is the additive error cap for full partitioning,
    attained where the k=2 and k=3 error curves cross (full_crossover).
    cut_alpha / cut_beta are the slope and tangency abscissa of the chord
    from (-1, 0) under the same-cluster probability; they define the
    bipartition envelopes. cut_worst_error is the bipartition error cap,
    attained at cut_argmax = 1/2 + cut_threshold.
    """

    full_worst_error: float
    full_crossover: float
    cut_alpha: float
    cut_beta: float
    cut_worst_error: float
    cut_argmax: float
    cut_threshold: float


def _chord_ratio(x: float) -> float:
    # Slope ratio of the same-cluster probability against the chord from
    # (-1, 0); its minimum over (-1, 1) is cut_alpha, attained at cut_beta.
    return (1.0 - math.acos(x) / math.pi) / ((x + 1.0) / 2.0)


def _compute_constants() -> BoundConstants:
    crossover = math.cos((3.0 - math.sqrt(5.0)) / 4.0 * math.pi)
    full_worst = crossover - (1.0 + math.sqrt(5.0)) / 8.0

    # beta is the tangency point to the bit, as scipy's golden-section
    # search finds it (the tests check this); alpha, the Goemans-Williamson
    # constant, is the ratio's value there.
    beta = 0.689157726715474
    alpha = _chord_ratio(beta)

    u = math.sqrt(math.pi**2 - 4.0) / math.pi
    threshold = u / 2.0
    argmax = 0.5 + threshold
    cut_worst = threshold + math.acos(u) / math.pi - alpha / 2.0

    consts = BoundConstants(
        full_worst_error=full_worst,
        full_crossover=crossover,
        cut_alpha=alpha,
        cut_beta=beta,
        cut_worst_error=cut_worst,
        cut_argmax=argmax,
        cut_threshold=threshold,
    )
    # Guard against an edit to the closed forms or to the pinned beta; these
    # decimals are pinned by the acceptance suite as well.
    assert abs(consts.cut_alpha - 0.8785672) < 1e-6
    assert abs(consts.cut_beta - 0.6891577) < 1e-6
    assert consts.full_worst_error < 0.42084
    assert consts.cut_worst_error < 0.16598
    return consts


CONSTANTS = _compute_constants()


def full_lower_bound_curve(opt, k_max: int = K_CAP):
    """Guaranteed expected modularity of the adaptive rounding scheme as a
    function of the optimum, with the instance-dependent positive mass
    replaced by its upper bound 1.

    Returns opt - min(full_worst_error, min_{k <= k_max} g_k(opt)).
    """
    arr = _check_domain(opt, 0.0, np.nextafter(1.0, 0.0), name="opt")
    k_max = _checked_int("k_max", k_max, 1)
    err = np.minimum(CONSTANTS.full_worst_error, g_table(arr, k_max).min(axis=-1))
    out = arr - err
    return out if out.ndim else float(out)


def cut_envelopes(x):
    """Lower convex envelopes of the signed single-hyperplane same-cluster
    probability on [-1, 1].

    Returns (p_plus_lce, p_minus_lce): the chord alpha*(x+1)/2 glued to the
    probability at cut_beta, and its reflection glued at -cut_beta.
    """
    arr = _check_domain(x, -1.0, 1.0)
    a, b = CONSTANTS.cut_alpha, CONSTANTS.cut_beta
    prob = 1.0 - np.arccos(arr) / np.pi
    plus = np.where(arr <= b, a * (arr + 1.0) / 2.0, prob)
    minus = np.where(arr <= -b, -prob, (a - 1.0) - a * (arr + 1.0) / 2.0)
    if plus.ndim:
        return plus, minus
    return float(plus), float(minus)


def cut_error_function(x):
    """Additive error of single-hyperplane bipartition rounding as a
    function of the positive-mass term on [1/2, 1]:
    x - p_plus_lce(2x - 1) - (cut_alpha - 1)/2."""
    arr = _check_domain(x, 0.5, 1.0)
    plus, _ = cut_envelopes(2.0 * arr - 1.0)
    out = arr - plus - (CONSTANTS.cut_alpha - 1.0) / 2.0
    return out if out.ndim else float(out)


def cut_error_curve(opt_cut):
    """Guaranteed expected modularity of bipartition rounding as a function
    of the bipartition optimum on [0, 1/2].

    Returns opt_cut - min(cut_worst_error, g(opt_cut + 1/2)) where g is
    cut_error_function; beyond cut_threshold the cap never binds because g
    is decreasing there.
    """
    arr = _check_domain(opt_cut, 0.0, 0.5, name="opt_cut")
    err = np.minimum(CONSTANTS.cut_worst_error, cut_error_function(arr + 0.5))
    out = arr - err
    return out if out.ndim else float(out)


def k_cap_for(n: int) -> int:
    """Hyperplane-count cap used by the adaptive scheme: max(3, ceil(log2 n))."""
    return max(3, (_checked_int("n", n, 1) - 1).bit_length())


def verify_auxiliary_bounds(n_range, grid: int = 1000) -> dict:
    """Numeric verification of the auxiliary facts behind the k-cap.

    For each n in ``n_range``, scans an optimum grid over [0, 1 - 1/n] and
    checks the minimizing hyperplane count (k up to K_CAP, smallest first)
    never exceeds max(3, ceil(log2 n)). Also checks sqrt(2x) <= arccos(1-x)
    on [0, 1] and l_k(x) < x + 1/2 on [0, (1+sqrt(5))/4) for k in 3..10.

    Returns a dict with one boolean per check plus scan diagnostics.
    """
    n_range = [_checked_int("n_range item", n, 1) for n in n_range]
    if not n_range:
        raise ValueError("n_range must be nonempty")
    grid = _checked_int("grid", grid, 1)

    cap_ok = True
    worst_argmin = {}
    for n in n_range:
        xs = np.linspace(0.0, 1.0 - 1.0 / n, grid)
        # np.argmin returns the first (smallest) minimizing k
        kmins = np.argmin(g_table(xs, K_CAP), axis=1) + 1
        worst_argmin[n] = int(kmins.max())
        if kmins.max() > k_cap_for(n):
            cap_ok = False

    xs = np.linspace(0.0, 1.0, grid)
    jordan_ok = bool(np.all(np.sqrt(2.0 * xs) <= np.arccos(1.0 - xs) + 1e-12))

    hi = (1.0 + math.sqrt(5.0)) / 4.0
    xs = np.linspace(0.0, hi, grid, endpoint=False)
    lk_ok = all(bool(np.all(l_k(xs, k) < xs + 0.5)) for k in range(3, 11))

    return {
        "k_cap": cap_ok,
        "jordan": jordan_ok,
        "l_k": lk_ok,
        "all_ok": cap_ok and jordan_ok and lk_ok,
        "worst_argmin": worst_argmin,
        "k_scan_limit": K_CAP,
    }
