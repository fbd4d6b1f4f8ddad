"""Transient analysis of CTMCs via uniformisation (Jensen's method).

Uniformisation expresses the transient distribution of a CTMC as a Poisson
mixture of powers of the uniformised DTMC,

    pi(t) = sum_{k >= 0} PoissonPMF(k; Lambda t) * pi(0) P^k,

with ``P = I + Q / Lambda`` and ``Lambda >= max_i |q_ii|``.  The series is
truncated to the window :func:`poisson_window` keeping all but ``tol`` of the
Poisson mass, so one series covers any horizon.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.markov.solvers import uniformization_rate

__all__ = [
    "poisson_truncation_point",
    "poisson_window",
    "transient_distribution",
    "uniformize",
    "uniformized_series",
]


def uniformize(generator, rate: float | None = None) -> tuple[sp.csr_matrix, float]:
    """Return the uniformised DTMC matrix ``P`` and the uniformisation rate.

    Parameters
    ----------
    generator:
        CTMC generator matrix (dense or sparse).
    rate:
        Uniformisation rate ``Lambda``; must be at least the largest exit rate.
        Chosen automatically when omitted.
    """
    if sp.issparse(generator):
        q = generator.tocsr().astype(float)
    else:
        q = sp.csr_matrix(np.asarray(generator, dtype=float))
    lam = uniformization_rate(q) if rate is None else float(rate)
    max_exit = float(np.max(np.abs(q.diagonal()))) if q.shape[0] else 0.0
    if lam < max_exit:
        raise ValueError(
            f"uniformisation rate {lam} is smaller than the maximum exit rate {max_exit}"
        )
    if lam <= 0:
        # Degenerate chain with no transitions at all.
        return sp.eye(q.shape[0], format="csr"), 1.0
    p = sp.eye(q.shape[0], format="csr") + q.multiply(1.0 / lam)
    return p.tocsr(), lam


#: Mean above which :func:`poisson_truncation_point` switches from the exact
#: linear scan to the guarded normal-approximation jump.  Below it the scan is
#: bitwise-identical to the historical implementation.
_SCAN_MEAN_THRESHOLD = 32.0


def poisson_truncation_point(mean: float, tol: float) -> int:
    """Return a ``k`` such that the Poisson CDF at ``k`` exceeds ``1 - tol``.

    For ``mean <= 32`` this is the *smallest* such ``k``, found by the exact
    linear scan (bitwise-identical to the historical implementation).  For
    larger means -- the paper preset's 26k-state chain pushes ``Lambda * t``
    into the tens of thousands, where an O(mean) scan per uniformisation step
    dominates the solve -- the start point jumps straight to the
    Cornish-Fisher normal-approximation quantile and then walks upward until
    a certified geometric tail bound proves the coverage, returning in
    O(sqrt(mean)) arithmetic operations.  The result may exceed the smallest
    admissible ``k`` by a few terms (the bound is conservative), which only
    costs the caller some vanishing-weight series terms; the coverage
    guarantee ``CDF(k) >= 1 - tol`` always holds.
    """
    if mean < 0:
        raise ValueError("mean must be non-negative")
    if mean == 0:
        return 0
    if mean <= _SCAN_MEAN_THRESHOLD:
        # Walk the PMF recursively; for small means this is cheap and avoids
        # scipy.stats overhead inside tight loops.
        pmf = np.exp(-mean)
        cdf = pmf
        k = 0
        # Upper guard: mean + 12 * sqrt(mean) + 30 comfortably covers tol >= 1e-15.
        guard = int(mean + 12.0 * np.sqrt(mean) + 30.0)
        while cdf < 1.0 - tol and k < guard:
            k += 1
            pmf *= mean / k
            cdf += pmf
        return k

    from math import lgamma, log, sqrt

    from scipy.special import ndtri

    # Cornish-Fisher expansion of the Poisson quantile: the normal quantile z
    # corrected for the skewness 1 / sqrt(mean).
    z = max(0.0, float(ndtri(min(1.0 - tol, 1.0 - 1e-16))))
    k = int(mean + z * sqrt(mean) + (z * z - 1.0) / 6.0) + 1
    k = max(k, int(mean) + 1)

    # Certified coverage: P(X > k) <= pmf(k+1) / (1 - mean / (k + 2)) because
    # the PMF beyond the mode decays at least geometrically with ratio
    # mean / (k + 2).  Walk k upward (incremental log-PMF updates) until the
    # bound proves the tail below tol; from the Cornish-Fisher start this
    # takes O(sqrt(mean)) unit steps at worst.
    log_mean = log(mean)
    log_pmf_next = -mean + (k + 1) * log_mean - lgamma(k + 2.0)
    guard = k + int(12.0 * sqrt(mean) + 30.0)
    while k < guard:
        ratio = mean / (k + 2.0)
        log_tail_bound = log_pmf_next - log(1.0 - ratio)
        if log_tail_bound <= log(tol):
            break
        k += 1
        log_pmf_next += log_mean - log(k + 1.0)
    return k


def poisson_window(mean: float, tol: float) -> tuple[int, int, np.ndarray]:
    """Return the Fox-Glynn window ``(L, R, w)`` of the Poisson(``mean``) PMF.

    ``w[k - L]`` approximates ``PoissonPMF(k; mean)`` for ``L <= k <= R`` and
    the window drops at most ``tol / 2`` of mass on each side.  Following
    Fox & Glynn ("Computing Poisson probabilities", CACM 31(4), 1988) the
    weights are built outward from the mode by the PMF recurrence, starting
    from 1 at the mode, and normalised by their own sum: no ``exp(-mean)``
    is ever formed, so nothing underflows at any mean.  The recurrence runs
    ``12 sqrt(mean) + 30`` terms left of the mode (the left tail beyond is
    below ``exp(-72)``); ``R`` is :func:`poisson_truncation_point` at
    ``tol / 2``.
    """
    if mean < 0:
        raise ValueError("mean must be non-negative")
    mode = int(mean)
    right = max(mode, poisson_truncation_point(mean, tol / 2.0))
    low = max(0, mode - int(12.0 * np.sqrt(mean) + 30.0))
    # Ratios w[k] / w[k + 1] = (k + 1) / mean walking down from the mode, and
    # w[k + 1] / w[k] = mean / (k + 1) walking up to R.
    down = np.cumprod(np.arange(mode, low, -1, dtype=float) / mean)[::-1]
    up = np.cumprod(mean / np.arange(mode + 1, right + 1, dtype=float))
    weights = np.concatenate((down, [1.0], up))
    weights /= weights.sum()
    # Trim the left tail: drop the leading weights whose mass is <= tol / 2.
    cut = int(np.searchsorted(np.cumsum(weights), tol / 2.0, side="right"))
    return low + cut, right, weights[cut:]


def uniformized_series(
    step: Callable[[np.ndarray], np.ndarray],
    pi: np.ndarray,
    mean: float,
    tol: float,
    *,
    first_step: np.ndarray | None = None,
) -> np.ndarray:
    """Return ``sum_{k=L..R} w_k pi P^k`` over the :func:`poisson_window`.

    ``step`` applies the uniformised DTMC, ``v -> v P``; it is called ``R``
    times (``R - 1`` when ``first_step`` supplies a precomputed ``pi P``),
    and terms left of ``L`` are propagated but never accumulated.  The result
    is renormalised to unit mass, which accounts for the truncated tails.
    """
    left, right, weights = poisson_window(mean, tol)
    result = weights[0] * pi if left == 0 else np.zeros_like(pi)
    term = pi
    for k in range(1, right + 1):
        term = first_step if k == 1 and first_step is not None else step(term)
        if k >= left:
            result += weights[k - left] * term
    total = result.sum()
    if total > 0:
        result /= total
    return result


def transient_distribution(
    generator,
    initial: np.ndarray | Sequence[float],
    time: float,
    *,
    tol: float = 1e-12,
) -> np.ndarray:
    """Return the CTMC state distribution at ``time`` starting from ``initial``.

    Parameters
    ----------
    generator:
        CTMC generator matrix.
    initial:
        Initial probability vector.
    time:
        Elapsed time; must be non-negative.
    tol:
        Truncation error bound for the Poisson series.
    """
    if time < 0:
        raise ValueError("time must be non-negative")
    pi0 = np.asarray(initial, dtype=float)
    if pi0.ndim != 1:
        raise ValueError("initial distribution must be a vector")
    total = pi0.sum()
    if total <= 0 or not np.isfinite(total):
        raise ValueError("initial distribution must have positive finite mass")
    pi0 = pi0 / total

    p, lam = uniformize(generator)
    if pi0.shape[0] != p.shape[0]:
        raise ValueError("initial distribution length does not match number of states")
    if time == 0:
        return pi0.copy()
    pt = p.T.tocsr()
    return uniformized_series(pt.dot, pi0, lam * time, tol)
