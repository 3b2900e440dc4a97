"""Exact brute-force computations over the finite output space.

These are the ground truth for every certified bound and for the designer's
scale search: divergences are evaluated by direct log-domain enumeration,
never sampled, the joint computations enumerate the full product outcome
space, and the design optimum is scanned over a dense scale grid.
"""

from __future__ import annotations

import itertools

import numpy as np

from .mechanism import MechanismTable, log_pmf

_PAIR_SUM_TOL = 1e-12
MAX_JOINT_OUTCOMES = 4096


def _check_pair(p: np.ndarray, q: np.ndarray):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("p and q must be equal-length probability vectors")
    if np.any(p <= 0) or np.any(q <= 0):
        raise ValueError("probability vectors must be strictly positive")
    if abs(p.sum() - 1.0) > _PAIR_SUM_TOL or abs(q.sum() - 1.0) > _PAIR_SUM_TOL:
        raise ValueError("probability vectors must sum to 1 within 1e-12")
    return p, q


def exact_max_divergence(p, q) -> float:
    """Max divergence on finite support: max_j |log p_j - log q_j|."""
    p, q = _check_pair(p, q)
    return float(np.max(np.abs(np.log(p) - np.log(q))))


def exact_renyi(p, q, alpha: float) -> float:
    """Order-alpha Renyi divergence on finite support.

    (1/(alpha-1)) * log sum_j p_j^alpha q_j^(1-alpha), accumulated in the log
    domain.  Tends to the max divergence as alpha grows.
    """
    p, q = _check_pair(p, q)
    if not (np.isfinite(alpha) and alpha > 1.0):
        raise ValueError("alpha must be a finite real greater than 1")
    return _renyi_from_logs(np.log(p), np.log(q), alpha)


def _renyi_from_logs(lp: np.ndarray, lq: np.ndarray, alpha: float) -> float:
    if np.isinf(alpha):
        return float(np.max(np.abs(lp - lq)))
    t = alpha * lp + (1.0 - alpha) * lq
    m = t.max()
    return float((m + np.log(np.sum(np.exp(t - m)))) / (alpha - 1.0))


def joint_divergence_bruteforce(table: MechanismTable, xvec, xvec_prime, alpha: float,
                                max_dim: int = 3) -> float:
    """Renyi divergence of the full product distribution, by enumeration.

    Enumerates all b_out^d outcomes of the coordinate-independent mechanism
    at the two input vectors; by independence this equals the sum of the
    coordinate divergences, which the tests assert.  alpha may be np.inf for
    the max divergence.
    """
    xvec = np.asarray(xvec, dtype=float)
    xvec_prime = np.asarray(xvec_prime, dtype=float)
    if xvec.shape != xvec_prime.shape or xvec.ndim != 1:
        raise ValueError("input vectors must be equal-length 1-D arrays")
    d = xvec.size
    if d > max_dim:
        raise ValueError(f"joint enumeration limited to {max_dim} dimensions")
    lp_rows = np.atleast_2d(log_pmf(table, xvec))
    lq_rows = np.atleast_2d(log_pmf(table, xvec_prime))
    b_out = lp_rows.shape[1]
    if b_out**d > MAX_JOINT_OUTCOMES:
        raise ValueError(
            f"joint outcome space {b_out}^{d} exceeds {MAX_JOINT_OUTCOMES}"
        )
    lp_joint = np.zeros(1)
    lq_joint = np.zeros(1)
    for k in range(d):
        lp_joint = (lp_joint[:, None] + lp_rows[k][None, :]).ravel()
        lq_joint = (lq_joint[:, None] + lq_rows[k][None, :]).ravel()
    return _renyi_from_logs(lp_joint, lq_joint, alpha)


def fisher_grid_max(table: MechanismTable, x_range: tuple[float, float], n: int) -> float:
    """Dense-grid maximum of a two-row table's Fisher information over x_range.

    Independent check of the certified supremum; n must be at least 10^4 so
    the grid meaningfully probes the range.
    """
    from .accounting import fisher_info

    if n < 10_000:
        raise ValueError("fisher_grid_max needs at least 10^4 grid points")
    lo, hi = float(x_range[0]), float(x_range[1])
    best = 0.0
    chunk = 1 << 20
    edges = np.linspace(lo, hi, n)
    for start in range(0, n, chunk):
        vals = fisher_info(table, edges[start : start + chunk])
        best = max(best, float(np.max(vals)))
    return best


def eps_prime_grid_max(table, domain: tuple[float, float], n: int) -> float:
    """Dense-grid eps': (b_in - 1) max |E_x[theta_i]| over n >= 10^4 points per
    interval i, the boundary intervals stretched over ``domain``."""
    if n < 10_000:
        raise ValueError("eps_prime_grid_max needs at least 10^4 points per interval")
    nseg = table.b_in - 1
    edges = np.linspace(0.0, 1.0, nseg + 1)
    edges[0], edges[-1] = min(0.0, domain[0]), max(1.0, domain[1])
    theta = np.diff(table.log_probs, axis=0)
    probs = (np.exp(log_pmf(table, np.linspace(edges[i], edges[i + 1], n))) for i in range(nseg))
    return nseg * max(float(np.max(np.abs(p @ th))) for p, th in zip(probs, theta))


def design_variance_grid_min(b_in: int, b_out: int, eps: float, n: int) -> float:
    """Least design-LP variance over n evenly spaced alphabet scales spanning
    the whole bracket ``DesignSpec.scale_range()``, both ends included; inf if
    the LP solves at none.  Brute-force counterpart of the exact scale search."""
    from .designer import DesignSpec, _solve_lp

    if n < 2:
        raise ValueError("design_variance_grid_min needs at least 2 scales")
    lo, hi = DesignSpec(b_in, b_out, eps).scale_range()
    return min(_solve_lp(b_in, b_out, eps, s) for s in np.linspace(lo, hi, n))
