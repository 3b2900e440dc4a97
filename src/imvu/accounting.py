"""Certified privacy accounting for interpolated mechanisms.

Two routes are implemented.  The L1 route bounds the max divergence of the
scalar mechanism by (eps + eps') |x - x'|, where eps' corrects for the
log-partition term that natural-parameter interpolation introduces.  The L2
route bounds the order-alpha Renyi divergence by alpha * M * (x - x')^2 / 2,
where M is the supremum of the mechanism's Fisher information over the whole
real line; it requires a two-row table with anadromic natural parameters.

Both constants are *certified upper bounds*: dense-grid maxima padded by a
bound on the integrand's derivative, never bare estimates.  Composition is
plain additivity; there is no subsampling amplification.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .mechanism import InterpolatedMechanism, MechanismTable, _logits, _softmax, _table_of

DEFAULT_ALPHAS = (1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 16.0, 32.0, 64.0)
DEFAULT_DELTA = 1e-5

GRID_POINTS_PER_INTERVAL = 10_000
FISHER_TOL = 1e-9
ANADROMIC_TOL = 1e-9
_TIE_MARGIN = 1e-12

# Refinement schedule of the certified line search: points per segment and a
# hard cap on total evaluations before giving up.
_SEG_POINTS = 129
_MAX_EVALS = 50_000_000


class AccountingError(RuntimeError):
    """A certified bound could not be produced."""


class AnadromicityError(AccountingError):
    """The Fisher route needs anadromic parameters; run enforce_anadromic."""


class MissingConstantsError(RuntimeError):
    """An operation needs accounting constants that were never attached."""


@dataclass(frozen=True)
class FisherDiagnostics:
    """Trace of one Fisher-supremum run."""

    i_star: float
    x_max: float
    sigma_target: float
    evaluations: int
    rounds: int
    pad: float


def domain_for_beta(beta: float) -> tuple[float, float]:
    """Input range reachable after beta-scaling a clipped value."""
    return (1.0 - beta) / 2.0, (1.0 + beta) / 2.0


# ---------------------------------------------------------------------------
# L1 route: eps'
# ---------------------------------------------------------------------------


def _eps_prime_impl(
    table: MechanismTable,
    domain: tuple[float, float],
    grid_points_per_interval: int,
) -> tuple[float, float]:
    """(eps', max pad used).  Scans every interval densely.

    On interval i the interpolated parameter moves along theta_i = eta_{i+1}
    - eta_i, and h(xi) = |softmax(eta(xi)) . theta_i|.  |dh/dxi| is
    (b_in - 1) |Var_softmax(theta_i)| <= (b_in - 1)(max theta - min theta)^2/4
    (variance of a bounded variable), which pads the grid maximum into a
    certified supremum.  The boundary intervals are extended to cover the
    accounting domain, matching the sampler's extrapolation rule.
    """
    if grid_points_per_interval < 2:
        raise ValueError("grid_points_per_interval must be at least 2")
    logs = table.log_probs
    if not np.all(np.isfinite(logs)):
        raise ValueError("natural parameters must be finite")
    nseg = table.b_in - 1
    lo_dom = min(float(domain[0]), 0.0)
    hi_dom = max(float(domain[1]), 1.0)
    best = 0.0
    worst_pad = 0.0
    for i in range(nseg):
        seg_lo = i / nseg if i > 0 else lo_dom
        seg_hi = (i + 1) / nseg if i < nseg - 1 else hi_dom
        theta = logs[i + 1] - logs[i]
        xs = np.linspace(seg_lo, seg_hi, grid_points_per_interval)
        sm = _softmax(logs, i, xs * nseg - i)
        h = np.abs(sm @ theta)
        lip = nseg * (theta.max() - theta.min()) ** 2 / 4.0
        step = (seg_hi - seg_lo) / (grid_points_per_interval - 1)
        pad = lip * step / 2.0
        best = max(best, float(h.max()) + pad)
        worst_pad = max(worst_pad, pad)
    return nseg * best, nseg * worst_pad


def eps_prime(
    table,
    domain: tuple[float, float] = (0.0, 1.0),
    grid_points_per_interval: int = GRID_POINTS_PER_INTERVAL,
) -> float:
    """Certified log-partition correction for the L1 divergence bound."""
    value, _ = _eps_prime_impl(_table_of(table), domain, grid_points_per_interval)
    return value


def l1_round_eps(mech: InterpolatedMechanism, c1_sens: float) -> float:
    """Per-round pure epsilon: (design eps + eps') * L1 sensitivity."""
    if mech.eps_prime is None:
        raise MissingConstantsError("eps_prime not attached; run attach_accounting first")
    if not (np.isfinite(c1_sens) and c1_sens >= 0):
        raise ValueError("c1_sens must be a non-negative real")
    return (mech.table.design_eps + mech.eps_prime) * c1_sens


# ---------------------------------------------------------------------------
# L2 route: Fisher information
# ---------------------------------------------------------------------------


def fisher_info(eta1, eta2, x) -> float | np.ndarray:
    """Fisher information of the interpolated two-row mechanism at x.

    Closed form theta' U theta with U the softmax covariance at
    eta(x) = (1-x) eta1 + x eta2; equals the defining expectation
    E[(d/dx log f)^2], which the tests verify by finite differences.
    """
    eta1 = np.asarray(eta1, dtype=float)
    eta2 = np.asarray(eta2, dtype=float)
    if eta1.shape != eta2.shape or eta1.ndim != 1:
        raise ValueError("eta1 and eta2 must be equal-length vectors")
    if not (np.all(np.isfinite(eta1)) and np.all(np.isfinite(eta2))):
        raise ValueError("natural parameters must be finite")
    theta = eta2 - eta1
    sm = _softmax(np.stack((eta1, eta2)), 0, np.atleast_1d(np.asarray(x, dtype=float)))
    vals = sm @ theta**2 - (sm @ theta) ** 2
    vals = np.maximum(vals, 0.0)
    return float(vals[0]) if np.ndim(x) == 0 else vals


def _group_mass(rows: np.ndarray, x: float, group: np.ndarray) -> float:
    z = np.exp(_logits(rows, 0, np.array([x]))[0])
    return float(z[group].sum() / z.sum())


def fisher_sup(eta1, eta2, tol: float = FISHER_TOL) -> tuple[float, FisherDiagnostics]:
    """Certified supremum of the Fisher information over the whole real line.

    Anadromic parameters make x = 1/2 a stationary point and the information
    symmetric about it, so only [1/2, x_max] needs searching.  x_max comes
    from the tail bound I(x) <= 4 theta_max^2 s (1 - s) with s the softmax
    mass of the argmax-theta letters: once that mass passes the level where
    the bound drops below I(1/2), no larger value can occur further out.  The
    mass is strictly increasing in x, so x_max is found by bisection.  The
    line search refines a padded grid (|I'| <= 6 max|theta|^3) and prunes
    segments whose padded bound cannot beat the best value, until the pad is
    below tol everywhere.

    Ties in the argmax of theta are handled by using the total mass of the
    tied group, which leaves the tail bound intact and reduces to the single
    argmax formula when the margin is large.
    """
    eta1 = np.asarray(eta1, dtype=float)
    eta2 = np.asarray(eta2, dtype=float)
    if eta1.shape != eta2.shape or eta1.ndim != 1:
        raise ValueError("eta1 and eta2 must be equal-length vectors")
    resid = float(np.max(np.abs(eta1 - eta2[::-1])))
    if resid > ANADROMIC_TOL:
        raise AnadromicityError(
            f"natural parameters are not anadromic (residual {resid:.3e}); "
            "run enforce_anadromic on the table first"
        )
    theta = eta2 - eta1
    rows = np.stack((eta1, eta2))
    t_abs = float(np.max(np.abs(theta)))
    if t_abs == 0.0:
        diag = FisherDiagnostics(0.0, 0.5, 0.5, 1, 0, 0.0)
        return 0.0, diag

    t_max = float(theta.max())
    group = theta >= t_max - _TIE_MARGIN
    t_group = float(theta[group].min())

    i_star = float(fisher_info(eta1, eta2, 0.5))
    root = float(np.sqrt(max(0.0, t_max**2 - i_star)))
    sigma_target = (t_max + root) / (t_group + t_max)
    if sigma_target >= 1.0 - 1e-12:
        raise AccountingError(
            "tail certificate unattainable: stationary-point information is "
            "negligible relative to the extreme letters"
        )

    evals = 1
    if _group_mass(rows, 0.5, group) >= sigma_target:
        x_max = 0.5
    else:
        hi, step = 0.5, 0.5
        for _ in range(200):
            hi += step
            step *= 2.0
            evals += 1
            if _group_mass(rows, hi, group) >= sigma_target:
                break
        else:
            raise AccountingError("argmax mass never reached the tail threshold")
        lo = 0.5
        # 200 halvings reach either the 1e-12 tolerance or float resolution;
        # stopping early only widens the searched interval, never the bound
        for _ in range(200):
            if hi - lo <= 1e-12:
                break
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            evals += 1
            if _group_mass(rows, mid, group) < sigma_target:
                lo = mid
            else:
                hi = mid
        x_max = hi  # right endpoint keeps the tail certificate valid

    lip = 6.0 * t_abs**3
    best = i_star
    segments = [(0.5, x_max)] if x_max > 0.5 else []
    rounds = 0
    while segments:
        rounds += 1
        xs_parts = [np.linspace(a, b, _SEG_POINTS) for a, b in segments]
        xs = np.concatenate(xs_parts)
        evals += xs.size
        if evals > _MAX_EVALS:
            raise AccountingError("line search exceeded its evaluation budget")
        vals = fisher_info(eta1, eta2, xs)
        best = max(best, float(vals.max()))
        new_segments = []
        pos = 0
        for a, b in segments:
            v = vals[pos : pos + _SEG_POINTS]
            seg_xs = xs[pos : pos + _SEG_POINTS]
            pos += _SEG_POINTS
            width = (b - a) / (_SEG_POINTS - 1)
            pad = lip * width / 2.0
            if pad <= tol:
                continue
            upper = np.maximum(v[:-1], v[1:]) + pad
            for idx in np.nonzero(upper > best + tol)[0]:
                new_segments.append((float(seg_xs[idx]), float(seg_xs[idx + 1])))
        segments = new_segments

    m_value = best + tol
    diag = FisherDiagnostics(
        i_star=i_star,
        x_max=x_max,
        sigma_target=sigma_target,
        evaluations=evals,
        rounds=rounds,
        pad=tol,
    )
    return m_value, diag


def fisher_constant(table, tol: float = FISHER_TOL) -> tuple[float, FisherDiagnostics]:
    """Fisher supremum of a two-row table (the route needs a global line)."""
    table = _table_of(table)
    if table.b_in != 2:
        raise AccountingError(
            "the Fisher route needs b_in=2: the interpolated log density is "
            "non-differentiable at interior grid points otherwise"
        )
    return fisher_sup(table.log_probs[0], table.log_probs[1], tol=tol)


def l2_round_rdp(m_constant: float, c2_sens: float, alphas=DEFAULT_ALPHAS) -> np.ndarray:
    """Per-round RDP vector: eps_alpha = alpha * M * C^2 / 2."""
    if not (np.isfinite(m_constant) and m_constant >= 0):
        raise ValueError("M must be a non-negative real")
    if not (np.isfinite(c2_sens) and c2_sens >= 0):
        raise ValueError("c2_sens must be a non-negative real")
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size == 0 or np.any(alphas <= 1.0):
        raise ValueError("all alphas must exceed 1")
    return alphas * m_constant * c2_sens**2 / 2.0


# ---------------------------------------------------------------------------
# Ledger, composition, conversion
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PrivacyLedger:
    """Per-round cost plus composition state.

    ``per_round`` is a scalar epsilon in pure mode and one epsilon per alpha
    in rdp mode.  Composition over rounds is additive.
    """

    mode: str
    per_round: float | np.ndarray
    rounds: int
    delta: float = DEFAULT_DELTA
    alphas: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.mode not in ("pure", "rdp"):
            raise ValueError(f"mode must be 'pure' or 'rdp', got {self.mode!r}")
        if self.rounds < 0:
            raise ValueError("rounds must be non-negative")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.mode == "pure":
            if np.ndim(self.per_round) != 0 or self.per_round < 0:
                raise ValueError("pure mode needs one non-negative per-round epsilon")
        else:
            if self.alphas is None:
                raise ValueError("rdp mode needs an alpha grid")
            alphas = np.asarray(self.alphas, dtype=float)
            costs = np.asarray(self.per_round, dtype=float)
            if alphas.ndim != 1 or np.any(np.diff(alphas) <= 0) or np.any(alphas <= 1.0):
                raise ValueError("alphas must be ascending and all exceed 1")
            if costs.shape != alphas.shape or np.any(costs < 0):
                raise ValueError("per_round must be non-negative, one entry per alpha")


def imvu_ledger(mech: InterpolatedMechanism, mode: str, rounds: int, sens: float,
                delta: float, alphas: tuple[float, ...]) -> PrivacyLedger:
    """Ledger of an attached mechanism: eps' route in pure mode, Fisher route in rdp mode."""
    if mode == "pure":
        return PrivacyLedger("pure", l1_round_eps(mech, sens), rounds, delta=delta)
    if mech.fisher_m is None:
        raise MissingConstantsError(
            "fisher_m not attached; run attach_accounting on an anadromic table"
        )
    per_round = l2_round_rdp(mech.fisher_m, sens, alphas)
    return PrivacyLedger("rdp", per_round, rounds, delta=delta, alphas=tuple(alphas))


def compose(ledger: PrivacyLedger):
    """Total cost after ``rounds`` repetitions (additivity)."""
    if ledger.mode == "pure":
        return ledger.rounds * float(ledger.per_round)
    return ledger.rounds * np.asarray(ledger.per_round, dtype=float)


def rdp_to_dp(eps_alphas, delta: float, alphas=DEFAULT_ALPHAS) -> tuple[float, float]:
    """Best (epsilon, delta)-DP conversion over the alpha grid.

    eps = eps_alpha + log((alpha-1)/alpha) - (log delta + log alpha)/(alpha-1)
    evaluated with natural logarithms; returns the minimum and its alpha.
    """
    eps_alphas = np.asarray(eps_alphas, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size == 0:
        raise ValueError("alpha grid must be non-empty")
    if eps_alphas.shape != alphas.shape:
        raise ValueError("eps_alphas must align with the alpha grid")
    if np.any(alphas <= 1.0):
        raise ValueError("all alphas must exceed 1")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    converted = (
        eps_alphas
        + np.log((alphas - 1.0) / alphas)
        - (np.log(delta) + np.log(alphas)) / (alphas - 1.0)
    )
    k = int(np.argmin(converted))
    return float(converted[k]), float(alphas[k])


def spent_epsilon(ledger: PrivacyLedger, rounds: int | None = None) -> float:
    """(eps, delta)-DP guarantee after the given number of rounds."""
    t = ledger.rounds if rounds is None else rounds
    if ledger.mode == "pure":
        return t * float(ledger.per_round)
    total = t * np.asarray(ledger.per_round, dtype=float)
    eps, _ = rdp_to_dp(total, ledger.delta, ledger.alphas)
    return eps


def spent_trajectory(ledger: PrivacyLedger) -> np.ndarray:
    """Spent epsilon after rounds 1..T; non-decreasing by construction."""
    return np.array([spent_epsilon(ledger, t) for t in range(1, ledger.rounds + 1)])


def baseline_budgets(kind: str, *, sigma: float | None = None, eps: float | None = None,
                     alphas=DEFAULT_ALPHAS):
    """Per-round cost of the non-compressed baselines.

    gaussian_rdp: noise std sigma * C at sensitivity C gives
    eps_alpha = alpha / (2 sigma^2), independent of C.  laplace_pure: scale
    C1/eps at sensitivity C1 gives pure eps.
    """
    if kind == "gaussian_rdp":
        if sigma is None or sigma <= 0:
            raise ValueError("gaussian_rdp needs a positive noise multiplier sigma")
        return np.asarray(alphas, dtype=float) / (2.0 * sigma**2)
    if kind == "laplace_pure":
        if eps is None or eps <= 0:
            raise ValueError("laplace_pure needs a positive epsilon")
        return float(eps)
    raise ValueError(f"unknown baseline kind {kind!r}")


# ---------------------------------------------------------------------------
# Attachment and verification of mechanism constants
# ---------------------------------------------------------------------------


def attach_accounting(
    mech: InterpolatedMechanism,
    grid_points_per_interval: int = GRID_POINTS_PER_INTERVAL,
    fisher_tol: float = FISHER_TOL,
) -> InterpolatedMechanism:
    """Return a copy of ``mech`` with certified constants attached.

    eps' is computed over the beta-scaled input range.  The Fisher constant
    is attached only for two-row anadromic tables.  Mechanism files are
    re-verified against the default certification parameters on load, so use
    the defaults for anything that will be saved.
    """
    table = mech.table
    ep = eps_prime(table, domain_for_beta(mech.beta), grid_points_per_interval)
    fm = None
    if table.b_in == 2:
        resid = float(np.max(np.abs(table.log_probs[0] - table.log_probs[1, ::-1])))
        if resid <= ANADROMIC_TOL:
            fm, _ = fisher_sup(table.log_probs[0], table.log_probs[1], tol=fisher_tol)
    return replace(mech, eps_prime=ep, fisher_m=fm)


def verify_accounting(mech: InterpolatedMechanism, tol: float = 1e-9) -> None:
    """Check stored constants against a fresh computation; raise on mismatch."""
    if mech.eps_prime is not None:
        fresh = eps_prime(mech.table, domain_for_beta(mech.beta))
        if abs(fresh - mech.eps_prime) > tol:
            raise AccountingError(
                f"stored eps_prime {mech.eps_prime!r} does not match "
                f"recomputation {fresh!r}"
            )
    if mech.fisher_m is not None:
        fresh, _ = fisher_constant(mech.table)
        if abs(fresh - mech.fisher_m) > tol:
            raise AccountingError(
                f"stored fisher_m {mech.fisher_m!r} does not match "
                f"recomputation {fresh!r}"
            )


def accounting_report(
    mechanism_file: str,
    mech: InterpolatedMechanism,
    mode: str,
    rounds: int,
    delta: float = DEFAULT_DELTA,
    c_sens: float | None = None,
    alphas=DEFAULT_ALPHAS,
    grid_points_per_interval: int = GRID_POINTS_PER_INTERVAL,
    fisher_tol: float = FISHER_TOL,
) -> dict:
    """Full accounting run emitted as a plain document.

    The default sensitivity is beta: after beta-scaling, two clipped inputs
    differ by at most beta in the relevant norm.
    """
    table = mech.table
    sens = mech.beta if c_sens is None else float(c_sens)
    if mode == "pure":
        value, pad = _eps_prime_impl(
            table, domain_for_beta(mech.beta), grid_points_per_interval
        )
        ledger = imvu_ledger(replace(mech, eps_prime=value), "pure", rounds, sens, delta, alphas)
        per_round = ledger.per_round
        composed = compose(ledger)
        return {
            "mechanism_file": mechanism_file,
            "mode": "pure",
            "eps_prime": value,
            "c_sens": sens,
            "rounds": rounds,
            "per_round": per_round,
            "composed": composed,
            "delta": 0.0,
            "eps_dp": composed,
            "argmin_alpha": None,
            "certification": {
                "grid_points": grid_points_per_interval * (table.b_in - 1),
                "pad": pad,
            },
        }
    if mode == "rdp":
        m_value, diag = fisher_constant(table, tol=fisher_tol)
        ledger = imvu_ledger(replace(mech, fisher_m=m_value), "rdp", rounds, sens, delta, alphas)
        per_round = ledger.per_round
        composed = compose(ledger)
        eps_dp, alpha_star = rdp_to_dp(composed, delta, alphas)
        return {
            "mechanism_file": mechanism_file,
            "mode": "rdp",
            "fisher_m": m_value,
            "c_sens": sens,
            "rounds": rounds,
            "per_round": list(map(float, per_round)),
            "composed": list(map(float, composed)),
            "delta": delta,
            "eps_dp": eps_dp,
            "argmin_alpha": alpha_star,
            "certification": {"grid_points": diag.evaluations, "pad": diag.pad},
        }
    raise ValueError(f"mode must be 'pure' or 'rdp', got {mode!r}")
