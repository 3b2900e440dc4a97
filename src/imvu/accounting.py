"""Certified privacy accounting for interpolated mechanisms.

Two routes are implemented.  The L1 route bounds the max divergence of the
scalar mechanism by (eps + eps') |x - x'|, where eps' corrects for the
log-partition term that natural-parameter interpolation introduces.  The L2
route bounds the order-alpha Renyi divergence by alpha * M * (x - x')^2 / 2,
where M is the supremum of the mechanism's Fisher information over the whole
real line; it requires a two-row table with anadromic natural parameters.

Both constants are *certified upper bounds* from cumulant identities of the
exponential family exp(eta + t theta), never bare estimates: eps' from
interval endpoints plus a rounding pad, M from a line search with a
closed-form curvature pad.  Composition is plain additivity; there is no
subsampling amplification.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .mechanism import InterpolatedMechanism, MechanismTable, _softmax, _softmax_terms, _table_of

DEFAULT_ALPHAS = (1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 16.0, 32.0, 64.0)
DEFAULT_DELTA = 1e-5

FISHER_TOL = 1e-9
ANADROMIC_TOL = 1e-9
VERIFY_TOL = 1e-9
_TIE_MARGIN = 1e-12

# Refinement schedule of the certified line search: points per segment, a
# hard cap on total evaluations before giving up, and segments per evaluation.
_SEG_POINTS = 129
_MAX_EVALS = 50_000_000
_CHUNK_SEGMENTS = 64


class AccountingError(RuntimeError):
    """A certified bound could not be produced."""


class AnadromicityError(AccountingError):
    """The Fisher route needs anadromic parameters; run enforce_anadromic,
    or design the table with ``imvu design --symmetrize``."""


class MissingConstantsError(RuntimeError):
    """An operation needs accounting constants that were never attached."""


@dataclass(frozen=True)
class FisherDiagnostics:
    """Trace of one Fisher-supremum run."""

    i_star: float
    x_max: float
    evaluations: int
    rounds: int


def domain_for_beta(beta: float) -> tuple[float, float]:
    """Input range reachable after beta-scaling a clipped value."""
    return (1.0 - beta) / 2.0, (1.0 + beta) / 2.0


def _probs(rows: np.ndarray, i, t: np.ndarray) -> np.ndarray:
    """The mechanism's softmax as C-ordered (N, b_out) rows, for the
    per-input sums and products below."""
    return np.ascontiguousarray(_softmax(rows, i, t).T)


# ---------------------------------------------------------------------------
# L1 route: eps'
# ---------------------------------------------------------------------------


def _eps_prime_impl(table: MechanismTable, domain: tuple[float, float]) -> tuple[float, float]:
    """(eps', rounding pad), from the two endpoints of every interval.

    On interval i the natural parameter is eta_i + t theta_i, so d/dt
    E_t[theta_i] = Var_t(theta_i) >= 0 and |E_t[theta_i]| peaks at an
    endpoint; the boundary intervals are stretched over the accounting
    domain.  The pad covers rounding: lerp and shift move each logit by at
    most 3 eps_mach S, S = (|1 - t| + |t|) max|eta| bounding |eta| before the
    shift, so the mean by range(theta_i) times that; exp, sum and dot
    product add (b_out + 3) eps_mach max|theta_i|.  8 eps_mach (b_out + S)
    max|theta_i| bounds both, with room for the final product by b_in - 1.
    """
    logs = table.log_probs
    if not np.all(np.isfinite(logs)):
        raise ValueError("natural parameters must be finite")
    nseg = table.b_in - 1
    i = np.repeat(np.arange(nseg), 2)
    t = np.tile([0.0, 1.0], nseg)
    t[0] = min(0.0, nseg * float(domain[0]))
    t[-1] = max(1.0, nseg * float(domain[1]) - (nseg - 1))
    theta = np.diff(logs, axis=0)[i]
    h = np.abs(np.sum(_probs(logs, i, t) * theta, axis=1))
    size = (np.abs(1.0 - t) + np.abs(t)) * np.max(np.abs(logs))
    pad = 8.0 * np.finfo(float).eps * (table.b_out + size) * np.max(np.abs(theta), axis=1)
    return float(nseg * np.max(h + pad)), float(nseg * np.max(pad))


def eps_prime(table, domain: tuple[float, float] = (0.0, 1.0)) -> float:
    """Certified log-partition correction for the L1 divergence bound."""
    value, _ = _eps_prime_impl(_table_of(table), domain)
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
    sm = _probs(np.stack((eta1, eta2)), 0, np.atleast_1d(np.asarray(x, dtype=float)))
    vals = np.maximum(sm @ theta**2 - (sm @ theta) ** 2, 0.0)
    return float(vals[0]) if np.ndim(x) == 0 else vals


def _anadromic_residual(eta1, eta2) -> float:
    """max |eta1 - reversed eta2|; two rows are anadromic when it is at most ANADROMIC_TOL."""
    return float(np.max(np.abs(np.asarray(eta1) - np.asarray(eta2)[::-1])))


def _group_mass(rows: np.ndarray, x: float, group: np.ndarray) -> float:
    _, z, total = _softmax_terms(rows, 0, np.array([x]))
    return float(z[group, 0].sum() / total[0])


def fisher_sup(eta1, eta2) -> tuple[float, FisherDiagnostics]:
    """Certified supremum of the Fisher information over the whole real line.

    Anadromic parameters make x = 1/2 a stationary point and the information
    symmetric about it, so only [1/2, x_max] needs searching.  x_max comes
    from the tail bound I(x) <= 4 theta_max^2 s (1 - s) with s the softmax
    mass of the argmax-theta letters: once that mass passes the level where
    the bound drops below I(1/2), no larger value can occur further out.  The
    mass is strictly increasing in x, so x_max is found by bisection.  As
    I = Var_x(theta) <= R^2/4, R the range of theta, and |I''| = |kappa_4| <=
    R^4/4, I on a step of width w is at most min(R^2/4, larger endpoint value
    + R^4 w^2/32).  The line search refines the steps whose bound beats the
    best value, until the pad is below FISHER_TOL everywhere.

    Ties in the argmax of theta are handled by using the total mass of the
    tied group, which leaves the tail bound intact and reduces to the single
    argmax formula when the margin is large.
    """
    eta1 = np.asarray(eta1, dtype=float)
    eta2 = np.asarray(eta2, dtype=float)
    if eta1.shape != eta2.shape or eta1.ndim != 1:
        raise ValueError("eta1 and eta2 must be equal-length vectors")
    resid = _anadromic_residual(eta1, eta2)
    if resid > ANADROMIC_TOL:
        raise AnadromicityError(
            f"natural parameters are not anadromic (residual {resid:.3e}); "
            "run enforce_anadromic on the table first, or design it with "
            "`imvu design --symmetrize`"
        )
    theta = eta2 - eta1
    rows = np.stack((eta1, eta2))
    if not theta.any():
        return 0.0, FisherDiagnostics(0.0, 0.5, 1, 0)

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

    spread = float(theta.max() - theta.min())
    cap = spread**2 / 4.0
    best = i_star
    segments = np.array([[0.5, x_max]]) if x_max > 0.5 else np.empty((0, 2))
    rounds = 0
    while segments.size:
        rounds += 1
        evals += segments.shape[0] * _SEG_POINTS
        kept, n_kept = [], 0
        for start in range(0, segments.shape[0], _CHUNK_SEGMENTS):
            a, b = segments[start : start + _CHUNK_SEGMENTS].T
            xs = np.linspace(a, b, _SEG_POINTS, axis=1)
            vals = fisher_info(eta1, eta2, xs.ravel()).reshape(xs.shape)
            best = max(best, float(vals.max()))
            pad = spread**4 * ((b - a) / (_SEG_POINTS - 1)) ** 2 / 32.0
            upper = np.minimum(np.maximum(vals[:, :-1], vals[:, 1:]) + pad[:, None], cap)
            live = (upper > best + FISHER_TOL) & (pad > FISHER_TOL)[:, None]
            kept.append(np.stack((xs[:, :-1][live], xs[:, 1:][live]), axis=1))
            n_kept += len(kept[-1])
            # checked before the next round's segments grow any further
            if evals + n_kept * _SEG_POINTS > _MAX_EVALS:
                raise AccountingError("line search exceeded its evaluation budget")
        segments = np.concatenate(kept)

    return best + FISHER_TOL, FisherDiagnostics(i_star, x_max, evals, rounds)


def fisher_constant(table) -> tuple[float, FisherDiagnostics]:
    """Fisher supremum of a two-row table (the route needs a global line)."""
    table = _table_of(table)
    if table.b_in != 2:
        raise AccountingError(
            "the Fisher route needs b_in=2: the interpolated log density is "
            "non-differentiable at interior grid points otherwise"
        )
    return fisher_sup(table.log_probs[0], table.log_probs[1])


def _orders(alphas) -> np.ndarray:
    """The RDP orders as floats; there must be one at least, each finite and above 1."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size == 0 or not np.all(np.isfinite(alphas) & (alphas > 1.0)):
        raise ValueError("alphas must be finite orders above 1, at least one")
    return alphas


def l2_round_rdp(m_constant: float, c2_sens: float, alphas=DEFAULT_ALPHAS) -> np.ndarray:
    """Per-round RDP vector: eps_alpha = alpha * M * C^2 / 2."""
    if not (np.isfinite(m_constant) and m_constant >= 0):
        raise ValueError("M must be a non-negative real")
    if not (np.isfinite(c2_sens) and c2_sens >= 0):
        raise ValueError("c2_sens must be a non-negative real")
    return _orders(alphas) * m_constant * c2_sens**2 / 2.0


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
        costs = np.asarray(self.per_round, dtype=float)
        if not np.all(np.isfinite(costs) & (costs >= 0)):
            raise ValueError("per-round costs must be finite and non-negative")
        if self.mode == "pure":
            if costs.ndim != 0:
                raise ValueError("pure mode needs one per-round epsilon")
        else:
            if self.alphas is None:
                raise ValueError("rdp mode needs an alpha grid")
            alphas = _orders(self.alphas)
            if alphas.ndim != 1 or np.any(np.diff(alphas) <= 0):
                raise ValueError("alphas must be ascending")
            if costs.shape != alphas.shape:
                raise ValueError("per_round must have one entry per alpha")


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
    alphas = _orders(alphas)
    if eps_alphas.shape != alphas.shape:
        raise ValueError("eps_alphas must align with the alpha grid")
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


# ---------------------------------------------------------------------------
# Attachment and verification of mechanism constants
# ---------------------------------------------------------------------------


def _certify(mech: InterpolatedMechanism, name: str) -> tuple[float, dict]:
    """(value, certification record) of ``eps_prime`` or ``fisher_m``.

    The one place a constant is certified, so attached, verified and reported
    constants agree.  eps' covers the beta-scaled input range; M needs a
    two-row anadromic table.  The record holds the number of evaluations and
    the pad added to the largest evaluated value.
    """
    table = mech.table
    if name == "eps_prime":
        value, pad = _eps_prime_impl(table, domain_for_beta(mech.beta))
        return value, {"evaluations": 2 * (table.b_in - 1), "pad": pad}
    value, diag = fisher_constant(table)
    return value, {"evaluations": diag.evaluations, "pad": FISHER_TOL}


def attach_accounting(
    mech: InterpolatedMechanism, report: dict | None = None
) -> InterpolatedMechanism:
    """Return a copy of ``mech`` with certified constants attached.

    The Fisher constant is attached only for two-row anadromic tables.
    ``report``, an ``accounting_report`` of this ``mech``, supplies the
    constant it certified, which is then not computed again.
    """
    table = mech.table
    known = report or {}
    ep = known.get("eps_prime")
    if ep is None:
        ep, _ = _certify(mech, "eps_prime")
    fm = known.get("fisher_m")
    if fm is None and table.b_in == 2 and _anadromic_residual(*table.log_probs) <= ANADROMIC_TOL:
        fm, _ = _certify(mech, "fisher_m")
    return replace(mech, eps_prime=ep, fisher_m=fm)


def verify_accounting(mech: InterpolatedMechanism) -> None:
    """Check stored constants against a fresh certification; raise on mismatch."""
    for name in ("eps_prime", "fisher_m"):
        stored = getattr(mech, name)
        if stored is None:
            continue
        fresh, _ = _certify(mech, name)
        if abs(fresh - stored) > VERIFY_TOL:
            raise AccountingError(
                f"stored {name} {stored!r} does not match recomputation {fresh!r}"
            )


def accounting_report(
    mechanism_file: str,
    mech: InterpolatedMechanism,
    mode: str,
    rounds: int,
    delta: float = DEFAULT_DELTA,
    c_sens: float | None = None,
    alphas=DEFAULT_ALPHAS,
) -> dict:
    """Full accounting run emitted as a plain document.

    The default sensitivity is beta: after beta-scaling, two clipped inputs
    differ by at most beta in the clip's norm.  The pure route charges the
    l1 distance, which an l2 clip bounds only by beta * sqrt(d), so pure
    mode under an l2 clip needs an explicit ``c_sens``.
    """
    if mode not in ("pure", "rdp"):
        raise ValueError(f"mode must be 'pure' or 'rdp', got {mode!r}")
    if mode == "pure" and c_sens is None and mech.clip.norm != "l1":
        raise ValueError(
            "the pure route charges l1 sensitivity, which an l2 clip bounds only by "
            "beta * sqrt(d); give it with --c-sens (c_sens)"
        )
    sens = mech.beta if c_sens is None else float(c_sens)
    name = "eps_prime" if mode == "pure" else "fisher_m"
    value, certification = _certify(mech, name)
    ledger = imvu_ledger(replace(mech, **{name: value}), mode, rounds, sens, delta, alphas)
    composed = compose(ledger)
    if mode == "pure":
        per_round, delta, eps_dp, alpha_star = ledger.per_round, 0.0, composed, None
    else:
        eps_dp, alpha_star = rdp_to_dp(composed, delta, alphas)
        per_round, composed = list(map(float, ledger.per_round)), list(map(float, composed))
    return {
        "mechanism_file": mechanism_file,
        "mode": mode,
        name: value,
        "c_sens": sens,
        "rounds": rounds,
        "per_round": per_round,
        "composed": composed,
        "delta": delta,
        "eps_dp": eps_dp,
        "argmin_alpha": alpha_star,
        "certification": certification,
    }
