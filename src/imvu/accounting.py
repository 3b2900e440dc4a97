"""Certified privacy accounting for interpolated mechanisms.

Two routes are implemented.  The L1 route bounds the max divergence of the
scalar mechanism by (eps + eps') |x - x'|, where eps' corrects for the
log-partition term that natural-parameter interpolation introduces.  The L2
route bounds the order-alpha Renyi divergence by alpha * M * (x - x')^2 / 2,
where M is the supremum of the mechanism's Fisher information over the whole
real line.  ``fisher_sup(table)`` is the route's one entry point; it takes a
two-row table whose natural parameters are anadromic, which the table's
``anadromic`` property decides.

Both constants are *certified upper bounds* from cumulant identities of the
exponential family exp(eta + t theta), never bare estimates: eps' from
interval endpoints plus a rounding pad, M from Popoviciu's variance bound
when it already meets I(1/2), else from a line search with a closed-form
curvature pad.  A ``PrivacyLedger`` holds the cost of one round;
``compose(ledger, rounds)`` adds rounds up, with no subsampling amplification,
and ``spent_epsilon`` converts an RDP total to (eps, delta)-DP once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .mechanism import (ANADROMIC_TOL, InterpolatedMechanism, MechanismTable,
                        _anadromic_residual, _finite_inputs, _pairwise_sum, _real, _softmax,
                        _softmax_terms)

DEFAULT_ALPHAS = (1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 16.0, 32.0, 64.0)
DEFAULT_DELTA = 1e-5

FISHER_TOL = 1e-9
VERIFY_TOL = 1e-9
_FLOAT_MAX = float(np.finfo(float).max)

# Refinement schedule of the certified line search: points per segment, a
# hard cap on total evaluations before giving up, and segments per evaluation.
_SEG_POINTS = 129
_MAX_EVALS = 50_000_000
_CHUNK_SEGMENTS = 64


class AccountingError(RuntimeError):
    """A certified bound could not be produced."""


class AnadromicityError(AccountingError):
    """The Fisher route needs anadromic parameters; run enforce_anadromic
    on the table (every designed table already is)."""


@dataclass(frozen=True)
class FisherDiagnostics:
    """Trace of one Fisher-supremum run.

    ``evaluations`` counts the inputs whose information or tail mass the
    search used: I(1/2) alone when the early certificate settles the bound,
    else also every doubling try and bisection midpoint of the tail search,
    and every point of the line search.  ``rounds`` counts the line search's
    rounds.
    """

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

    ``ValueError`` unless ``domain`` is two finite numbers lo <= hi and 4 S,
    room for the lerp and the shift, is finite.
    """
    logs = table.log_probs
    bounds = np.asarray(domain, dtype=float)
    if bounds.shape != (2,) or not (np.all(np.isfinite(bounds)) and bounds[0] <= bounds[1]):
        raise ValueError(f"domain must be two finite numbers lo <= hi, got {domain!r}")
    nseg = table.b_in - 1
    i = np.repeat(np.arange(nseg), 2)
    t = np.tile([0.0, 1.0], nseg)
    t[0] = min(0.0, nseg * float(bounds[0]))
    t[-1] = max(1.0, nseg * float(bounds[1]) - (nseg - 1))
    with np.errstate(over="ignore"):
        size = (np.abs(1.0 - t) + np.abs(t)) * np.max(np.abs(logs))
        if not np.all(np.isfinite(4.0 * size)):
            raise ValueError(f"domain {domain!r} stretches the boundary intervals past float range")
    theta = np.diff(logs, axis=0)[i]
    h = np.abs(np.sum(_probs(logs, i, t) * theta, axis=1))
    pad = 8.0 * np.finfo(float).eps * (table.b_out + size) * np.max(np.abs(theta), axis=1)
    return float(nseg * np.max(h + pad)), float(nseg * np.max(pad))


def eps_prime(table: MechanismTable, domain: tuple[float, float] = (0.0, 1.0)) -> float:
    """Certified log-partition correction for the L1 divergence bound."""
    value, _ = _eps_prime_impl(table, domain)
    return value


# ---------------------------------------------------------------------------
# L2 route: Fisher information
# ---------------------------------------------------------------------------


def _theta(table: MechanismTable) -> np.ndarray:
    """theta = eta_1 - eta_0, the direction of the Fisher route's one global line."""
    if table.b_in != 2:
        raise AccountingError(
            "the Fisher route needs b_in=2: the interpolated log density is "
            "non-differentiable at interior grid points otherwise"
        )
    return table.log_probs[1] - table.log_probs[0]


def fisher_info(table: MechanismTable, x) -> float | np.ndarray:
    """Fisher information of the interpolated two-row mechanism at x.

    Closed form theta' U theta with U the softmax covariance at
    eta(x) = (1-x) eta_0 + x eta_1; equals the defining expectation
    E[(d/dx log f)^2], which the tests verify by finite differences.
    """
    theta = _theta(table)
    sm = _probs(table.log_probs, 0, _finite_inputs(x))
    vals = np.maximum(sm @ theta**2 - (sm @ theta) ** 2, 0.0)
    return float(vals[0]) if np.ndim(x) == 0 else vals


def _group_mass(table: MechanismTable, xs: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Softmax mass of the letters in ``group`` at each input of ``xs``, each
    input's group summed in the order of numpy's sum over that input alone."""
    _, z, total = _softmax_terms(table.log_probs, 0, xs)
    return _pairwise_sum(z[group]) / total


def _variance_cap(theta: np.ndarray) -> float:
    """Popoviciu's bound R^2/4 on Var_x(theta) at every real x, R the range of
    theta, padded so that the float bounds the exact value.

    Each computed theta_j is within eps/2 |theta_j| of the exact difference of
    the stored parameters, so the exact range exceeds the computed one by at
    most eps (range + 2 max|theta|); 4 eps (range + max|theta|) covers that
    and the rounding of the sum, and the factor 1 + 2 eps the square and the
    product.
    """
    eps = np.finfo(float).eps
    t_max, t_min = float(theta.max()), float(theta.min())
    spread = t_max - t_min
    reach = spread + 4.0 * eps * (spread + max(t_max, -t_min))
    return reach**2 / 4.0 * (1.0 + 2.0 * eps)


def _tail_end(table: MechanismTable, group: np.ndarray, target: float) -> tuple[float, int]:
    """(x_max, evaluations): where the mass of ``group`` first reaches
    ``target`` right of x = 1/2, to within 1e-12 or float resolution.

    Doubling from 1/2 brackets the crossing and bisection closes in on it,
    one mass evaluation a step, keeping the right end so the tail
    certificate holds past x_max.
    """
    def reached(x):
        return _group_mass(table, np.array([x]), group)[0] >= target

    hi = 0.5
    for tries in range(201):
        if reached(hi):
            break
        hi *= 2.0
    else:
        raise AccountingError("argmax mass never reached the tail threshold")
    lo, evals = 0.5, 1 + tries
    # 200 halvings reach either the 1e-12 tolerance or float resolution;
    # stopping early only widens the searched interval, never the bound
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-12 or not lo < mid < hi:
            break
        evals += 1
        if reached(mid):
            hi = mid
        else:
            lo = mid
    return hi, evals


def fisher_sup(table: MechanismTable) -> tuple[float, FisherDiagnostics]:
    """Certified supremum of the Fisher information over the whole real line.

    Anadromic parameters make x = 1/2 a stationary point and the information
    symmetric about it.  Three steps follow, each only if the one before did
    not settle the bound.

    1. The early certificate.  I(x) = Var_x(theta) <= R^2/4 at every x, R the
       range of theta (Popoviciu's inequality), so when that cap, padded for
       rounding, is at most I(1/2) + FISHER_TOL, I(1/2) + FISHER_TOL is the
       bound after one evaluation.
    2. The tail.  Take G, the letters whose theta lies within ANADROMIC_TOL
       (the table's own tolerance) of theta_max, t_G their least theta and s
       their softmax mass.  As |theta| <= theta_max, E theta >= s (t_G +
       theta_max) - theta_max, and where that is >= 0, I(x) <= theta_max^2 -
       (s (t_G + theta_max) - theta_max)^2, which is <= I(1/2) once s reaches
       (theta_max + sqrt(theta_max^2 - I(1/2))) / (t_G + theta_max).  G holds
       every letter above t_G, so s grows strictly with x, and x_max, where s
       reaches that level, is found by bisection (``_tail_end``).  Any such G
       gives a valid bound; one wider than the exact argmax keeps a heavy
       letter a hair below theta_max from pushing x_max out to where its mass
       is overtaken.
    3. The line search on [1/2, x_max].  As |I''| = |kappa_4| <= R^4/4, I on a
       step of width w is at most min(R^2/4, larger endpoint value +
       R^4 w^2/32).  The search refines the steps whose bound beats the best
       value, until the pad is below FISHER_TOL everywhere.

    ``FisherDiagnostics.evaluations`` counts the inputs each step used.

    ``AccountingError`` unless the table has two rows, ``AnadromicityError``
    unless they are anadromic.
    """
    theta = _theta(table)
    if not table.anadromic:
        resid = _anadromic_residual(table)
        raise AnadromicityError(
            f"natural parameters are not anadromic (residual {resid:.3e}); "
            "run enforce_anadromic on the table first"
        )
    i_star = float(fisher_info(table, 0.5))
    cap = _variance_cap(theta)
    if cap <= i_star + FISHER_TOL:
        return i_star + FISHER_TOL, FisherDiagnostics(i_star, 0.5, 1, 0)

    t_max = float(theta.max())
    group = theta >= t_max - ANADROMIC_TOL
    t_group = float(theta[group].min())
    root = float(np.sqrt(max(0.0, t_max**2 - i_star)))
    sigma_target = (t_max + root) / (t_group + t_max)
    if sigma_target >= 1.0 - 1e-12:
        raise AccountingError(
            "tail certificate unattainable: stationary-point information is "
            "negligible relative to the extreme letters"
        )
    x_max, evals = _tail_end(table, group, sigma_target)

    spread = float(theta.max() - theta.min())
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
            vals = fisher_info(table, xs.ravel()).reshape(xs.shape)
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


def _orders(alphas) -> np.ndarray:
    """The RDP orders as floats; there must be one at least, each finite and above 1."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size == 0 or not np.all(np.isfinite(alphas) & (alphas > 1.0)):
        raise ValueError("alphas must be finite orders above 1, at least one")
    return alphas


# ---------------------------------------------------------------------------
# Ledger, composition, conversion
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PrivacyLedger:
    """The privacy cost of one round.

    ``per_round`` is one epsilon for a pure ledger and, for an RDP ledger,
    one epsilon per order in ``alphas``.  ``compose`` adds rounds up.
    """

    per_round: float | np.ndarray
    delta: float = DEFAULT_DELTA
    alphas: tuple[float, ...] | None = None

    @property
    def mode(self) -> str:
        return "pure" if self.alphas is None else "rdp"

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        costs = np.asarray(self.per_round, dtype=float)
        if not np.all(np.isfinite(costs) & (costs >= 0)):
            raise ValueError("per-round costs must be finite and non-negative")
        if self.alphas is None:
            if costs.ndim != 0:
                raise ValueError("a pure ledger needs one per-round epsilon")
            return
        alphas = _orders(self.alphas)
        if alphas.ndim != 1 or np.any(np.diff(alphas) <= 0):
            raise ValueError("alphas must be ascending")
        if costs.shape != alphas.shape:
            raise ValueError("per_round must have one entry per alpha")


def _constant_of(mode) -> str:
    """The constant a ``mode`` ledger charges: eps' in pure mode, M in rdp."""
    if mode not in ("pure", "rdp"):
        raise ValueError(f"mode must be 'pure' or 'rdp', got {mode!r}")
    return "eps_prime" if mode == "pure" else "fisher_m"


def imvu_ledger(mech: InterpolatedMechanism, mode: str, sens: float,
                delta: float = DEFAULT_DELTA, alphas=DEFAULT_ALPHAS) -> PrivacyLedger:
    """Per-round cost of ``mech`` at sensitivity ``sens``.

    Pure mode takes the eps' route, (design eps + eps') * sens; rdp mode the
    Fisher route, alpha * M * sens^2 / 2 for each order alpha.  The mode's
    constant is the one attached to ``mech``, else one certified here.
    """
    name = _constant_of(mode)
    _real(sens, "sensitivity", nonnegative=True)
    value = getattr(mech, name)
    if value is None:
        value, _ = _certify(mech, name)
    if mode == "pure":
        return PrivacyLedger((mech.table.design_eps + value) * sens, delta)
    return PrivacyLedger(_orders(alphas) * value * sens**2 / 2.0, delta, tuple(alphas))


def compose(ledger: PrivacyLedger, rounds: int):
    """Total cost of ``rounds`` rounds, a whole number within float range
    (not a bool): the per-round cost times ``rounds``."""
    # NaN fails the range test
    if isinstance(rounds, (bool, np.bool_)) or not 0 <= rounds <= _FLOAT_MAX or rounds % 1:
        raise ValueError("rounds must be non-negative and integral, within float range")
    if ledger.alphas is None:
        return rounds * float(ledger.per_round)
    return rounds * np.asarray(ledger.per_round, dtype=float)


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
    if not np.all(eps_alphas >= 0):
        raise ValueError("eps_alphas must be non-negative and not NaN")
    converted = (
        eps_alphas
        + np.log((alphas - 1.0) / alphas)
        - (np.log(delta) + np.log(alphas)) / (alphas - 1.0)
    )
    k = int(np.argmin(converted))
    return float(converted[k]), float(alphas[k])


def spent_epsilon(ledger: PrivacyLedger, rounds: int) -> float:
    """(eps, delta)-DP guarantee after ``rounds`` rounds; an RDP total is
    converted once, at the end."""
    total = compose(ledger, rounds)
    if ledger.alphas is None:
        return total
    eps, _ = rdp_to_dp(total, ledger.delta, ledger.alphas)
    return eps


# ---------------------------------------------------------------------------
# Attachment and verification of mechanism constants
# ---------------------------------------------------------------------------


def _certify(mech: InterpolatedMechanism, name: str) -> tuple[float, dict]:
    """(value, certification record) of ``eps_prime`` or ``fisher_m``.

    The one place a constant is certified, so attached, charged, verified and
    reported constants agree.  eps' covers the beta-scaled input range; M needs a
    two-row anadromic table.  The record holds the number of evaluations and
    the pad added to the largest evaluated value.
    """
    table = mech.table
    if name == "eps_prime":
        value, pad = _eps_prime_impl(table, domain_for_beta(mech.beta))
        return value, {"evaluations": 2 * (table.b_in - 1), "pad": pad}
    value, diag = fisher_sup(table)
    return value, {"evaluations": diag.evaluations, "pad": FISHER_TOL}


def attach_accounting(mech: InterpolatedMechanism,
                      report: dict | None = None) -> InterpolatedMechanism:
    """Return a copy of ``mech`` with certified constants attached, as a
    mechanism file stores them (``imvu_ledger`` certifies what is not).

    The Fisher constant is attached only for two-row anadromic tables.
    ``report``, an ``accounting_report`` of this ``mech``, supplies the
    constant it certified, which is then not computed again.
    """
    known = report or {}
    ep = known.get("eps_prime")
    if ep is None:
        ep, _ = _certify(mech, "eps_prime")
    fm = known.get("fisher_m")
    if fm is None and mech.table.anadromic:
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
    name = _constant_of(mode)
    if mode == "pure" and c_sens is None and mech.clip.norm != "l1":
        raise ValueError(
            "the pure route charges l1 sensitivity, which an l2 clip bounds only by "
            "beta * sqrt(d); give it with --c-sens (c_sens)"
        )
    sens = mech.beta if c_sens is None else _real(c_sens, "c_sens", nonnegative=True)
    value, certification = _certify(mech, name)
    ledger = imvu_ledger(replace(mech, **{name: value}), mode, sens, delta, alphas)
    composed = compose(ledger, rounds)
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
