"""Numerical design of minimum-variance unbiased tables.

For a fixed affine output alphabet the design problem is a linear program in
the row probabilities: minimize the summed output variance over the grid
subject to the row simplex, exact unbiasedness at every grid point, and the
metric-DP ratio constraints between adjacent rows, which telescope to every
pair because the grid is uniform.  A golden-section search over the alphabet
scale sits on top; for one-bit tables it recovers the randomized-response
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .accounting import ANADROMIC_TOL, _anadromic_residual
from .mechanism import (
    PROB_FLOOR,
    MechanismTable,
    TableInvariantError,
    table_violations,
)

MAX_TABLE_CELLS = 4096
GOLDEN_ITERS = 64
REPAIR_CYCLES = 3
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0

# HiGHS enforces constraints to an absolute tolerance, which near the
# probability floor is a large *ratio* error; the log-space repair below
# restores the ratio constraints exactly.
_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


class DesignError(RuntimeError):
    """The design LP failed or produced an unusable table."""


class SymmetryError(DesignError):
    """Anadromic symmetrization broke a design constraint."""


@dataclass(frozen=True)
class DesignSpec:
    """Parameters of one design run.

    ``eps`` is the L1-metric-DP budget of the table itself.  The alphabet is
    the affine family a_j = 1/2 + s * (2(j-1)/(b_out-1) - 1) with the scale s
    searched over ``scale_range()``, which brackets the randomized-response
    solution.
    """

    b_in: int
    b_out: int
    eps: float
    symmetrize: bool = False

    def __post_init__(self):
        if self.b_in < 2 or self.b_out < 2:
            raise ValueError("b_in and b_out must both be at least 2")
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ValueError("eps must be positive and finite")
        if not np.isfinite(self.scale_range()[1]):
            raise ValueError(
                f"eps={self.eps!r} is too small: e^eps rounds to 1, "
                "so the alphabet scale bracket is unbounded"
            )

    def scale_range(self) -> tuple[float, float]:
        # From eps = 40 on, e^eps / (e^eps - 1) is exactly 1.0 in double
        # precision, so the cap changes no bracket and avoids overflow.
        growth = np.exp(min(self.eps, 40.0))
        with np.errstate(divide="ignore"):
            return 0.5, float(growth / (growth - 1.0) + 1.0)


@dataclass(frozen=True)
class ValidationReport:
    """Max violation per named check, with a location hint for each."""

    checks: dict[str, float]
    where: dict[str, str]

    def passed(self, tol: float) -> bool:
        return all(v <= tol for v in self.checks.values())

    def failures(self, tol: float) -> list[str]:
        return [name for name, v in self.checks.items() if v > tol]


def validate_table(table, tol: float = 1e-6) -> ValidationReport:
    """Report-only check of all design invariants.

    Accepts a MechanismTable or a mapping with keys grid, alphabet,
    design_eps and either log_probs or probs, so corrupted candidate data can
    be inspected without constructing a table.
    """
    if isinstance(table, MechanismTable):
        raw = table_violations(
            table.grid, table.alphabet, table.design_eps, log_probs=table.log_probs
        )
    else:
        raw = table_violations(
            np.asarray(table["grid"], dtype=float),
            np.asarray(table["alphabet"], dtype=float),
            float(table["design_eps"]),
            log_probs=table.get("log_probs"),
            probs=table.get("probs"),
        )
    checks = {name: viol for name, (viol, _) in raw.items()}
    where = {name: loc for name, (_, loc) in raw.items()}
    return ValidationReport(checks=checks, where=where)


def _alphabet(b_out: int, scale: float) -> np.ndarray:
    j = np.arange(b_out, dtype=float)
    return 0.5 + scale * (2.0 * j / (b_out - 1) - 1.0)


def _solve_lp(b_in: int, b_out: int, eps: float, scale: float):
    """LP optimum at one alphabet scale; (inf, None, alphabet) if none is found.

    The variables are the row-major probabilities p[i, j].  The ratio rows
    are p[i, j] <= e^(eps/(b_in-1)) p[i+1, j] (forward) followed by
    p[i+1, j] <= e^(eps/(b_in-1)) p[i, j] (backward).
    """
    alphabet = _alphabet(b_out, scale)
    grid = np.arange(b_in, dtype=float) / (b_in - 1)
    rows = np.eye(b_in)
    a_eq = np.vstack([np.kron(rows, np.ones(b_out)), np.kron(rows, alphabet)])
    b_eq = np.concatenate([np.ones(b_in), grid])

    # Ratio rows with growth >= 1/PROB_FLOOR are implied by the variable
    # bounds (p <= 1 <= growth * floor) and would overflow the solver's
    # coefficient range, so they are dropped.
    step = eps / (b_in - 1)
    if step < np.log(1.0 / PROB_FLOOR):
        here, ahead = np.eye(b_in - 1, b_in), np.eye(b_in - 1, b_in, k=1)
        growth = np.exp(step)
        pairs = np.vstack([here - growth * ahead, ahead - growth * here])
        a_ub = np.kron(pairs, np.eye(b_out))
    else:
        a_ub = np.zeros((0, b_in * b_out))

    res = linprog(
        np.tile(alphabet**2, b_in),
        A_ub=a_ub,
        b_ub=np.zeros(a_ub.shape[0]),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(PROB_FLOOR, 1.0),
        method="highs",
        options=_LP_OPTIONS,
    )
    if not res.success:
        return np.inf, None, alphabet
    variance = float(res.fun - np.sum(grid**2))
    return variance, res.x.reshape(b_in, b_out), alphabet


def _repair_probs(probs: np.ndarray, eps: float) -> np.ndarray:
    """Restore exact feasibility of an LP solution in log space.

    Floors the probabilities, then alternates row renormalization with a
    forward clamp of adjacent log differences to eps/(b_in-1).  Adjacent
    feasibility telescopes to every pair because the grid is uniform.  The
    clamp only moves entries by the solver's residuals, so unbiasedness is
    preserved far below its tolerance.
    """
    b_in = probs.shape[0]
    step = eps / (b_in - 1)
    p = np.maximum(probs, PROB_FLOOR)
    for _ in range(REPAIR_CYCLES):
        p = p / p.sum(axis=1, keepdims=True)
        logs = np.log(p)
        for i in range(b_in - 1):
            logs[i + 1] = np.clip(logs[i + 1], logs[i] - step, logs[i] + step)
        p = np.exp(logs)
    return p / p.sum(axis=1, keepdims=True)


def _golden_section(f, lo: float, hi: float):
    """Minimize f over [lo, hi]; returns the best evaluated point.

    Infeasible scales evaluate to inf.  The optimum often sits exactly on the
    feasibility boundary, so the best evaluated point (never the bracket
    midpoint, which may be infeasible) is returned.
    """
    best_val, best_arg = np.inf, None

    def ev(s):
        nonlocal best_val, best_arg
        v = f(s)
        if v < best_val:
            best_val, best_arg = v, s
        return v

    ev(lo)
    ev(hi)
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = ev(c), ev(d)
    for _ in range(GOLDEN_ITERS):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = ev(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = ev(d)
    return best_val, best_arg


def design_mvu(spec: DesignSpec) -> MechanismTable:
    """Design a table for the given spec.

    Runs the golden-section scale search over the LP optimum, repairs the
    winning solution in log space, optionally symmetrizes it, and constructs
    the MechanismTable, whose construction validates every invariant.
    """
    if spec.b_in * spec.b_out > MAX_TABLE_CELLS:
        raise DesignError(
            f"table has {spec.b_in * spec.b_out} cells; "
            f"the dense designer is limited to {MAX_TABLE_CELLS}"
        )
    # The upper end of the bracket is always feasible: the two-letter linear
    # table is metric-DP once s >= 1/2 + 1/eps, which hi exceeds.  A search
    # with no finite value therefore means the solver failed.
    lo, hi = spec.scale_range()
    best_val, best_scale = _golden_section(
        lambda s: _solve_lp(spec.b_in, spec.b_out, spec.eps, s)[0], lo, hi
    )
    if not np.isfinite(best_val):
        raise DesignError(f"design LP solver failed at every scale in [{lo:.4f}, {hi:.4f}]")
    _, raw_probs, alphabet = _solve_lp(spec.b_in, spec.b_out, spec.eps, best_scale)
    probs = _repair_probs(raw_probs, spec.eps)
    grid = np.arange(spec.b_in, dtype=float) / (spec.b_in - 1)
    if spec.symmetrize:
        return _symmetrized(probs, grid, alphabet, spec.eps)
    try:
        return MechanismTable(
            b_in=spec.b_in,
            b_out=spec.b_out,
            grid=grid,
            alphabet=alphabet,
            log_probs=np.log(probs),
            design_eps=spec.eps,
        )
    except TableInvariantError as exc:
        raise DesignError(f"designed table failed validation: {exc}") from exc


def _symmetrized(probs, grid, alphabet, eps: float) -> MechanismTable:
    """Average probs with their anadromic reversal and build the table.

    Simultaneous row and column reversal leaves the constraint set invariant
    (symmetric grid, alphabet with a_j + a_rev = 1), so the average of a
    feasible table with its reversal stays feasible; construction re-verifies
    every design constraint rather than assuming it.
    """
    avg = 0.5 * (probs + probs[::-1, ::-1])
    avg = avg / avg.sum(axis=1, keepdims=True)
    try:
        table = MechanismTable(
            b_in=avg.shape[0],
            b_out=avg.shape[1],
            grid=grid,
            alphabet=alphabet,
            log_probs=np.log(avg),
            design_eps=eps,
        )
    except TableInvariantError as exc:
        raise SymmetryError(f"symmetrized table failed validation: {exc}") from exc

    resid = _anadromic_residual(*table.log_probs) if table.b_in == 2 else 0.0
    if resid > ANADROMIC_TOL:
        raise SymmetryError(f"anadromic residual {resid:.3e} exceeds {ANADROMIC_TOL:g}")
    return table


def enforce_anadromic(table: MechanismTable) -> MechanismTable:
    """Symmetrize a table so reversed-index natural parameters match.

    Already-anadromic tables pass through unchanged (the averaging is their
    fixed point).
    """
    return _symmetrized(table.probs, table.grid, table.alphabet, table.design_eps)
