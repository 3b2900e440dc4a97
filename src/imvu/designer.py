"""Numerical design of minimum-variance unbiased tables.

For a fixed affine output alphabet the design problem is a linear program in
the row probabilities: minimize the summed output variance over the grid
subject to the row simplex, exact unbiasedness at every grid point, and the
pairwise metric-DP ratio constraints.  A golden-section search over the
alphabet scale sits on top; for one-bit tables it recovers the
randomized-response closed form.
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
    searched over ``alphabet_scale_range`` (default brackets the
    randomized-response solution).
    """

    b_in: int
    b_out: int
    eps: float
    alphabet_scale_range: tuple[float, float] | None = None
    lp_tol: float = 1e-6
    symmetrize: bool = False

    def __post_init__(self):
        if self.b_in < 2 or self.b_out < 2:
            raise ValueError("b_in and b_out must both be at least 2")
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ValueError("eps must be positive and finite")
        if not (0 < self.lp_tol <= 1e-4):
            raise ValueError("lp_tol must lie in (0, 1e-4]")
        if self.alphabet_scale_range is not None:
            lo, hi = self.alphabet_scale_range
            if not (0 < lo < hi):
                raise ValueError("alphabet_scale_range must be an increasing positive interval")

    def scale_range(self) -> tuple[float, float]:
        if self.alphabet_scale_range is not None:
            return self.alphabet_scale_range
        return 0.5, float(np.exp(self.eps) / (np.exp(self.eps) - 1.0) + 1.0)


@dataclass(frozen=True)
class ValidationReport:
    """Max violation per named check, with a location hint for each."""

    checks: dict[str, float]
    where: dict[str, str]

    def passed(self, tol: float) -> bool:
        return all(v <= tol for v in self.checks.values())

    def failures(self, tol: float) -> list[str]:
        return [name for name, v in self.checks.items() if v > tol]

    def worst(self) -> tuple[str, float]:
        name = max(self.checks, key=self.checks.get)
        return name, self.checks[name]


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


def _lp_matrices(b_in: int, b_out: int, eps: float, alphabet: np.ndarray):
    grid = np.arange(b_in, dtype=float) / (b_in - 1)
    n = b_in * b_out
    cost = np.tile(alphabet**2, b_in)

    a_eq = np.zeros((2 * b_in, n))
    b_eq = np.zeros(2 * b_in)
    for i in range(b_in):
        a_eq[i, i * b_out : (i + 1) * b_out] = 1.0
        b_eq[i] = 1.0
        a_eq[b_in + i, i * b_out : (i + 1) * b_out] = alphabet
        b_eq[b_in + i] = grid[i]

    # Ratio rows with growth >= 1/PROB_FLOOR are implied by the variable
    # bounds (p <= 1 <= growth * floor) and would overflow the solver's
    # coefficient range, so they are dropped.
    pairs = [
        (i, k, np.exp(eps * abs(grid[i] - grid[k])))
        for i in range(b_in)
        for k in range(b_in)
        if i != k and eps * abs(grid[i] - grid[k]) < np.log(1.0 / PROB_FLOOR)
    ]
    a_ub = np.zeros((len(pairs) * b_out, n))
    row = 0
    for i, k, growth in pairs:
        for j in range(b_out):
            a_ub[row, i * b_out + j] = 1.0
            a_ub[row, k * b_out + j] = -growth
            row += 1
    return cost, a_ub, a_eq, b_eq, grid


def _solve_lp(b_in: int, b_out: int, eps: float, scale: float):
    """LP optimum at one alphabet scale; (inf, None, alphabet) if infeasible."""
    alphabet = _alphabet(b_out, scale)
    cost, a_ub, a_eq, b_eq, grid = _lp_matrices(b_in, b_out, eps, alphabet)
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=np.zeros(a_ub.shape[0]),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(PROB_FLOOR, 1.0)] * (b_in * b_out),
        method="highs",
        options=_LP_OPTIONS,
    )
    if not res.success:
        return np.inf, None, alphabet
    variance = float(res.fun - np.sum(grid**2))
    return variance, res.x.reshape(b_in, b_out), alphabet


def _repair_probs(probs: np.ndarray, eps: float, cycles: int = 3) -> np.ndarray:
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
    for _ in range(cycles):
        p = p / p.sum(axis=1, keepdims=True)
        logs = np.log(p)
        for i in range(b_in - 1):
            logs[i + 1] = np.clip(logs[i + 1], logs[i] - step, logs[i] + step)
        p = np.exp(logs)
    return p / p.sum(axis=1, keepdims=True)


def _golden_section(f, lo: float, hi: float, iters: int = GOLDEN_ITERS):
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
    for _ in range(iters):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = ev(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = ev(d)
    return best_val, best_arg


def _diagnose_infeasibility(spec: DesignSpec, scale: float) -> str:
    """Phase-1 style diagnosis: how far is unbiasedness from satisfiable?

    The simplex and DP constraints are always jointly feasible (uniform
    rows), so the binding constraint is unbiasedness at some grid point.
    """
    b_in, b_out = spec.b_in, spec.b_out
    alphabet = _alphabet(b_out, scale)
    cost, a_ub, a_eq, b_eq, grid = _lp_matrices(b_in, b_out, spec.eps, alphabet)
    n = b_in * b_out
    # elastic unbiasedness rows: add +s - t slack per grid point
    n_slack = 2 * b_in
    a_eq2 = np.hstack([a_eq, np.zeros((a_eq.shape[0], n_slack))])
    for i in range(b_in):
        a_eq2[b_in + i, n + 2 * i] = 1.0
        a_eq2[b_in + i, n + 2 * i + 1] = -1.0
    cost2 = np.concatenate([np.zeros(n), np.ones(n_slack)])
    a_ub2 = np.hstack([a_ub, np.zeros((a_ub.shape[0], n_slack))])
    res = linprog(
        cost2,
        A_ub=a_ub2,
        b_ub=np.zeros(a_ub2.shape[0]),
        A_eq=a_eq2,
        b_eq=b_eq,
        bounds=[(PROB_FLOOR, 1.0)] * n + [(0, None)] * n_slack,
        method="highs",
        options=_LP_OPTIONS,
    )
    if not res.success:
        return "infeasible even with elastic unbiasedness (simplex/DP conflict)"
    slacks = res.x[n:].reshape(b_in, 2).sum(axis=1)
    i = int(np.argmax(slacks))
    return (
        f"tightest violated constraint: unbiasedness at grid point {i} "
        f"(x={i / (b_in - 1):.4f}), residual {slacks[i]:.3e} at scale {scale:.4f}"
    )


def design_mvu(spec: DesignSpec) -> MechanismTable:
    """Design a table for the given spec.

    Runs the golden-section scale search over the LP optimum, repairs the
    winning solution in log space, optionally symmetrizes it, and constructs
    the (fully validated) MechanismTable.
    """
    if spec.b_in * spec.b_out > MAX_TABLE_CELLS:
        raise DesignError(
            f"table has {spec.b_in * spec.b_out} cells; "
            f"the dense designer is limited to {MAX_TABLE_CELLS}"
        )
    lo, hi = spec.scale_range()
    best_val, best_scale = _golden_section(
        lambda s: _solve_lp(spec.b_in, spec.b_out, spec.eps, s)[0], lo, hi
    )
    if not np.isfinite(best_val):
        detail = _diagnose_infeasibility(spec, 0.5 * (lo + hi))
        raise DesignError(
            f"design LP infeasible at every scale in [{lo:.4f}, {hi:.4f}]; {detail}"
        )
    _, raw_probs, alphabet = _solve_lp(spec.b_in, spec.b_out, spec.eps, best_scale)
    probs = _repair_probs(raw_probs, spec.eps)
    grid = np.arange(spec.b_in, dtype=float) / (spec.b_in - 1)
    if spec.symmetrize:
        probs = _anadromic_average(probs)
        report = validate_table(
            {"grid": grid, "alphabet": alphabet, "probs": probs, "design_eps": spec.eps},
            tol=spec.lp_tol,
        )
        if not report.passed(spec.lp_tol):
            name, viol = report.worst()
            raise SymmetryError(
                f"symmetrization broke check '{name}' (violation {viol:.3e})"
            )
    try:
        table = MechanismTable(
            b_in=spec.b_in,
            b_out=spec.b_out,
            grid=grid,
            alphabet=alphabet,
            log_probs=np.log(probs),
            design_eps=spec.eps,
        )
    except TableInvariantError as exc:
        raise DesignError(f"designed table failed validation: {exc}") from exc

    report = validate_table(table, tol=spec.lp_tol)
    if not report.passed(spec.lp_tol):
        name, viol = report.worst()
        raise DesignError(f"designed table failed check '{name}' at {viol:.3e}")
    return table


def _anadromic_average(probs: np.ndarray) -> np.ndarray:
    # Simultaneous row and column reversal leaves the constraint set
    # invariant (symmetric grid, alphabet with a_j + a_rev = 1), so the
    # average of a feasible table with its reversal stays feasible.
    avg = 0.5 * (probs + probs[::-1, ::-1])
    return avg / avg.sum(axis=1, keepdims=True)


def enforce_anadromic(table: MechanismTable, tol: float = 1e-6) -> MechanismTable:
    """Symmetrize a table so reversed-index natural parameters match.

    Already-anadromic tables pass through unchanged (the averaging is their
    fixed point).  The symmetrized probabilities are re-verified against
    every design constraint rather than assumed valid.
    """
    probs = _anadromic_average(np.array(table.probs))
    report = validate_table(
        {
            "grid": table.grid,
            "alphabet": table.alphabet,
            "probs": probs,
            "design_eps": table.design_eps,
        },
        tol=tol,
    )
    bad = [name for name in report.failures(tol) if name in ("metric_dp", "unbiasedness")]
    if bad:
        name = bad[0]
        raise SymmetryError(
            f"anadromic averaging violates '{name}' at {report.checks[name]:.3e}"
        )
    try:
        out = MechanismTable(
            b_in=table.b_in,
            b_out=table.b_out,
            grid=np.array(table.grid),
            alphabet=np.array(table.alphabet),
            log_probs=np.log(probs),
            design_eps=table.design_eps,
        )
    except TableInvariantError as exc:
        raise SymmetryError(f"symmetrized table failed validation: {exc}") from exc

    resid = _anadromic_residual(*out.log_probs) if table.b_in == 2 else 0.0
    if resid > ANADROMIC_TOL:
        raise SymmetryError(f"anadromic residual {resid:.3e} exceeds {ANADROMIC_TOL:g}")
    return out
