"""Numerical design of minimum-variance unbiased tables.

For a fixed affine output alphabet the design problem is a linear program in
the row probabilities: minimize the summed output variance over the grid
subject to the row simplex, exact unbiasedness at every grid point, and the
metric-DP ratio constraints between adjacent rows, which telescope to every
pair because the grid is uniform.  The alphabet scale s is searched exactly:
in r = 1/s the LP's optimal value is convex and piecewise linear, so a few
LP solves find all of its linear pieces, and the variance on each piece is
a quadratic in s with a closed-form minimum.  For one-bit tables the design
recovers the randomized-response closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accounting import ANADROMIC_TOL, _anadromic_residual
from .mechanism import (
    PROB_FLOOR,
    MechanismTable,
    TableInvariantError,
    table_violations,
)

MAX_TABLE_CELLS = 4096
REPAIR_CYCLES = 3
# Relative tolerance of the scale search: a point within it of a tangent
# line lies on that line's piece, and variances within it tie.
_PIECE_TOL = 1e-9
# HiGHS's LP values are noisy within about 1e-11 of the largest feasible
# 1/scale, so the scale search keeps this relative distance from it.
_R_MAX_INSET = 1e-10
# The scale search solves at most this many LPs per table cell.
_LPS_PER_CELL = 4

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
    the affine family a_j = 1/2 + s * c_j, c_j = 2j/(b_out-1) - 1 for
    j = 0 .. b_out-1, and ``design_mvu`` returns the table of least variance
    over every scale s in ``scale_range()``.  The bracket's upper end is
    always feasible and its lower end 1/2 never is (it would need a
    deterministic table), so the optimum lies inside it.
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


def _letters(b_out: int) -> np.ndarray:
    """Alphabet shape c_j = 2j/(b_out - 1) - 1, so a_j = 1/2 + s c_j."""
    return 2.0 * np.arange(b_out, dtype=float) / (b_out - 1) - 1.0


def _alphabet(b_out: int, scale: float) -> np.ndarray:
    return 0.5 + scale * _letters(b_out)


def _constraints(b_in: int, b_out: int, eps: float, letters: np.ndarray):
    """Equality rows (row simplex, then row mean over ``letters``) and ratio rows.

    The variables are the row-major probabilities p[i, j].  The ratio rows
    are p[i, j] <= e^(eps/(b_in-1)) p[i+1, j] (forward) followed by
    p[i+1, j] <= e^(eps/(b_in-1)) p[i, j] (backward).
    """
    rows = np.eye(b_in)
    a_eq = np.vstack([np.kron(rows, np.ones(b_out)), np.kron(rows, letters)])
    # Ratio rows with growth >= 1/PROB_FLOOR are implied by the variable
    # bounds (p <= 1 <= growth * floor) and would overflow the solver's
    # coefficient range, so they are dropped.
    step = eps / (b_in - 1)
    if step < np.log(1.0 / PROB_FLOOR):
        here, ahead = np.eye(b_in - 1, b_in), np.eye(b_in - 1, b_in, k=1)
        growth = np.exp(step)
        pairs = np.vstack([here - growth * ahead, ahead - growth * here])
        return a_eq, np.kron(pairs, np.eye(b_out))
    return a_eq, np.zeros((0, b_in * b_out))


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call: importing
    scipy.optimize is most of the time a cold ``import imvu`` would take."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _linprog(cost, a_eq, b_eq, a_ub, bounds=(PROB_FLOOR, 1.0)):
    """HiGHS on one design LP, retried once without presolve if it fails.

    Presolve calls LPs infeasible that sit on the feasibility boundary
    within the solver's tolerances (2x2 at eps = 25, at the largest
    feasible 1/scale), which is where the optimum often lies.
    """
    for presolve in (True, False):
        res = linprog(
            cost,
            A_ub=a_ub,
            b_ub=np.zeros(a_ub.shape[0]),
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
            method="highs",
            options={**_LP_OPTIONS, "presolve": presolve},
        )
        if res.success:
            break
    return res


def _solve_lp(b_in: int, b_out: int, eps: float, scale: float):
    """LP optimum at one alphabet scale; (inf, None, alphabet) if none is found."""
    alphabet = _alphabet(b_out, scale)
    grid = np.arange(b_in, dtype=float) / (b_in - 1)
    a_eq, a_ub = _constraints(b_in, b_out, eps, alphabet)
    res = _linprog(np.tile(alphabet**2, b_in), a_eq, np.concatenate([np.ones(b_in), grid]), a_ub)
    if not res.success:
        return np.inf, None, alphabet
    variance = float(res.fun - np.sum(grid**2))
    return variance, res.x.reshape(b_in, b_out), alphabet


def _repair_probs(probs: np.ndarray, eps: float) -> np.ndarray:
    """Restore exact feasibility of an LP solution in log space.

    HiGHS meets each ratio row p[i+1, j] <= e^step p[i, j], step =
    eps/(b_in-1), only to an absolute tolerance, which next to the
    probability floor can be a ratio several times too large.  The repair
    floors the probabilities, then alternates row renormalization with a
    forward and a backward pass of logs[k] = max(logs[k], logs[k -/+ 1] -
    step), after which every adjacent pair is within step; adjacent
    feasibility telescopes to every pair because the grid is uniform.  Only
    the smaller entry of a violated pair is raised, by about the solver's
    residual: lowering the larger one would carry the error up a chain of
    tight ratio rows, growing by e^step per row until it moved the large
    entries and broke unbiasedness.  The raises keep every row sum within a
    few 1e-12 of 1, so the final renormalization moves adjacent log ratios
    by far less than METRIC_DP_TOL.
    """
    b_in = probs.shape[0]
    step = eps / (b_in - 1)
    p = np.maximum(probs, PROB_FLOOR)
    for _ in range(REPAIR_CYCLES):
        p = p / p.sum(axis=1, keepdims=True)
        logs = np.log(p)
        for i in range(b_in - 1):
            logs[i + 1] = np.maximum(logs[i + 1], logs[i] - step)
        for i in range(b_in - 2, -1, -1):
            logs[i] = np.maximum(logs[i], logs[i + 1] - step)
        p = np.exp(logs)
    return p / p.sum(axis=1, keepdims=True)


def _best_scale(spec: DesignSpec) -> tuple[float, np.ndarray]:
    """Alphabet scale of least LP variance over ``spec.scale_range()`` and
    the (b_in, b_out) LP solution there.

    With a_j = 1/2 + s c_j and r = 1/s, unbiasedness reads
    sum_j p[i, j] c_j = (x_i - 1/2) r, and the variance at scale s is
    s^2 g(1/s) - sum_i (x_i - 1/2)^2, where g(r) = min sum p[i, j] c_j^2
    over the simplex, floor and ratio rows, none of which depends on r.
    Only the right-hand side moves with r, so g is convex and piecewise
    linear on its feasible interval (Bertsimas & Tsitsiklis, Introduction
    to Linear Optimization, 5.2), with the mean rows' duals as slopes, and
    the LP's solution at r is the design at s = 1/r.

    One LP with r as a variable gives the largest feasible r, r_max, near
    which HiGHS's g is noisy, so a tangent sandwich finds every linear piece
    of g over [1/hi, r_max (1 - ``_R_MAX_INSET``)] and the LP at r_max is
    one more candidate.  Where the end tangents of an interval meet within a
    relative ``_PIECE_TOL`` of one end, g is the other end's tangent;
    otherwise g is solved where they meet, and either lies on them there
    (two pieces) or that point splits the interval (unless its LP failed).
    No r is solved twice; the LP after ``_LPS_PER_CELL`` per table cell,
    the free one included, raises ``DesignError`` instead.

    On a piece g = alpha + gamma r the variance is alpha s^2 + gamma s -
    const, minimized in closed form.  Variances within ``_PIECE_TOL`` of the
    least tie, and the smallest of their scales wins; a winner inside a
    piece is solved at its own r, and the best solved scale is returned.
    ``DesignError`` if no LP solved.
    """
    b_in, b_out = spec.b_in, spec.b_out
    letters = _letters(b_out)
    offsets = np.arange(b_in, dtype=float) / (b_in - 1) - 0.5
    ones, n = np.ones(b_in), b_in * b_out
    cost = np.tile(letters**2, b_in)
    a_eq, a_ub = _constraints(b_in, b_out, spec.eps, letters)
    lo, hi = spec.scale_range()
    r_lo, r_hi = 1.0 / hi, 1.0 / lo
    bound, solved = _LPS_PER_CELL * n, {}

    def tangent(r):
        if r not in solved:
            if len(solved) + 1 >= bound:  # the free LP counts too
                raise DesignError(
                    f"scale search reached its bound of {bound:g} LP solves "
                    f"for {b_in}x{b_out} at eps={spec.eps:g}"
                )
            res = _linprog(cost, a_eq, np.concatenate([ones, offsets * r]), a_ub)
            solved[r] = None
            if res.success:
                slope = float(res.eqlin.marginals[b_in:] @ offsets)
                solved[r] = r, float(res.fun), slope, res.x.reshape(b_in, b_out)
        return solved[r]

    free = _linprog(
        np.append(np.zeros(n), -1.0),
        np.hstack([a_eq, np.concatenate([np.zeros(b_in), -offsets])[:, None]]),
        np.concatenate([ones, np.zeros(b_in)]),
        np.hstack([a_ub, np.zeros((a_ub.shape[0], 1))]),
        bounds=[(PROB_FLOOR, 1.0)] * n + [(r_lo, r_hi)],
    )
    r_top = float(free.x[-1]) if free.success else r_lo
    ends = (tangent(r_lo), tangent(max(r_lo, r_top * (1.0 - _R_MAX_INSET))))
    tangent(r_top)
    lines = []
    stack = [ends] if None not in ends and ends[0] is not ends[1] else []
    while stack:
        (ra, ga, da, _), (rb, gb, db, _) = a, b = stack.pop()
        tol = _PIECE_TOL * max(1.0, abs(ga), abs(gb))
        # where the end tangents meet; rb (ra) if a's (b's) tangent passes through it
        if gb - ga - da * (rb - ra) <= tol:
            rc = rb
        elif ga - gb - db * (ra - rb) <= tol:
            rc = ra
        else:
            rc = (gb - ga + da * ra - db * rb) / (da - db)
        if rc >= rb * (1.0 - _PIECE_TOL):
            lines.append((ra, rb, ga - da * ra, da))
        elif rc <= ra * (1.0 + _PIECE_TOL):
            lines.append((ra, rb, gb - db * rb, db))
        elif (c := tangent(rc)) is None:
            continue
        elif c[1] - ga - da * (rc - ra) <= tol:
            lines += [(ra, rc, ga - da * ra, da), (rc, rb, gb - db * rb, db)]
        else:
            stack += [(a, c), (c, b)]

    # The upper end of the scale bracket is always feasible: the two-letter
    # linear table is metric-DP once s >= 1/2 + 1/eps, which hi exceeds.  No
    # solved LP therefore means the solver failed.
    if not any(solved.values()):
        raise DesignError(f"design LP solver failed at every scale in [{lo:.4f}, {hi:.4f}]")
    const = float(offsets @ offsets)
    minima = [(alpha * s**2 + gamma * s - const, s, None) for ra, rb, alpha, gamma in lines
              if alpha > 0.0 and 1.0 / rb < (s := -gamma / (2.0 * alpha)) < 1.0 / ra]
    # a winning interior minimum is solved, and the solved scales compete again
    for extra in (minima, []):
        points = filter(None, solved.values())
        cands = extra + [(g / r**2 - const, 1.0 / r, x) for r, g, _, x in points]
        least = min(c[0] for c in cands)
        ties = [c for c in cands if c[0] <= least + _PIECE_TOL * abs(least)]
        _, scale, probs = min(ties, key=lambda c: c[1])
        if probs is not None:
            return scale, probs
        tangent(1.0 / scale)


def design_mvu(spec: DesignSpec) -> MechanismTable:
    """Design a table for the given spec.

    Takes the least-variance scale over the whole bracket and the LP
    solution there from the exact parametric search (``_best_scale``, about
    2 LP solves per linear piece of the LP value), repairs that solution in
    log space, optionally symmetrizes it, and constructs the MechanismTable,
    whose construction validates every invariant.
    """
    if spec.b_in * spec.b_out > MAX_TABLE_CELLS:
        raise DesignError(
            f"table has {spec.b_in * spec.b_out} cells; "
            f"the dense designer is limited to {MAX_TABLE_CELLS}"
        )
    scale, raw_probs = _best_scale(spec)
    alphabet = _alphabet(spec.b_out, scale)
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
