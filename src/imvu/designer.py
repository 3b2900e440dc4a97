"""Numerical design of minimum-variance unbiased tables.

For a fixed affine output alphabet the design problem is a linear program in
the row probabilities: minimize the summed output variance over the grid
subject to the row simplex, exact unbiasedness at every grid point, and the
metric-DP ratio constraints between adjacent rows, which telescope to every
pair because the grid is uniform.  The alphabet scale s is searched exactly:
in r = 1/s the LP's optimal value is convex and piecewise linear, so a few
LP solves find all of its linear pieces, and the variance on each piece is
a quadratic in s with a closed-form minimum.  A search keeps its LP in one
HiGHS model and re-solves it cold at every scale, moving only the right-hand
side, with the numbers ``scipy.optimize.linprog`` gives; where scipy lacks
its bundled HiGHS binding, every solve goes through ``linprog``.
For one-bit tables the design recovers the randomized-response closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accounting import ANADROMIC_TOL, _anadromic_residual
from .mechanism import (
    MAX_TABLE_CELLS,
    PROB_FLOOR,
    MechanismTable,
    TableInvariantError,
    _grid,
    table_violations,
)

REPAIR_CYCLES = 3
# Relative tolerance of the scale search: a point within it of a tangent
# line lies on that line's piece, and variances within it tie.
_PIECE_TOL = 1e-9
# HiGHS's LP values are noisy within about 1e-11 of the largest feasible
# 1/scale, so the scale search keeps this relative distance from it.
_R_MAX_INSET = 1e-10
# The scale search solves at most this many LPs per table cell.
_LPS_PER_CELL = 4

# linprog's check of a solution HiGHS calls optimal: bounds, inequality and
# equality rows within 10 sqrt(tol) at its default tol = 1e-9.
_LINPROG_CHECK_TOL = 10.0 * np.sqrt(1e-9)

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
        return [name for name, v in self.checks.items() if not v <= tol]


def validate_table(table, tol: float = 1e-6) -> ValidationReport:
    """Report-only check of all design invariants.

    Accepts a MechanismTable or a mapping with keys alphabet, design_eps and
    log_probs, so corrupted candidate data can be inspected without
    constructing a table.  ``tol`` must be finite and non-negative.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    if isinstance(table, MechanismTable):
        raw = table_violations(table.alphabet, table.design_eps, table.log_probs)
    else:
        raw = table_violations(table["alphabet"], float(table["design_eps"]), table["log_probs"])
    checks = {name: viol for name, (viol, _) in raw.items()}
    where = {name: loc for name, (_, loc) in raw.items()}
    return ValidationReport(checks=checks, where=where)


def _letters(b_out: int) -> np.ndarray:
    """Alphabet shape c_j = 2j/(b_out - 1) - 1, so a_j = 1/2 + s c_j."""
    return 2.0 * np.arange(b_out, dtype=float) / (b_out - 1) - 1.0


def _alphabet(b_out: int, scale: float) -> np.ndarray:
    return 0.5 + scale * _letters(b_out)


def _constraints(b_in: int, b_out: int, eps: float, letters: np.ndarray):
    """Equality rows (row simplex, then row mean over ``letters``) and ratio
    rows, as CSR arrays that hold no zero coefficient.

    The variables are the row-major probabilities p[i, j].  The ratio rows
    are p[i, j] <= e^(eps/(b_in-1)) p[i+1, j] (forward) followed by
    p[i+1, j] <= e^(eps/(b_in-1)) p[i, j] (backward).
    """
    from scipy.sparse import csr_array

    n, used = b_in * b_out, np.flatnonzero(letters)
    a_eq = csr_array((
        np.concatenate([np.ones(n), np.tile(letters[used], b_in)]),
        np.concatenate([np.arange(n), (b_out * np.arange(b_in)[:, None] + used).ravel()]),
        np.concatenate([np.arange(0, n, b_out), n + used.size * np.arange(b_in + 1)]),
    ), shape=(2 * b_in, n))
    # Ratio rows with growth >= 1/PROB_FLOOR are implied by the variable
    # bounds (p <= 1 <= growth * floor) and would overflow the solver's
    # coefficient range, so they are dropped.
    step = eps / (b_in - 1)
    if step >= np.log(1.0 / PROB_FLOOR):
        return a_eq, csr_array((0, n))
    # each row holds p[i, j] and p[i+1, j], in column order
    growth, m = np.exp(step), n - b_out
    pair = np.stack([np.arange(m), np.arange(b_out, n)], axis=1).ravel()
    a_ub = csr_array((
        np.concatenate([np.tile([1.0, -growth], m), np.tile([-growth, 1.0], m)]),
        np.tile(pair, 2),
        np.arange(0, 4 * m + 1, 2),
    ), shape=(2 * m, n))
    return a_eq, a_ub


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


class _HighsLP:
    """One design LP held in one HiGHS model and re-solved for each right-hand
    side of its equality rows.

    ``linprog`` checks its options and builds the model again on every call,
    which on these small LPs costs more than the simplex.  The model here is
    built once, with the options ``linprog`` passes (passed before the model,
    or HiGHS prints its banner), and ``solve`` moves only the equality rows
    whose right-hand side changed.  ``clearSolver`` drops the last basis
    before every run, so each solve is cold and returns what ``_linprog``
    returns on the same LP, bit for bit, including its retry without presolve
    and its check of the solution.
    """

    def __init__(self, core, cost, a_eq, a_ub, bounds):
        from scipy.sparse import vstack

        self._core = core
        self._m_ub = a_ub.shape[0]
        self._b_eq = np.zeros(a_eq.shape[0])
        self._lb, self._ub = np.broadcast_to(np.asarray(bounds, dtype=float), (cost.size, 2)).T.copy()
        # rows and columns in linprog's order: inequality rows first
        matrix = vstack([a_ub, a_eq], format="csr").tocsc()
        lp = core.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = cost.size
        lp.num_row_ = lp.a_matrix_.num_row_ = matrix.shape[0]
        lp.a_matrix_.format_ = core.MatrixFormat.kColwise
        lp.a_matrix_.start_ = matrix.indptr
        lp.a_matrix_.index_ = matrix.indices
        lp.a_matrix_.value_ = matrix.data
        lp.col_cost_ = cost
        lp.col_lower_, lp.col_upper_ = self._lb, self._ub
        lp.row_lower_ = np.concatenate([np.full(self._m_ub, -np.inf), self._b_eq])
        lp.row_upper_ = np.concatenate([np.zeros(self._m_ub), self._b_eq])
        options = core.HighsOptions()
        for key, value in {
            **_LP_OPTIONS,
            "highs_debug_level": core.HighsDebugLevel.kHighsDebugLevelNone,
            "simplex_strategy": core.simplex_constants.SimplexStrategy.kSimplexStrategyDual,
            "log_to_console": False,
            "output_flag": False,
        }.items():
            setattr(options, key, value)
        self._highs = core._Highs()
        self._highs.passOptions(options)
        self._highs.passModel(lp)

    def solve(self, b_eq):
        """(fun, x, equality-row duals) at right-hand side ``b_eq``, equal to
        ``_linprog``'s ``res.fun``, ``res.x`` and ``res.eqlin.marginals``;
        None where ``_linprog`` fails."""
        core, highs, m = self._core, self._highs, self._m_ub
        for k in np.flatnonzero(b_eq != self._b_eq).tolist():
            highs.changeRowBounds(m + k, b_eq[k], b_eq[k])
        self._b_eq = b_eq
        for presolve in ("on", "off"):
            highs.setOptionValue("presolve", presolve)
            highs.clearSolver()
            if (highs.run() == core.HighsStatus.kError
                    or highs.getModelStatus() != core.HighsModelStatus.kOptimal):
                continue
            solution, fun = highs.getSolution(), highs.getInfo().objective_function_value
            x, rows = np.array(solution.col_value), np.array(solution.row_value)
            if (not np.isnan(fun)
                    and np.all((x >= self._lb - _LINPROG_CHECK_TOL) & (x <= self._ub + _LINPROG_CHECK_TOL))
                    and np.all(rows[:m] <= _LINPROG_CHECK_TOL)
                    and np.all(np.abs(b_eq - rows[m:]) <= _LINPROG_CHECK_TOL)):
                return fun, x, np.array(solution.row_dual)[m:]
        return None


def _lp_solver(cost, a_eq, a_ub, bounds=(PROB_FLOOR, 1.0)):
    """``solve(b_eq)`` for one design LP: (fun, x, equality-row duals) at
    right-hand side ``b_eq``, or None if the solve failed.

    Where scipy bundles its HiGHS binding, every right-hand side is solved on
    one ``_HighsLP`` model; scipy releases without it solve each one through
    ``_linprog``.  Either way the numbers are ``_linprog``'s.
    """
    try:
        import scipy.optimize._highspy._core as core
    except ImportError:
        def solve(b_eq):
            res = _linprog(cost, a_eq, b_eq, a_ub, bounds)
            return (res.fun, res.x, res.eqlin.marginals) if res.success else None

        return solve
    return _HighsLP(core, cost, a_eq, a_ub, bounds).solve


def _solve_lp(b_in: int, b_out: int, eps: float, scale: float):
    """LP optimum at one alphabet scale; (inf, None, alphabet) if none is found."""
    alphabet = _alphabet(b_out, scale)
    grid = _grid(b_in)
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


def _least_of_max(s_lo: float, s_hi: float, quads) -> float:
    """Least over [s_lo, s_hi] of the larger of one or two quadratics
    alpha s^2 + gamma s, each given as (alpha, gamma).

    It is reached at an end, at the vertex -gamma/(2 alpha) of a quadratic
    with alpha > 0, or where the two quadratics cross.
    """
    points = [s_lo, s_hi] + [-gamma / (2.0 * alpha) for alpha, gamma in quads if alpha > 0.0]
    if len(quads) == 2 and quads[0][0] != quads[1][0]:
        (alpha_a, gamma_a), (alpha_b, gamma_b) = quads
        points.append((gamma_b - gamma_a) / (alpha_a - alpha_b))
    return min(max(alpha * s**2 + gamma * s for alpha, gamma in quads)
               for s in points if s_lo <= s <= s_hi)


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
    which HiGHS's g is noisy, so a tangent sandwich (Burkard, Hamacher &
    Rote, Naval Research Logistics 38, 1991) finds the linear pieces of g
    over [1/hi, r_max (1 - ``_R_MAX_INSET``)] and the LP at r_max is one
    more candidate.  Where the end tangents of an interval meet within a
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

    Intervals that cannot hold the winner are dropped unsolved, as in Land
    & Doig's branch and bound (Econometrica 28, 1960).  The tangents la, lb
    at the ends of [ra, rb] support the convex g, so g >= max(la, lb) there,
    and on s in [1/rb, 1/ra] every variance the interval could yield, at a
    solved point or on a piece, is at least B = min F, F(s) = max(qa(s),
    qb(s)), with qx(s) = (gx - dx rx) s^2 + dx s - const the quadratic of
    tangent x (``_least_of_max``).  The interval is dropped when (i) B
    exceeds the least solved variance v* by more than the tie margin, so
    nothing inside ties with the final least, which is at most v*; or (ii)
    B is at least the least variance v_b solved at some r >= rb, so a tie
    inside is also tied by that smaller scale, which the tie rule prefers.
    Either way the least, the ties and the winner are those of the full
    sandwich, and kept intervals are processed as if nothing were dropped,
    each LP cold, so the winner's scale and LP solution are the same bits.
    The first interval, [1/hi, r_max (1 - ``_R_MAX_INSET``)], is tested on
    its right tangent alone before the LP at 1/hi is solved.
    """
    b_in, b_out = spec.b_in, spec.b_out
    letters = _letters(b_out)
    offsets = _grid(b_in) - 0.5
    const = float(offsets @ offsets)
    ones, n = np.ones(b_in), b_in * b_out
    cost = np.tile(letters**2, b_in)
    a_eq, a_ub = _constraints(b_in, b_out, spec.eps, letters)
    lo, hi = spec.scale_range()
    r_lo, r_hi = 1.0 / hi, 1.0 / lo
    bound, solved = _LPS_PER_CELL * n, {}
    solve = _lp_solver(cost, a_eq, a_ub)

    def tangent(r):
        if r not in solved:
            if len(solved) + 1 >= bound:  # the free LP counts too
                raise DesignError(
                    f"scale search reached its bound of {bound:g} LP solves "
                    f"for {b_in}x{b_out} at eps={spec.eps:g}"
                )
            sol = solve(np.concatenate([ones, offsets * r]))
            solved[r] = None
            if sol is not None:
                fun, x, duals = sol
                solved[r] = r, float(fun), float(duals[b_in:] @ offsets), x.reshape(b_in, b_out)
        return solved[r]

    def dropped(ra, rb, ends):
        """Whether [ra, rb] cannot hold the winner, by its end tangents ``ends``."""
        floor = _least_of_max(1.0 / rb, 1.0 / ra, [(g - d * r, d) for r, g, d, _ in ends]) - const
        values = [(r, g / r**2 - const) for r, g, _, _ in filter(None, solved.values())]
        least = min(v for _, v in values)
        return (floor > least + _PIECE_TOL * abs(least)
                or floor >= min((v for r, v in values if r >= rb), default=np.inf))

    from scipy.sparse import csr_array, hstack

    # r is one more variable, -offsets its column in the mean rows
    free = _lp_solver(
        np.append(np.zeros(n), -1.0),
        hstack([a_eq, csr_array(np.concatenate([np.zeros(b_in), -offsets])[:, None])], format="csr"),
        csr_array((a_ub.data, a_ub.indices, a_ub.indptr), shape=(a_ub.shape[0], n + 1)),
        bounds=[(PROB_FLOOR, 1.0)] * n + [(r_lo, r_hi)],
    )(np.concatenate([ones, np.zeros(b_in)]))
    r_top = float(free[1][-1]) if free is not None else r_lo
    r_end = max(r_lo, r_top * (1.0 - _R_MAX_INSET))
    end = tangent(r_end)
    tangent(r_top)
    stack = []
    # the first interval is tested on its right tangent before 1/hi is solved
    if r_end > r_lo and (end is None or not dropped(r_lo, r_end, [end])):
        if (start := tangent(r_lo)) is not None and end is not None:
            stack.append((start, end))
    lines = []
    while stack:
        (ra, ga, da, _), (rb, gb, db, _) = a, b = stack.pop()
        if dropped(ra, rb, [a, b]):
            continue
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
    solution there from the exact parametric search (``_best_scale``, which
    solves LPs only in the intervals of the scale that may hold the
    optimum), repairs that solution in log space, optionally symmetrizes
    it, and constructs the MechanismTable, whose construction validates
    every invariant.
    """
    if spec.b_in * spec.b_out > MAX_TABLE_CELLS:
        raise DesignError(
            f"table has {spec.b_in * spec.b_out} cells; "
            f"the designer is limited to {MAX_TABLE_CELLS}"
        )
    scale, raw_probs = _best_scale(spec)
    alphabet = _alphabet(spec.b_out, scale)
    probs = _repair_probs(raw_probs, spec.eps)
    if spec.symmetrize:
        return _symmetrized(probs, alphabet, spec.eps)
    try:
        return MechanismTable(alphabet, np.log(probs), spec.eps)
    except TableInvariantError as exc:
        raise DesignError(f"designed table failed validation: {exc}") from exc


def _symmetrized(probs, alphabet, eps: float) -> MechanismTable:
    """Average probs with their anadromic reversal and build the table.

    Simultaneous row and column reversal leaves the constraint set invariant
    (symmetric grid, alphabet with a_j + a_rev = 1), so the average of a
    feasible table with its reversal stays feasible; construction re-verifies
    every design constraint rather than assuming it.
    """
    avg = 0.5 * (probs + probs[::-1, ::-1])
    avg = avg / avg.sum(axis=1, keepdims=True)
    try:
        table = MechanismTable(alphabet, np.log(avg), eps)
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
    return _symmetrized(table.probs, table.alphabet, table.design_eps)
