"""Numerical design of minimum-variance unbiased tables.

For a fixed affine output alphabet the design problem is a linear program in
the row probabilities: minimize the summed output variance over the grid
subject to the row simplex, exact unbiasedness at every grid point, and the
metric-DP ratio constraints between adjacent rows, which telescope to every
pair because the grid is uniform.  The LP is stated once, as its nonzero
entries, and each column-wise form HiGHS is given is derived from them.
Reversing the rows and the letters together leaves it unchanged, so it is
solved over mirror-symmetric tables, with half the columns and rows, and
every design is anadromic.  The alphabet scale s is searched exactly: in
r = 1/s the LP's optimal value is convex and piecewise linear, so a few LP
solves find all of its linear pieces, and the variance on each piece is
least at an end, which those solves reach.  A
search keeps its LP in one HiGHS model and re-solves it cold at every scale,
moving only the right-hand side, with the numbers ``scipy.optimize.linprog``
gives; where scipy lacks its bundled HiGHS binding, every solve goes through
``linprog``.  For one-bit tables the design recovers the randomized-response
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mechanism import (
    MAX_TABLE_CELLS,
    PROB_FLOOR,
    MechanismTable,
    TableInvariantError,
    _grid,
    _integer,
    _real,
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
# Relative rounding, against the size g / r^2 of its terms, of a variance
# g / r^2 - const evaluated on a tangent's quadratic: a few ulps.
_ROUND_TOL = 4 * np.finfo(float).eps

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

    ``b_in`` and ``b_out`` are integers of at least 2, and ``eps``, a positive
    real, is the L1-metric-DP budget of the table itself; none is a bool.  The
    alphabet is the affine family a_j = 1/2 + s * c_j, c_j = 2j/(b_out-1) - 1
    for j = 0 .. b_out-1, and ``design_mvu`` returns the table of least
    variance over every scale s in ``scale_range()``.  The bracket's upper end
    is always feasible and its lower end 1/2 never is (it would need a
    deterministic table), so the optimum lies inside it.
    """

    b_in: int
    b_out: int
    eps: float
    # accepted and ignored: every design is anadromic
    symmetrize: bool = False

    def __post_init__(self):
        _integer(self.b_in, "b_in", least=2)
        _integer(self.b_out, "b_out", least=2)
        object.__setattr__(self, "eps", _real(self.eps, "eps"))
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
    """Max violation per named check, with a location hint for each, and the
    tolerance the checks are judged at; a NaN violation fails."""

    checks: dict[str, float]
    where: dict[str, str]
    tol: float

    @property
    def failures(self) -> list[str]:
        return [name for name, v in self.checks.items() if not v <= self.tol]

    @property
    def passed(self) -> bool:
        return not self.failures


def validate_table(table: MechanismTable, tol: float = 1e-6) -> ValidationReport:
    """Report-only check of all design invariants of a table; raw, possibly
    corrupted data goes to ``table_violations`` instead.  ``tol`` must be
    a finite, non-negative real.
    """
    _real(tol, "tol", nonnegative=True)
    raw = table_violations(table.alphabet, table.design_eps, table.log_probs)
    checks = {name: viol for name, (viol, _) in raw.items()}
    where = {name: loc for name, (_, loc) in raw.items()}
    return ValidationReport(checks=checks, where=where, tol=tol)


def _letters(b_out: int) -> np.ndarray:
    """Alphabet shape c_j = 2j/(b_out - 1) - 1, so a_j = 1/2 + s c_j."""
    return 2.0 * np.arange(b_out, dtype=float) / (b_out - 1) - 1.0


def _alphabet(b_out: int, scale: float) -> np.ndarray:
    return 0.5 + scale * _letters(b_out)


def _growth(b_in: int, eps: float) -> float:
    """e^(eps/(b_in-1)), the growth of the design LP's ratio rows, or 0 where
    they are dropped: from 1/PROB_FLOOR on they are implied by the variable
    bounds (p <= 1 <= growth * floor) and would overflow the solver's
    coefficient range."""
    step = eps / (b_in - 1)
    return np.exp(step) if step < np.log(1.0 / PROB_FLOOR) else 0.0


def _rows(b_in: int, b_out: int, eps: float, letters: np.ndarray):
    """The design LP's nonzeros as (row, column, value) entries, and m_ub,
    its number of ratio rows, which come first, as ``linprog`` orders them.

    The variables are the row-major probabilities p[i, j], k = i b_out + j.
    With m = (b_in - 1) b_out, ratio row k < m is p[k] <= e^(eps/(b_in-1))
    p[k + b_out] (forward) and m + k is p[k + b_out] <= e^(eps/(b_in-1))
    p[k] (backward); then come the row simplex 2m + i and the row mean over
    ``letters`` 2m + b_in + i.  ``_columns`` gives the form HiGHS takes.
    """
    n, growth = b_in * b_out, _growth(b_in, eps)
    m = n - b_out if growth else 0
    k, r = np.arange(n), np.arange(m)
    i, j = np.divmod(k, b_out)
    row = np.concatenate([r, r, m + r, m + r, 2 * m + i, 2 * m + b_in + i])
    col = np.concatenate([r, r + b_out, r, r + b_out, k, k])
    value = np.concatenate([np.ones(m), np.full(m, -growth), np.full(m, -growth), np.ones(m),
                            np.ones(n), letters[j]])
    nonzero = value != 0
    return row[nonzero], col[nonzero], value[nonzero], 2 * m


def _columns(row, col, value, m_ub):
    """LP entries in the column form HiGHS takes: (start, index, value,
    m_ub), sorted by column and then row, the entries of one cell summed."""
    order = np.lexsort((row, col))
    row, col = row[order], col[order]
    first = np.flatnonzero(np.append(True, (np.diff(col) != 0) | (np.diff(row) != 0)))
    start = np.searchsorted(col[first], np.arange(col[-1] + 2))
    return start, row[first], np.add.reduceat(value[order], first), m_ub


def _orbits(b_in: int, b_out: int) -> np.ndarray:
    """The mirror orbit of each cell k = i b_out + j: reversing the rows and
    the letters together maps k to n - 1 - k, and the orbit is the smaller."""
    k = np.arange(b_in * b_out)
    return np.minimum(k, k[::-1])


def _quotient(b_in: int, b_out: int, row, col, value, m_ub):
    """The design LP's entries (``_rows``) on its mirror quotient.

    Reversing the rows and the letters together leaves the LP unchanged
    (the grid and the letters are symmetric), so the average of an optimum
    with its mirror is an optimum, and the LP over mirror-symmetric p has
    the same value: the standard symmetry reduction of an LP (Boedi, Herr &
    Joswig, Mathematical Programming 141, 2013).  Substituting p[k] =
    q[``_orbits``[k]] maps each cell's entries to its orbit's column.  Every
    backward ratio row then repeats a forward one, and simplex and mean row
    b_in - 1 - i repeat row i, the mean negated; the middle mean row of an
    odd b_in is 0 = 0.  Kept are the m forward ratio rows, then the simplex
    rows i < (b_in + 1) // 2 and the mean rows i < b_in // 2.
    """
    m, h = m_ub // 2, (b_in + 1) // 2
    kept = np.r_[:m, 2 * m:2 * m + h, 2 * m + b_in:2 * m + b_in + b_in // 2]
    renumber = np.full(2 * m + 2 * b_in, -1)
    renumber[kept] = np.arange(kept.size)
    row = renumber[row]
    keep = row >= 0
    return row[keep], _orbits(b_in, b_out)[col[keep]], value[keep], m


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call: importing
    scipy.optimize is most of the time a cold ``import imvu`` would take."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _rows_hold(rows, b_eq, x) -> bool:
    """Whether ``x`` meets the rows of an LP given by ``_columns`` within
    ``_LINPROG_CHECK_TOL``, with A x computed here from ``x``: HiGHS can
    call an LP optimal, its row values meeting every row, while its x
    misses them (2x128 at eps = 25, where the ratio rows carry e^25)."""
    start, index, value, m_ub = rows
    ax = np.bincount(index, value * np.repeat(x, np.diff(start)), minlength=m_ub + b_eq.size)
    return bool(np.all(ax[:m_ub] <= _LINPROG_CHECK_TOL)
                and np.all(np.abs(ax[m_ub:] - b_eq) <= _LINPROG_CHECK_TOL))


def _linprog(cost, rows, b_eq, bounds=(PROB_FLOOR, 1.0)):
    """HiGHS on one design LP, given by ``_columns``: (fun, x, equality-row
    duals), retried once without presolve if the solve fails; None if that
    fails too.  A solve whose x misses the rows (``_rows_hold``) fails.

    Presolve calls LPs infeasible that sit on the feasibility boundary
    within the solver's tolerances (2x2 at eps = 25, at the largest
    feasible 1/scale), which is where the optimum often lies.
    """
    from scipy.sparse import csc_array

    start, index, value, m_ub = rows
    matrix = csc_array((value, index, start), shape=(m_ub + b_eq.size, cost.size))
    for presolve in (True, False):
        res = linprog(
            cost,
            A_ub=matrix[:m_ub],
            b_ub=np.zeros(m_ub),
            A_eq=matrix[m_ub:],
            b_eq=b_eq,
            bounds=bounds,
            method="highs",
            options={**_LP_OPTIONS, "presolve": presolve},
        )
        if res.success and _rows_hold(rows, b_eq, res.x):
            return res.fun, res.x, res.eqlin.marginals
    return None


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

    def __init__(self, core, cost, rows, bounds):
        start, index, value, m_ub = rows
        # every row holds a coefficient, the last equality row included
        num_row = int(index.max()) + 1
        self._core, self._rows, self._m_ub = core, rows, m_ub
        self._b_eq = np.zeros(num_row - m_ub)
        self._lb, self._ub = np.broadcast_to(np.asarray(bounds, dtype=float), (cost.size, 2)).T.copy()
        lp = core.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = cost.size
        lp.num_row_ = lp.a_matrix_.num_row_ = num_row
        lp.a_matrix_.format_ = core.MatrixFormat.kColwise
        lp.a_matrix_.start_ = start
        lp.a_matrix_.index_ = index
        lp.a_matrix_.value_ = value
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
        """``_linprog``'s (fun, x, equality-row duals) at right-hand side
        ``b_eq``, bit for bit; None where ``_linprog`` fails."""
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
            x = np.array(solution.col_value)
            if (not np.isnan(fun)
                    and np.all((x >= self._lb - _LINPROG_CHECK_TOL) & (x <= self._ub + _LINPROG_CHECK_TOL))
                    and _rows_hold(self._rows, b_eq, x)):
                return fun, x, np.array(solution.row_dual)[m:]
        return None


def _lp_solver(cost, rows, bounds=(PROB_FLOOR, 1.0)):
    """``solve(b_eq)`` for one design LP, given by ``_columns``: ``_linprog``'s
    (fun, x, equality-row duals) at right-hand side ``b_eq``, or None if the
    solve failed.

    Where scipy bundles its HiGHS binding, every right-hand side is solved on
    one ``_HighsLP`` model, which returns the same tuple bit for bit; scipy
    releases without it solve each one through ``_linprog`` itself.
    """
    try:
        import scipy.optimize._highspy._core as core
    except ImportError:
        return lambda b_eq: _linprog(cost, rows, b_eq, bounds)
    return _HighsLP(core, cost, rows, bounds).solve


def _solve_lp(b_in: int, b_out: int, eps: float, scale: float) -> float:
    """LP variance at one alphabet scale, on the full LP (the oracle of the
    quotient the search solves); inf if no optimum is found."""
    alphabet = _alphabet(b_out, scale)
    grid = _grid(b_in)
    rows = _columns(*_rows(b_in, b_out, eps, alphabet))
    sol = _linprog(np.tile(alphabet**2, b_in), rows, np.concatenate([np.ones(b_in), grid]))
    return np.inf if sol is None else float(sol[0] - np.sum(grid**2))


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
    the (b_in, b_out) mirror-symmetric LP solution there.

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

    On a piece g = alpha + gamma r the variance is V(s) = alpha s^2 +
    gamma s - const, and V'(s) = alpha s + s g(1/s) >= alpha s as the cost
    is non-negative: V increases where alpha >= 0 and is concave where
    alpha < 0, so its least lies at an end of the piece, which the sandwich
    has solved.  (The exact g is also even, so its slopes are >= 0 on the
    bracket; HiGHS's need not be, at ratio rows of e^22 or more.)  Variances
    within ``_PIECE_TOL`` of the least solved one tie, and the smallest of
    their scales wins.  ``DesignError`` if no LP solved.

    Intervals that cannot hold the winner are dropped unsolved, as in Land
    & Doig's branch and bound (Econometrica 28, 1960).  The tangents la, lb
    at the ends of [ra, rb] support the convex g, so g >= max(la, lb) there,
    and on s in [1/rb, 1/ra] every variance the interval could yield at a
    point it solves is at least B = min F, F(s) = max(qa(s), qb(s)), with
    qx(s) = (gx - dx rx) s^2 + dx s - const the quadratic of tangent x
    (``_least_of_max``).  The interval is dropped when (i) B
    exceeds the least solved variance v* by more than the tie margin, so
    nothing inside ties with the final least, which is at most v*; or (ii)
    B is at least the least variance v_b solved at some r >= rb, so a tie
    inside is also tied by that smaller scale, which the tie rule prefers.
    At s = 1/rb, B is v(rb) itself evaluated on the quadratic, so (ii)
    allows B to fall short of v_b by its rounding, ``_ROUND_TOL`` of the
    terms (the quotient's slopes, read from half the mean rows, round
    differently from the full LP's).  Either way the least, the ties and
    the winner are those of the full sandwich, and kept intervals are
    processed as if nothing were dropped, each LP cold.  The first
    interval, [1/hi, r_max (1 - ``_R_MAX_INSET``)], is tested on its right
    tangent alone before the LP at 1/hi is solved.

    Both LPs come from ``_rows``' one list of entries, each put in column
    form by ``_columns``.  Every LP but the free one is solved on the mirror
    quotient (``_quotient``), whose value is g's and whose kept mean rows'
    duals give its slope; a solution is expanded to one value per cell.  The
    free LP, the entries with r as one more column, stays on the full rows:
    the quotient's puts r_max a few 1e-12 further out, where the LP at r_max
    fails (4x4 at eps = 40), and the variance of a design whose optimum lies
    at r_max moves with r_max's last bits.  Where the quotient's LP at r_max
    fails all the same (2x8 at eps = 5), the free LP's own point, feasible
    there, averaged with its mirror, is its candidate, at no further LP.
    """
    b_in, b_out = spec.b_in, spec.b_out
    letters = _letters(b_out)
    offsets = _grid(b_in) - 0.5
    const = float(offsets @ offsets)
    # the quotient's equality rows: simplex rows i < (b_in + 1) // 2, then the
    # mean rows i < b_in // 2, whose offsets are all nonzero
    ones, kept = np.ones((b_in + 1) // 2), offsets[:b_in // 2]
    orbits = _orbits(b_in, b_out)
    entries = _rows(b_in, b_out, spec.eps, letters)
    cost = np.bincount(orbits, np.tile(letters**2, b_in))
    rows = _columns(*_quotient(b_in, b_out, *entries))
    lo, hi = spec.scale_range()
    r_lo, r_hi = 1.0 / hi, 1.0 / lo
    bound, solved = _LPS_PER_CELL * b_in * b_out, {}
    solve = _lp_solver(cost, rows)

    def tangent(r):
        if r not in solved:
            if len(solved) + 1 >= bound:  # the free LP counts too
                raise DesignError(
                    f"scale search reached its bound of {bound:g} LP solves "
                    f"for {b_in}x{b_out} at eps={spec.eps:g}"
                )
            sol = solve(np.concatenate([ones, kept * r]))
            solved[r] = None
            if sol is not None:
                fun, x, duals = sol
                solved[r] = r, float(fun), float(duals[ones.size:] @ kept), x[orbits].reshape(b_in, b_out)
        return solved[r]

    def dropped(ra, rb, ends):
        """Whether [ra, rb] cannot hold the winner, by its end tangents ``ends``."""
        floor = _least_of_max(1.0 / rb, 1.0 / ra, [(g - d * r, d) for r, g, d, _ in ends]) - const
        values = [(r, g / r**2 - const) for r, g, _, _ in filter(None, solved.values())]
        least = min(v for _, v in values)
        right = min((v for r, v in values if r >= rb), default=np.inf)
        return (floor > least + _PIECE_TOL * abs(least)
                or floor >= right - _ROUND_TOL * (const + abs(right)))

    # r is one more variable of the full LP, -offsets its column in the
    # nonzero mean rows
    row, col, value, m_ub = entries
    n, used = b_in * b_out, np.flatnonzero(offsets)
    free = _lp_solver(
        np.append(np.zeros(n), -1.0),
        _columns(np.append(row, m_ub + b_in + used), np.append(col, np.full(used.size, n)),
                 np.append(value, -offsets[used]), m_ub),
        bounds=[(PROB_FLOOR, 1.0)] * n + [(r_lo, r_hi)],
    )(np.concatenate([np.ones(b_in), np.zeros(b_in)]))
    r_top = float(free[1][-1]) if free is not None else r_lo
    r_end = max(r_lo, r_top * (1.0 - _R_MAX_INSET))
    end = tangent(r_end)
    if tangent(r_top) is None and free is not None and r_top > r_end:
        p = free[1][:-1].reshape(b_in, b_out)
        p = 0.5 * (p + p[::-1, ::-1])
        solved[r_top] = r_top, float(letters**2 @ p.sum(axis=0)), np.nan, p
    stack = []
    # the first interval is tested on its right tangent before 1/hi is solved
    if r_end > r_lo and (end is None or not dropped(r_lo, r_end, [end])):
        if (start := tangent(r_lo)) is not None and end is not None:
            stack.append((start, end))
    while stack:
        (ra, ga, da, _), (rb, gb, db, _) = a, b = stack.pop()
        if dropped(ra, rb, [a, b]):
            continue
        tol = _PIECE_TOL * max(1.0, abs(ga), abs(gb))
        # one piece: a's (b's) tangent passes through b's (a's) end
        if gb - ga - da * (rb - ra) <= tol or ga - gb - db * (ra - rb) <= tol:
            continue
        # where the end tangents meet; at an end, a failed LP, or two pieces: no split
        rc = (gb - ga + da * ra - db * rb) / (da - db)
        if (rc >= rb * (1.0 - _PIECE_TOL) or rc <= ra * (1.0 + _PIECE_TOL)
                or (c := tangent(rc)) is None or c[1] - ga - da * (rc - ra) <= tol):
            continue
        stack += [(a, c), (c, b)]

    # The upper end of the scale bracket is always feasible: the two-letter
    # linear table is metric-DP once s >= 1/2 + 1/eps, which hi exceeds.  No
    # solved LP therefore means the solver failed.
    if not any(solved.values()):
        raise DesignError(f"design LP solver failed at every scale in [{lo:.4f}, {hi:.4f}]")
    cands = [(g / r**2 - const, 1.0 / r, x) for r, g, _, x in filter(None, solved.values())]
    least = min(c[0] for c in cands)
    ties = [c for c in cands if c[0] <= least + _PIECE_TOL * abs(least)]
    _, scale, probs = min(ties, key=lambda c: c[1])
    return scale, probs


def design_mvu(spec: DesignSpec) -> MechanismTable:
    """Design a table for the given spec.

    Takes the least-variance scale over the whole bracket and the LP
    solution there from the exact parametric search (``_best_scale``, which
    solves LPs only in the intervals of the scale that may hold the
    optimum), repairs that solution in log space and averages it with its
    mirror (the repair's passes commute with the mirror bit for bit, but not
    its row sums: numpy sums a row and its reverse in different orders), and
    constructs the anadromic MechanismTable, whose construction validates
    every invariant.
    """
    if spec.b_in * spec.b_out > MAX_TABLE_CELLS:
        raise DesignError(
            f"table has {spec.b_in * spec.b_out} cells; "
            f"the designer is limited to {MAX_TABLE_CELLS}"
        )
    scale, raw_probs = _best_scale(spec)
    return _symmetrized(_repair_probs(raw_probs, spec.eps), _alphabet(spec.b_out, scale), spec.eps)


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
    return table


def enforce_anadromic(table: MechanismTable) -> MechanismTable:
    """Symmetrize a table so reversed-index natural parameters match.

    Two-row designs pass through bit for bit.  Beyond two rows the
    renormalisation sums a row and its mirror in different orders (see
    ``design_mvu``), so an anadromic table may move by a few ulp (at most
    4.4e-16 in log probability over b_in 3-8, b_out 2-16, eps 0.5-10) and
    come out not exactly mirrored.
    """
    return _symmetrized(table.probs, table.alphabet, table.design_eps)
