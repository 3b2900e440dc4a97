"""Discrete mechanism tables and their dithered / natural-parameter samplers.

A mechanism table holds a uniform input grid on [0, 1], an output alphabet,
and one categorical distribution per grid point, stored as natural-log
probabilities.  Two samplers extend the table to continuous inputs:

* classic dithering, which mixes the probability rows of the bracketing grid
  points and is unbiased everywhere on [0, 1];
* natural-parameter interpolation, which mixes the log-probability rows and
  stays well defined for every real input at the cost of a small bias.

One letter-major kernel, ``_softmax_terms``, evaluates the interpolated
softmax for ``pmf``, ``log_pmf``, both certifiers and the sampler, and its
lerp, ``_interpolate``, also serves ``interpolate_eta`` and dithering.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

# coordinate_uniforms stays an attribute here, where bench/tracing.py wraps it
from .rng import _is_integer, coordinate_blocks, coordinate_states, coordinate_uniforms  # noqa: F401

# Tolerances of the table invariants, and of the anadromy test.
ROW_SUM_TOL = 1e-9
METRIC_DP_TOL = 1e-9
UNBIASEDNESS_TOL = 1e-6
ANADROMIC_TOL = 1e-9

PROB_FLOOR = 1e-12
# The most cells a table may have.  It bounds the time of the all-pairs
# metric-DP check, which holds at most b_in * b_out floats at once.
MAX_TABLE_CELLS = 4096


def _integer(value, name: str, least: int | None = None):
    """``value``; ``ValueError`` unless it is a Python or numpy integer (a bool,
    which would count or seed as 0 or 1, is not one) of at least ``least``."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    return value


def _as_real(value) -> float:
    """``value`` as a Python float, or NaN unless it is a real number (a bool,
    which would read as 0 or 1, is not one) within float range."""
    try:
        return float(value) if isinstance(value, Real) and not isinstance(value, bool) else np.nan
    except OverflowError:  # an int beyond float range
        return np.nan


def _finite(value, name: str) -> float:
    """``value`` as a Python float; ``ValueError`` unless ``_as_real`` reads it finite."""
    number = _as_real(value)
    if not np.isfinite(number):
        raise ValueError(f"{name} must be a finite real, got {value!r}")
    return number


def _real(value, name: str, nonnegative: bool = False) -> float:
    """``value`` as a Python float, which a numpy scalar then computes and saves
    as; ``ValueError`` unless ``_as_real`` reads it as a float that is finite
    and positive, or non-negative if ``nonnegative``."""
    number = _as_real(value)
    if not (np.isfinite(number) and (number >= 0 if nonnegative else number > 0)):
        form = "a non-negative real" if nonnegative else "positive and finite"
        raise ValueError(f"{name} must be {form}, got {value!r}")
    return number


class TableInvariantError(ValueError):
    """A mechanism table violates one of its construction invariants."""

    def __init__(self, check: str, violation: float, tolerance: float, where: str = ""):
        self.check = check
        self.violation = float(violation)
        self.tolerance = float(tolerance)
        detail = f" ({where})" if where else ""
        super().__init__(
            f"invariant '{check}' violated{detail}: "
            f"max violation {self.violation:.3e} exceeds tolerance {self.tolerance:.3e}"
        )


@dataclass(frozen=True)
class ClipConfig:
    """Norm-ball projection: ``norm`` is 'l1' or 'l2', ``clip_c`` the radius C."""

    norm: str
    clip_c: float

    def __post_init__(self):
        if self.norm not in ("l1", "l2"):
            raise ValueError(f"clip norm must be 'l1' or 'l2', got {self.norm!r}")
        _real(self.clip_c, "clip_c")


def _grid(b_in: int) -> np.ndarray:
    """The uniform input grid x_i = i / (b_in - 1) on [0, 1]."""
    return np.arange(b_in) / (b_in - 1)


def table_violations(alphabet, design_eps: float, log_probs) -> dict[str, tuple[float, str]]:
    """Named invariant checks of a table on the uniform grid, each as
    (max violation, location detail), so arbitrary (possibly broken) data can
    be inspected before a table is constructed.

    Checks: alphabet_order, positivity, simplex, unbiasedness, metric_dp.
    metric_dp covers every pair of rows, not just adjacent ones, so the
    per-pair tolerance cannot add up along the grid; it reports the first
    pair, then letter, holding the maximum, and holds one row's pairs at a
    time; it is inf for a ``design_eps`` that ``_real`` rejects.  ``ValueError``
    for a table of more than ``MAX_TABLE_CELLS`` cells.
    """
    alphabet = np.asarray(alphabet, dtype=float)
    log_probs = np.asarray(log_probs, dtype=float)
    if log_probs.ndim != 2 or min(log_probs.shape) < 2:
        raise ValueError("log_probs must be a (b_in, b_out) array with b_in and b_out at least 2")
    if log_probs.size > MAX_TABLE_CELLS:
        raise ValueError(f"log_probs has {log_probs.size} cells; tables are limited to {MAX_TABLE_CELLS}")
    b_in, b_out = log_probs.shape
    if alphabet.shape != (b_out,):
        raise ValueError(f"alphabet must have shape ({b_out},)")
    grid = _grid(b_in)
    probs = np.exp(log_probs)
    out: dict[str, tuple[float, str]] = {}

    bad = np.flatnonzero(~np.isfinite(alphabet))  # a NaN would pass the ascent check
    a_viol = np.inf if bad.size else float(max(0.0, np.max(alphabet[:-1] - alphabet[1:])))
    out["alphabet_order"] = (a_viol, f"letter {bad[0]} is not finite" if bad.size
                             else "alphabet must ascend")

    min_p = float(np.min(probs))
    if min_p <= 0.0 or not np.all(np.isfinite(log_probs)):
        i, j = np.unravel_index(int(np.argmin(probs)), probs.shape)
        out["positivity"] = (np.inf, f"row {i}, letter {j}")
    else:
        out["positivity"] = (0.0, "")

    row_sums = probs.sum(axis=1)
    i = int(np.argmax(np.abs(row_sums - 1.0)))
    out["simplex"] = (float(np.max(np.abs(row_sums - 1.0))), f"row {i}")

    means = probs @ alphabet
    i = int(np.argmax(np.abs(means - grid)))
    out["unbiasedness"] = (float(np.max(np.abs(means - grid))), f"row {i}")

    dp_viol, where = 0.0, ""
    eps = _as_real(design_eps)
    if not (np.isfinite(eps) and eps > 0):  # as _real; a NaN eps made every gap NaN
        dp_viol, where = np.inf, f"design_eps {design_eps!r} is not positive and finite"
    elif np.all(np.isfinite(log_probs)):
        # row i against the later rows: argmax finds the first row, then
        # letter, holding their maximum, and the strict > keeps the first i's
        for i in range(b_in - 1):
            gap = np.abs(log_probs[i] - log_probs[i + 1:])
            gap -= (eps * np.abs(grid[i] - grid[i + 1:]))[:, None]
            k, j = divmod(int(np.argmax(gap)), b_out)
            if gap[k, j] > dp_viol:
                dp_viol = float(gap[k, j])
                where = f"rows ({i}, {i + 1 + k}), letter {j}"
    else:
        dp_viol, where = np.inf, "non-finite log probabilities"
    out["metric_dp"] = (dp_viol, where)
    return out


_CONSTRUCTION_TOLS = {
    "alphabet_order": 0.0,
    "positivity": 0.0,
    "simplex": ROW_SUM_TOL,
    "unbiasedness": UNBIASEDNESS_TOL,
    "metric_dp": METRIC_DP_TOL,
}


@dataclass(frozen=True, eq=False)
class MechanismTable:
    """A designed discrete mechanism: an output alphabet and one row of
    log probabilities per point of the uniform grid, designed at ``design_eps``.

    Immutable after construction and safe to share across workers.  All
    invariants are enforced here, so downstream samplers may assume finite
    log probabilities and normalized rows.  ``b_in``, ``b_out`` and ``grid``
    follow from the shape of ``log_probs``, and ``probs`` from its values.
    """

    alphabet: np.ndarray
    log_probs: np.ndarray
    design_eps: float

    def __post_init__(self):
        object.__setattr__(self, "design_eps", _real(self.design_eps, "design_eps"))
        alphabet = np.array(self.alphabet, dtype=float)
        log_probs = np.array(self.log_probs, dtype=float)
        checks = table_violations(alphabet, self.design_eps, log_probs)
        for name, (violation, where) in checks.items():
            tol = _CONSTRUCTION_TOLS[name]
            if not violation <= tol:  # NaN-safe
                raise TableInvariantError(name, violation, tol, where)

        for arr in (alphabet, log_probs):
            arr.flags.writeable = False
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "log_probs", log_probs)

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)

    @property
    def b_in(self) -> int:
        return self.log_probs.shape[0]

    @property
    def b_out(self) -> int:
        return self.log_probs.shape[1]

    @property
    def grid(self) -> np.ndarray:
        return _grid(self.b_in)

    @property
    def bits(self) -> int:
        """Wire width of one transmitted index."""
        return int(np.ceil(np.log2(self.b_out)))

    @property
    def anadromic(self) -> bool:
        """Whether the table has two rows, each the other reversed within
        ANADROMIC_TOL: the condition of the Fisher route."""
        return self.b_in == 2 and _anadromic_residual(self) <= ANADROMIC_TOL


@dataclass(frozen=True, eq=False)
class InterpolatedMechanism:
    """A mechanism table bound to an input scaling and clip configuration.

    ``eps_prime`` and ``fisher_m`` are certified accounting constants; they
    are attached by the accountant and re-verified when a mechanism file is
    loaded.  ``fisher_m`` only exists for two-row tables, where the
    interpolated log density is differentiable everywhere.
    """

    table: MechanismTable
    beta: float = 1.0
    clip: ClipConfig = ClipConfig("l2", 1.0)
    eps_prime: float | None = None
    fisher_m: float | None = None

    def __post_init__(self):
        _real(self.beta, "beta")
        if self.eps_prime is not None:
            _real(self.eps_prime, "eps_prime", nonnegative=True)
        if self.fisher_m is not None:
            if self.table.b_in != 2:
                raise ValueError("fisher_m is only defined for tables with b_in=2")
            _real(self.fisher_m, "fisher_m", nonnegative=True)


def _anadromic_residual(table: MechanismTable) -> float:
    """max |eta_0 - reversed eta_1| of a two-row table, which ``anadromic`` bounds."""
    return float(np.max(np.abs(table.log_probs[0] - table.log_probs[1, ::-1])))


def _finite_inputs(x) -> np.ndarray:
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(xs)):
        raise ValueError("inputs must be finite")
    return xs


def _bracket(b_in: int, xs: np.ndarray):
    """Grid interval i and offset t of each finite input in the 1-D array xs,
    x = (i + t) / (b_in - 1); outside [0, 1] the boundary interval is kept
    and t leaves [0, 1]."""
    nseg = b_in - 1
    t = xs * nseg
    i = np.clip(np.floor(t).astype(int), 0, nseg - 1)
    return i, t - i


def _interpolate(rows: np.ndarray, i, t: np.ndarray) -> np.ndarray:
    """(1 - t) rows[i] + t rows[i + 1] per entry of t as a letter-major
    (b_out, N) array, each letter's N values contiguous; ``i`` may be one
    shared index."""
    b_in, b_out = rows.shape
    s = 1.0 - t
    if b_in == 2:  # ``_bracket`` puts every input in interval 0
        z = np.multiply.outer(rows[0], s)
        z += np.multiply.outer(rows[1], t)
    else:
        z = np.empty((b_out, len(t)))
        i1 = i + 1
        for zj, col in zip(z, np.ascontiguousarray(rows.T)):
            np.multiply(s, col[i], out=zj)
            zj += t * col[i1]
    return z


def _pairwise_sum(z: np.ndarray) -> np.ndarray:
    """Sum over the letters of a letter-major (b_out, N) array in the order of
    numpy's ``pairwise_sum``, bit for bit the row sums of the row-major (N, b_out)
    array: in sequence below 8 letters, else 8 running sums (letter j into sum
    j % 8) combined pairwise plus the tail in sequence, and above 128 letters
    the two halves, split at a multiple of 8, summed so and added."""
    n = len(z)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(z[:half]) + _pairwise_sum(z[half:])
    if n < 8:
        tot, tail = z[0].copy(), z[1:]
    else:
        stop = n - n % 8
        # below 16 letters nothing accumulates into the 8 sums
        r = z[:8].copy() if stop > 8 else z[:8]
        for k in range(8, stop, 8):
            r += z[k:k + 8]
        tot = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        tail = z[stop:]
    for row in tail:
        tot += row
    return tot


def _softmax_terms(rows: np.ndarray, i, t: np.ndarray, keep_logits: bool = False):
    """(logits, exp, total) of the interpolated softmax, letter-major: the
    natural parameters shifted to maximum 0, their ``exp`` (written over the
    logits unless ``keep_logits``), and each input's total of it.

    The one kernel through which the mechanism is evaluated: reductions along
    the short letter axis of an (N, b_out) array are slow, so each letter's
    values are contiguous and the total is summed in ``_pairwise_sum``'s
    order, which is numpy's row sum of the row-major array bit for bit.
    """
    z = _interpolate(rows, i, t)
    z -= z.max(axis=0)
    e = np.exp(z, out=None if keep_logits else z)
    return z, e, _pairwise_sum(e)


def _softmax(rows: np.ndarray, i, t: np.ndarray) -> np.ndarray:
    """Letter-major (b_out, N) probabilities; each column sums to 1 within 1e-12."""
    _, p, total = _softmax_terms(rows, i, t)
    p /= total
    return p


def _per_input(z: np.ndarray, x) -> np.ndarray:
    """A letter-major result as one C-ordered row per input, or the one row of a scalar x."""
    out = np.ascontiguousarray(z.T)
    return out[0] if np.ndim(x) == 0 else out


def interpolate_eta(table: MechanismTable, x) -> np.ndarray:
    """Piecewise-linear natural parameter at x.

    Inside [x_i, x_{i+1}] this is the convex combination of eta_i and
    eta_{i+1}; outside [0, 1] the boundary interval's affine rule is extended,
    which for b_in=2 is one global line.  Scalar x returns a vector, an array
    of x returns one row per input.
    """
    return _per_input(
        _interpolate(table.log_probs, *_bracket(table.b_in, _finite_inputs(x))), x)


def log_pmf(table: MechanismTable, x) -> np.ndarray:
    """Log probabilities of the interpolated mechanism at x (full precision)."""
    z, _, total = _softmax_terms(table.log_probs, *_bracket(table.b_in, _finite_inputs(x)),
                                 keep_logits=True)
    z -= np.log(total)
    return _per_input(z, x)


def pmf(table: MechanismTable, x) -> np.ndarray:
    """Sampling probabilities of the interpolated mechanism at x.

    Softmax of the interpolated natural parameter, computed with
    max-subtraction; rows sum to 1 within 1e-12.
    """
    return _per_input(_softmax(table.log_probs, *_bracket(table.b_in, _finite_inputs(x))), x)


def _moments(probs_of, table: MechanismTable, x):
    """Mean and variance at x of the output whose probabilities ``probs_of``
    gives, the variance as sum p (a - mean)^2: E[a^2] - mean^2 cancels digits."""
    p = np.atleast_2d(probs_of(table, np.atleast_1d(np.asarray(x, dtype=float))))
    mean = p @ table.alphabet
    var = np.sum(p * (table.alphabet - mean[:, None]) ** 2, axis=1)
    if np.ndim(x) == 0:
        return float(mean[0]), float(var[0])
    return mean, var


def moments(table: MechanismTable, x):
    """Mean and variance of the interpolated mechanism's output at x."""
    return _moments(pmf, table, x)


def mvu_dither_pmf(table: MechanismTable, x) -> np.ndarray:
    """Dithering probabilities: the convex mix of the bracketing rows.

    Only defined on [0, 1]; the dithered mechanism is unbiased there because
    every grid row is unbiased and the mix is linear.
    """
    xs = _finite_inputs(x)
    if np.any(xs < 0.0) or np.any(xs > 1.0):
        raise ValueError("dithering requires x in [0, 1]")
    return _per_input(_interpolate(table.probs, *_bracket(table.b_in, xs)), x)


def mvu_dither_moments(table: MechanismTable, x):
    """Mean and variance of the dithered mechanism at x in [0, 1]."""
    return _moments(mvu_dither_pmf, table, x)


def _sample(rows: np.ndarray, i: np.ndarray, t: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Output index of each input (i, t): the first letter j with u < cdf_j,
    so ties resolve deterministically; past the last cdf value, the last letter.

    The running cdf is summed one letter at a time, in place (``np.cumsum``
    along the first axis is slow), bit for bit ``np.cumsum`` of ``pmf``.
    """
    cdf = _softmax(rows, i, t)
    for prev, cj in zip(cdf, cdf[1:]):
        cj += prev
    return np.minimum((uniforms >= cdf).sum(axis=0), len(cdf) - 1)


def sample_batch(table: MechanismTable, x: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n independent output indices at a fixed x, a finite real."""
    xs = np.broadcast_to(_finite(x, "x"), _integer(n, "n", least=0))
    return _sample(table.log_probs, *_bracket(table.b_in, xs), rng.random(n))


def clip(u: np.ndarray, cfg: ClipConfig) -> np.ndarray:
    """Project a vector, or each row of an (n, d) array, onto the configured
    norm ball; rows inside it pass unchanged.

    The row norms are the reductions ``np.linalg.norm`` uses, one per row:
    ``add.reduce`` of |u| for l1, and for l2 one dot product per row as a
    stacked matmul (one gemv over all rows, or ``einsum``, differs in the
    last bit), so a row of an array clips bit for bit as the vector alone.
    A finite norm proves its row finite; a finite row whose norm overflows
    is rescaled by its max |u| and measured again, and a non-finite row
    raises.
    """
    def norms(a):
        if cfg.norm == "l1":
            return np.add.reduce(np.abs(a), axis=-1)
        return np.sqrt((a[:, None, :] @ a[:, :, None]).ravel())

    u = np.asarray(u, dtype=float)
    if u.ndim > 2:
        raise ValueError("u must be a vector or an (n, d) array")
    rows = np.ascontiguousarray(np.atleast_2d(u))
    with np.errstate(over="ignore"):  # an overflowed norm is measured again below
        size = norms(rows)
    # rows inside the ball are multiplied by c / c = 1.0 exactly
    scale = cfg.clip_c / np.maximum(size, cfg.clip_c)
    if not np.isfinite(size).all():
        big = ~np.isfinite(size)
        _finite_inputs(rows[big])
        rows = rows.copy()
        rows[big] /= np.max(np.abs(rows[big]), axis=1, keepdims=True)
        scale[big] = cfg.clip_c / norms(rows[big])
    return (rows * scale[:, None]).reshape(u.shape)


def scale_input(u, mech: InterpolatedMechanism):
    """Map a clipped value u in [-C, C] to x = 1/2 + beta*u/(2C), with the C
    and beta of ``mech``, which its constructors checked.

    Applied coordinate-wise to vectors.  beta=1 lands in [0, 1]; larger beta
    spreads concentrated inputs over (and beyond) the design range.
    """
    return 0.5 + mech.beta * np.asarray(u, dtype=float) / (2.0 * mech.clip.clip_c)


def decode(a, mech: InterpolatedMechanism):
    """Server-side inverse of scale_input: (2C/beta) * (a - 1/2)."""
    return (2.0 * mech.clip.clip_c / mech.beta) * (np.asarray(a, dtype=float) - 0.5)


def privatize_vector(
    mech: InterpolatedMechanism,
    u: np.ndarray,
    seed,
    coord_range: tuple[int, int] | None = None,
):
    """Privatize a client vector, or a cohort of them: clip, scale, sample each coordinate.

    ``u`` is one vector with an integer ``seed``, or an (n, d) cohort with a
    sequence of n integer seeds, one per row (a bool is not an integer seed:
    it would draw seed 0's or 1's indices), or with the coordinate streams
    that ``rng.coordinate_states(seeds, lo, hi)`` derived from them for the
    range [lo, hi) sampled here.  Returns (indices, decoded values) for the
    coordinates in ``coord_range``, one row per client for a cohort.  The
    indices are the wire form, one ``table.bits``-wide symbol per coordinate.
    Randomness is a pure function of (seed, coordinate), so row k of a cohort
    is bit for bit the vector call on ``u[k]`` with ``seed[k]``, and a worker
    evaluating only ``coord_range`` (a chunk-aligned [lo, hi) slice) produces
    exactly the slice a single worker would; results are independent of the
    worker count.  All rows are clipped in one ``clip`` call whose row norms
    equal the vector norms bit for bit; sampling then takes each block of
    ``rng.coordinate_blocks`` over all rows together.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim not in (1, 2) or u.size == 0:
        raise ValueError("u must be a non-empty 1-D vector or (n, d) cohort")
    cohort = u.ndim == 2
    # a cohort's streams, derived ahead (a training run derives many rounds' at once)
    states = seed if cohort and isinstance(seed, np.ndarray) and seed.ndim == 3 else None
    if states is None:
        try:
            # a float, str or bool seed would be truncated, hashed or read as 0 or 1
            seeds = [_integer(s, "seed") for s in (seed if cohort else [seed])]
        except (TypeError, ValueError):
            raise ValueError("a vector takes one integer seed, a cohort a sequence of "
                             "integer seeds") from None
    d, n = u.shape[-1], len(seeds) if states is None else states.shape[1]
    if cohort and n != len(u):
        raise ValueError(f"need one seed per row: got {n} seeds for {len(u)} rows")
    clipped = np.atleast_2d(clip(u, mech.clip))  # raises on a non-finite row
    lo, hi = (0, d) if coord_range is None else (
        _integer(c, "coordinate range endpoint") for c in coord_range)
    if not 0 <= lo <= hi <= d:
        raise ValueError(f"coordinate range [{lo}, {hi}) out of bounds for dim {d}")
    if states is None:
        states = coordinate_states(seeds, lo, hi)
    table = mech.table
    x = scale_input(clipped[:, lo:hi], mech)
    indices = np.empty(x.shape, dtype=np.intp)
    for c0, c1, uniforms in coordinate_blocks(states, lo, hi):
        block = x[:, c0 - lo:c1 - lo]
        # clipping checked u, and clipping and scaling keep x finite
        i, t = _bracket(table.b_in, block.ravel())
        sampled = _sample(table.log_probs, i, t, uniforms.ravel())
        indices[:, c0 - lo:c1 - lo] = sampled.reshape(block.shape)
    if not cohort:
        indices = indices[0]
    # each letter decoded once, then gathered: the same bytes as decoding each index
    return indices, decode(table.alphabet, mech)[indices]
