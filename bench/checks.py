"""Correctness checks that the benchmark computes without calling the program.

Every function here works from plain arrays (the parsed mechanism file, the
client vectors the benchmark generated) and re-derives what the program
should have produced: the design invariants, the randomized-response closed
form, the eps' and Fisher-information suprema on dense grids, the expected
mean-estimation error from the table's moments and the RDP ledger.  Each
returns ``(passed, detail)`` so a failing check can say what it saw.
"""

from __future__ import annotations

import json

import numpy as np

ROW_SUM_TOL = 1e-9
UNBIASED_TOL = 1e-6
DP_TOL = 1e-9
RR_TOL = 1e-5
EPS_PRIME_POINTS = 20_001          # per grid interval
EPS_PRIME_REL_SLACK = 1e-3         # certified pad allowed above the grid maximum
FISHER_HALF_WIDTH = 50.0           # search x in [1/2 - W, 1/2 + W]
FISHER_COARSE_STEP = 1e-3
FISHER_REL_SLACK = 1e-6
MSE_MAX_Z = 6.0


def load_table(path) -> dict:
    """Parse a mechanism file into arrays, independently of imvu.table_io."""
    with open(path) as handle:
        doc = json.load(handle)
    acct = doc["accounting"]
    return {
        "b_in": int(doc["b_in"]),
        "b_out": int(doc["b_out"]),
        "eps": float(doc["design_eps"]),
        "grid": np.asarray(doc["grid"], dtype=float),
        "alphabet": np.asarray(doc["alphabet"], dtype=float),
        "log_probs": np.asarray(doc["log_probs"], dtype=float),
        "eps_prime": acct["eps_prime"],
        "fisher_m": acct["fisher_m"],
        "beta": float(acct["beta"]),
        "clip_c": float(acct["clip_c"]),
    }


def _softmax_rows(eta: np.ndarray) -> np.ndarray:
    z = np.exp(eta - eta.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def _interpolated_eta(table: dict, xs: np.ndarray) -> np.ndarray:
    """Piecewise-linear interpolation of the log rows at each x, shifted so
    each row's maximum is 0.  Outside [0, 1] the boundary segment's line is
    extended, which is the sampler rule the paper's accounting assumes."""
    logs = table["log_probs"]
    nseg = table["b_in"] - 1
    t = np.asarray(xs, dtype=float) * nseg
    i = np.clip(np.floor(t).astype(int), 0, nseg - 1)
    frac = (t - i)[:, None]
    eta = (1.0 - frac) * logs[i] + frac * logs[i + 1]
    return eta - eta.max(axis=1, keepdims=True)


def interpolated_log_pmf(table: dict, xs: np.ndarray) -> np.ndarray:
    """Log-softmax of the interpolated log rows."""
    eta = _interpolated_eta(table, xs)
    return eta - np.log(np.exp(eta).sum(axis=1, keepdims=True))


def check_rows(table: dict):
    """Rows sum to 1 and every probability is positive."""
    probs = np.exp(table["log_probs"])
    worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    ok = worst <= ROW_SUM_TOL and bool(np.all(probs > 0.0))
    return ok, f"max |row sum - 1| = {worst:.3e}, min p = {probs.min():.3e}"


def check_unbiased(table: dict):
    """The mean output at each grid point equals that grid point."""
    probs = np.exp(table["log_probs"])
    expected = np.arange(table["b_in"]) / (table["b_in"] - 1)
    worst = float(np.max(np.abs(probs @ table["alphabet"] - expected)))
    return worst <= UNBIASED_TOL, f"max |mean - x_i| = {worst:.3e}"


def check_metric_dp(table: dict):
    """|log p_ij - log p_kj| <= eps |x_i - x_k| + 1e-9 for every row pair."""
    logs = table["log_probs"]
    x = np.arange(table["b_in"]) / (table["b_in"] - 1)
    gap = np.abs(logs[:, None, :] - logs[None, :, :]).max(axis=2)
    excess = gap - table["eps"] * np.abs(x[:, None] - x[None, :])
    worst = float(excess.max())
    return worst <= DP_TOL, f"max excess over eps|x_i - x_k| = {worst:.3e}"


def check_rr_closed_form(table: dict):
    """A one-bit table equals randomized response at its epsilon."""
    e = np.exp(table["eps"])
    alphabet = np.array([-1.0 / (e - 1.0), e / (e - 1.0)])
    p = e / (1.0 + e)
    rows = np.array([[p, 1.0 - p], [1.0 - p, p]])
    worst = max(
        float(np.max(np.abs(table["alphabet"] - alphabet))),
        float(np.max(np.abs(np.exp(table["log_probs"]) - rows))),
    )
    return worst <= RR_TOL, f"max distance to the closed form = {worst:.3e}"


def eps_prime_grid_max(table: dict, points: int = EPS_PRIME_POINTS) -> float:
    """Dense-grid maximum of (b_in - 1) |softmax(eta(x)) . theta_i| over the
    accounting domain, interval by interval (no certification pad)."""
    logs = table["log_probs"]
    nseg = table["b_in"] - 1
    beta = table["beta"]
    lo_dom, hi_dom = min((1.0 - beta) / 2.0, 0.0), max((1.0 + beta) / 2.0, 1.0)
    best = 0.0
    for i in range(nseg):
        lo = i / nseg if i > 0 else lo_dom
        hi = (i + 1) / nseg if i < nseg - 1 else hi_dom
        theta = logs[i + 1] - logs[i]
        t = np.linspace(lo, hi, points)[:, None] * nseg - i
        sm = _softmax_rows((1.0 - t) * logs[i] + t * logs[i + 1])
        best = max(best, float(np.abs(sm @ theta).max()))
    return nseg * best


def check_eps_prime(table: dict):
    """The stored eps' dominates the dense-grid maximum and is not padded
    by more than a small relative slack."""
    stored = table["eps_prime"]
    if stored is None:
        return False, "no eps_prime attached"
    grid = eps_prime_grid_max(table)
    ok = grid <= stored <= grid * (1.0 + EPS_PRIME_REL_SLACK) + 1e-12
    return ok, f"stored {stored:.9g}, grid maximum {grid:.9g}"


def check_max_divergence(table: dict, rng: np.random.Generator, pairs: int = 4000):
    """Sampled input pairs satisfy max_j |log p_j(x) - log p_j(x')| <=
    (eps + eps') |x - x'|; half the pairs are close together, where the
    ratio is largest."""
    stored = table["eps_prime"]
    if stored is None:
        return False, "no eps_prime attached"
    beta = table["beta"]
    lo, hi = (1.0 - beta) / 2.0, (1.0 + beta) / 2.0
    x = rng.uniform(lo, hi, pairs)
    far = rng.uniform(lo, hi, pairs // 2)
    near = np.clip(x[pairs // 2:] + rng.uniform(-1e-2, 1e-2, pairs - pairs // 2), lo, hi)
    x2 = np.concatenate([far, near])
    div = np.abs(interpolated_log_pmf(table, x) - interpolated_log_pmf(table, x2)).max(axis=1)
    bound = (table["eps"] + stored) * np.abs(x - x2)
    worst = float(np.max(div - bound))
    return worst <= 1e-12, f"max divergence minus bound = {worst:.3e} over {pairs} pairs"


def fisher_info(table: dict, xs: np.ndarray) -> np.ndarray:
    """Variance of theta = eta_2 - eta_1 under softmax(eta(x)): the Fisher
    information of the interpolated two-row mechanism."""
    eta1, eta2 = table["log_probs"]
    theta = eta2 - eta1
    sm = _softmax_rows(np.outer(1.0 - xs, eta1) + np.outer(xs, eta2))
    return np.maximum(sm @ theta**2 - (sm @ theta) ** 2, 0.0)


def fisher_grid_max(table: dict, offset: float = 0.0, refine: int = 5) -> float:
    """Maximum of the Fisher information on a dense grid over a wide interval.

    A coarse pass over [1/2 - W, 1/2 + W] finds the local maxima; the
    ``refine`` largest are re-gridded at 1e-7 spacing.  ``offset`` in [0, 1)
    shifts the coarse grid by that share of a step.
    """
    n = int(2 * FISHER_HALF_WIDTH / FISHER_COARSE_STEP)
    xs = 0.5 - FISHER_HALF_WIDTH + (np.arange(n + 1) + offset) * FISHER_COARSE_STEP
    vals = fisher_info(table, xs)
    peaks = np.nonzero((vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:]))[0] + 1
    best = float(vals.max())
    for k in peaks[np.argsort(vals[peaks])[::-1][:refine]]:
        fine = np.linspace(xs[k - 1], xs[k + 1], 20_001)
        best = max(best, float(fisher_info(table, fine).max()))
    return best


def check_fisher(table: dict, offset: float = 0.0):
    """fisher_m >= the grid maximum and at most 1e-6 above it, relatively."""
    stored = table["fisher_m"]
    if stored is None:
        return False, "no fisher_m attached"
    grid = fisher_grid_max(table, offset)
    ok = grid <= stored <= grid * (1.0 + FISHER_REL_SLACK)
    return ok, f"stored {stored:.12g}, grid maximum {grid:.12g}"


def expected_dme_error(table: dict, clip_norm: str, u: np.ndarray):
    """Mean and standard error of the per-coordinate squared error of the
    decoded client mean, from the table's interpolated moments.

    For coordinate k the error is m_k + S_k with m_k the mean bias over
    clients and S_k a sum of independent centred terms; the expected squared
    error is m_k^2 + Var S_k and its variance follows from the second to
    fourth central moments of each client's decoded output.
    """
    n, d = u.shape
    c, beta = table["clip_c"], table["beta"]
    order = 1 if clip_norm == "l1" else 2
    norms = np.linalg.norm(u, ord=order, axis=1, keepdims=True)
    clipped = np.where(norms > c, u * (c / norms), u)
    x = 0.5 + beta * clipped / (2.0 * c)
    scale = 2.0 * c / beta
    letters = scale * (table["alphabet"] - 0.5)                  # decoded values
    mean = np.empty((n, d))
    mu2, mu3, mu4 = (np.empty((n, d)) for _ in range(3))
    for i in range(n):
        p = np.exp(_interpolated_eta(table, x[i]))
        p /= p.sum(axis=1, keepdims=True)
        mean[i] = p @ letters
        dev = letters[None, :] - mean[i][:, None]
        w = p * dev * dev
        mu2[i] = w.sum(axis=1)
        w *= dev
        mu3[i] = w.sum(axis=1)
        w *= dev
        mu4[i] = w.sum(axis=1)
    m = (mean - u).mean(axis=0)
    v = mu2.sum(axis=0) / n**2
    s3 = mu3.sum(axis=0) / n**3
    s4 = mu4.sum(axis=0) / n**4 + 3.0 * (mu2.sum(axis=0) ** 2 - (mu2**2).sum(axis=0)) / n**4
    second = m**2 + v
    fourth = m**4 + 6.0 * m**2 * v + 4.0 * m * s3 + s4
    return float(second.mean()), float(np.sqrt(np.maximum(fourth - second**2, 0.0).sum()) / d)


def check_dme_mse(mse: float, expected: float, stderr: float):
    """Measured MSE within MSE_MAX_Z standard errors of the expectation."""
    z = abs(mse - expected) / stderr
    return z <= MSE_MAX_Z, f"mse {mse:.6g}, expected {expected:.6g} (z = {z:.2f})"


def rdp_spent(fisher_m: float, beta: float, rounds: int, delta: float, alphas) -> np.ndarray:
    """(eps, delta) after t = 1..rounds: t alpha M beta^2 / 2 converted by
    the standard RDP bound and minimised over the alpha grid."""
    a = np.asarray(alphas, dtype=float)
    t = np.arange(1, rounds + 1, dtype=float)[:, None]
    rdp = t * a * fisher_m * beta**2 / 2.0
    conv = rdp + np.log((a - 1.0) / a) - (np.log(delta) + np.log(a)) / (a - 1.0)
    return conv.min(axis=1)


def check_spent(spent: np.ndarray, own: np.ndarray):
    """The training ledger equals the benchmark's own composition and never
    decreases."""
    if spent.shape != own.shape:
        return False, f"{spent.size} ledger entries for {own.size} rounds"
    rel = float(np.max(np.abs(spent - own) / own))
    ok = rel <= 1e-12 and bool(np.all(np.diff(spent) >= 0.0))
    return ok, f"max relative gap to own composition = {rel:.3e}"
