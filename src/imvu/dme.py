"""Bias/variance sweeps and distributed mean estimation comparisons."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import BASELINES, BaselineConfig, wire_bits
from .mechanism import (
    InterpolatedMechanism,
    _clip_rows,
    decode,
    moments,
    mvu_dither_moments,
    privatize_vector,
    scale_input,
)
from .table_io import write_csv

SWEEP_POINTS = 201


@dataclass(frozen=True)
class SweepRow:
    mechanism: str
    b_in: int
    x: float
    mean: float
    bias: float
    variance: float


@dataclass(frozen=True)
class SweepReport:
    """Closed-form moment rows for every (mechanism, table, x) combination."""

    rows: tuple[SweepRow, ...]
    laplace_variance: float

    def max_abs_bias(self, mechanism: str, b_in: int) -> float:
        return max(abs(r.bias) for r in self.rows if r.mechanism == mechanism and r.b_in == b_in)

    def variances(self, mechanism: str, b_in: int) -> np.ndarray:
        return np.array(
            [r.variance for r in self.rows if r.mechanism == mechanism and r.b_in == b_in]
        )

    def to_csv(self, path_or_buffer) -> None:
        """CSV with header mechanism,b_in,x,mean,bias,variance,laplace_ref."""
        write_csv(
            path_or_buffer,
            ["mechanism", "b_in", "x", "mean", "bias", "variance", "laplace_ref"],
            ([r.mechanism, r.b_in, repr(r.x), repr(r.mean), repr(r.bias),
              repr(r.variance), repr(self.laplace_variance)] for r in self.rows),
        )


def sweep_bias_variance(tables, eps: float, x_grid=None) -> SweepReport:
    """Closed-form moment sweep of the dithered and interpolated samplers.

    All tables must share the output width and the design epsilon so the
    comparison across b_in is apples to apples.  The Laplace reference
    variance at equal epsilon is 2/eps^2.  Deterministic: no sampling.
    """
    tables = list(tables)
    if not tables:
        raise ValueError("need at least one table")
    b_out = tables[0].b_out
    for t in tables:
        if t.b_out != b_out or abs(t.design_eps - eps) > 1e-12:
            raise ValueError("tables must share b_out and the design epsilon")
    xs = np.linspace(0.0, 1.0, SWEEP_POINTS) if x_grid is None else np.asarray(x_grid, float)

    rows: list[SweepRow] = []
    for table in tables:
        mean_i, var_i = moments(table, xs)
        mean_m, var_m = mvu_dither_moments(table, xs)
        for k, x in enumerate(xs):
            rows.append(SweepRow("imvu", table.b_in, float(x), float(mean_i[k]),
                                 float(mean_i[k] - x), float(var_i[k])))
        for k, x in enumerate(xs):
            rows.append(SweepRow("mvu", table.b_in, float(x), float(mean_m[k]),
                                 float(mean_m[k] - x), float(var_m[k])))
    return SweepReport(rows=tuple(rows), laplace_variance=2.0 / eps**2)


def gaussian_inputs(scale: float = 0.1):
    """Client vectors with iid N(0, scale^2) coordinates."""

    def draw(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
        return rng.normal(0.0, scale, size=(n, d))

    return draw


def _privatize_clients(mechanism: str, cfg, u: np.ndarray, rng: np.random.Generator):
    """(decoded client messages, bits per coordinate) for one cohort."""
    n, d = u.shape
    if mechanism == "identity":
        if cfg is None:
            return u.copy(), wire_bits(mechanism)
        # plumbing mode: exercise clip -> scale -> decode without sampling
        if isinstance(cfg, InterpolatedMechanism):
            clip_c, beta = cfg.clip.clip_c, cfg.beta
            out = decode(scale_input(_clip_rows(u, cfg.clip), clip_c, beta), clip_c, beta)
        else:
            out = _clip_rows(u, cfg)
    elif mechanism == "imvu":
        if not isinstance(cfg, InterpolatedMechanism):
            raise ValueError("imvu needs an InterpolatedMechanism config")
        seeds = [int(rng.integers(0, 2**63 - 1)) for _ in range(n)]
        _, out = privatize_vector(cfg, u, seeds)
    elif mechanism in BASELINES:
        if not isinstance(cfg, BaselineConfig):
            raise ValueError(f"{mechanism} needs a BaselineConfig")
        out = np.stack([BASELINES[mechanism](u[i], cfg, rng) for i in range(n)])
    else:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    return out, wire_bits(mechanism, cfg)


def dme_mse(
    n_clients: int,
    d: int,
    input_dist,
    mechanism: str,
    cfg,
    rng: np.random.Generator,
    trials: int = 1,
) -> tuple[float, float]:
    """Mean estimation error of a privatized cohort, plus the wire cost.

    Each trial draws ``n_clients`` vectors from ``input_dist(rng, n, d)``,
    privatizes them, and compares the server-side mean of the decoded
    messages against the true mean.  Returns the per-coordinate MSE averaged
    over trials and the exact bits per coordinate on the wire.
    """
    if n_clients < 1 or trials < 1:
        raise ValueError("n_clients and trials must be at least 1")
    errors = np.empty(trials)
    for t in range(trials):
        u = input_dist(rng, n_clients, d)
        decoded, bits = _privatize_clients(mechanism, cfg, u, rng)
        err = decoded.mean(axis=0) - u.mean(axis=0)
        errors[t] = float(np.mean(err**2))
    return float(errors.mean()), bits
