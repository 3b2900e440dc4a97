"""Bias/variance sweeps and distributed mean estimation comparisons."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import BaselineConfig, kind_of, privatize_baseline, wire_bits
from .mechanism import (InterpolatedMechanism, _integer, clip, moments, mvu_dither_moments,
                        privatize_vector)
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


def sweep_bias_variance(tables, eps: float) -> SweepReport:
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
    xs = np.linspace(0.0, 1.0, SWEEP_POINTS)

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


def privatize_clients(priv, u: np.ndarray, rng: np.random.Generator, states=None) -> np.ndarray:
    """The decoded (n, d) messages of the cohort ``u`` under the privatizer ``priv``.

    A baseline draws its noise from ``rng``; imvu samples with the
    coordinate ``states`` when given (see ``privatize_vector``), and
    otherwise with n row seeds it draws from ``rng``; identity only clips.
    An FL round's server step is one such call on the client gradients,
    with states that ``train_fl`` derived ahead; a ``dme_mse`` trial passes
    none, so its seeds are drawn after its inputs.
    """
    if isinstance(priv, InterpolatedMechanism):
        if states is None:
            states = rng.integers(0, 2**63 - 1, size=len(u))
        return privatize_vector(priv, u, states)[1]
    if isinstance(priv, BaselineConfig):
        return privatize_baseline(u, priv, rng)
    return clip(u, priv)


def dme_mse(n_clients: int, d: int, input_dist, mechanism: str, cfg,
            rng: np.random.Generator, trials: int = 1) -> tuple[float, float]:
    """Mean estimation error of a privatized cohort, plus the wire cost.

    ``cfg`` is the privatizer and ``mechanism`` must name its kind.  Each
    trial draws ``n_clients`` vectors from ``input_dist(rng, n, d)``,
    privatizes them in one ``privatize_clients`` call, and compares the
    server-side mean of the decoded messages against the true mean.  Returns
    the per-coordinate MSE averaged over trials and the exact bits per
    coordinate on the wire.
    """
    for name, count in (("n_clients", n_clients), ("d", d), ("trials", trials)):
        _integer(count, name, least=1)
    if kind_of(cfg) != mechanism:
        raise ValueError(f"kind {mechanism!r} does not match the privatizer's {kind_of(cfg)!r}")
    errors = np.empty(trials)
    for t in range(trials):
        u = input_dist(rng, n_clients, d)
        decoded = privatize_clients(cfg, u, rng)
        err = decoded.mean(axis=0) - u.mean(axis=0)
        errors[t] = float(np.mean(err**2))
    return float(errors.mean()), wire_bits(cfg)
