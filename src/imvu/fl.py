"""Desk-scale federated training with client-level privacy accounting.

One synthetic-data logistic model, one local gradient step per client per
round, and the full pipeline clip -> scale -> privatize -> decode ->
aggregate -> account.  The harness validates plumbing and qualitative
trends, not paper-scale accuracies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accounting import DEFAULT_ALPHAS, DEFAULT_DELTA, PrivacyLedger, spent_epsilon
from .baselines import privatizer, round_ledger
from .dme import privatize_clients
from .mechanism import ClipConfig, InterpolatedMechanism
# attributes here that bench/tracing.py wraps; a round privatizes through
# ``dme.privatize_vector``
from .mechanism import clip, privatize_vector  # noqa: F401
from .rng import substream, substream_seeds
from .table_io import write_csv


@dataclass(frozen=True)
class FlConfig:
    """Training-run parameters; every randomized step derives from ``seed``."""

    rounds: int
    cohort: int
    dims: int
    lr: float
    clip: ClipConfig
    mechanism: str                       # one of baselines.KINDS
    mech: InterpolatedMechanism | None = None
    noise: float | None = None           # sigma / laplace eps for baselines
    momentum: float = 0.5
    seed: int = 0
    delta: float = DEFAULT_DELTA
    client_samples: int = 1
    n_train: int = 600
    separation: float = 4.0
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    server_lr_scale: float = 1.0          # signsgd runs with a reduced scale
    data_seed: int | None = None          # defaults to seed; fix it to compare
                                          # budgets on one dataset

    def __post_init__(self):
        if min(self.rounds, self.cohort, self.dims, self.client_samples, self.n_train) < 1:
            raise ValueError("counts must be positive")
        for name in ("lr", "server_lr_scale"):
            if not (np.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise ValueError(f"{name} must be positive and finite")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        if not np.isfinite(self.separation):
            raise ValueError("separation must be finite")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        privatizer(self.mechanism, self.clip, self.mech, self.noise)


@dataclass(frozen=True, eq=False)
class TrainResult:
    accuracy: np.ndarray       # one entry per round
    spent_eps: np.ndarray      # non-decreasing
    final_accuracy: float
    ledger: PrivacyLedger | None

    def to_csv(self, path_or_buffer) -> None:
        write_csv(
            path_or_buffer,
            ["round", "accuracy", "eps"],
            ([t, repr(float(acc)), repr(float(eps))]
             for t, (acc, eps) in enumerate(zip(self.accuracy, self.spent_eps), start=1)),
        )

    def summary(self) -> dict:
        return {
            "rounds": int(self.accuracy.size),
            "final_accuracy": self.final_accuracy,
            "final_eps": float(self.spent_eps[-1]) if self.spent_eps.size else 0.0,
        }


def generate_synthetic(n: int, d: int, n_classes: int, separation: float, seed: int):
    """Balanced Gaussian class clusters with controlled separation.

    Cluster centers sit ``separation`` apart (pairwise, in expectation for
    k > 2) on top of unit isotropic noise; separation 0 makes the classes
    indistinguishable.  Deterministic under the seed.
    """
    if n_classes < 2 or n < n_classes:
        raise ValueError("need n >= n_classes >= 2")
    rng = substream(seed, "synthetic-data")
    centers = rng.normal(size=(n_classes, d))
    centers -= centers.mean(axis=0)
    norms = np.linalg.norm(centers, axis=1, keepdims=True)
    centers = np.where(norms > 0, centers / norms, centers) * (separation / 2.0)
    per_class = n // n_classes
    counts = [per_class + (1 if c < n % n_classes else 0) for c in range(n_classes)]
    xs, ys = [], []
    for c, cnt in enumerate(counts):
        xs.append(rng.normal(size=(cnt, d)) + centers[c])
        ys.append(np.full(cnt, c))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    order = rng.permutation(n)
    return x[order], y[order]


def _signed_labels(y: np.ndarray) -> np.ndarray:
    return np.where(y == 0, -1.0, 1.0)


def client_update(weights: np.ndarray, x: np.ndarray, y) -> np.ndarray:
    """Logistic-loss gradient for one client's sample(s), or for a stack of clients.

    ``x`` is one sample (d,), one client's samples (k, d), or m clients of k
    samples each (m, k, d), with ``y`` shaped like ``x`` without its last
    axis; a stack returns one (m, d) row per client.  Row i of a stack is
    bit for bit the call on ``x[i], y[i]``: the stacked matmul runs one
    matrix-vector product per client (one product over all m·k rows, or
    ``einsum``, would differ in the last bit).  With a single local step the
    transmitted pseudo-gradient equals the raw gradient, so this is what the
    client sends before privatization.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y_signed = np.atleast_1d(np.asarray(y, dtype=float))
    margins = y_signed * (x @ weights)
    # d/dw log(1 + exp(-y w.x)) averaged over each client's samples
    coeff = -y_signed / (1.0 + np.exp(margins))
    return (coeff[..., None] * x).mean(axis=-2)


def train_fl(cfg: FlConfig) -> TrainResult:
    """Run the training loop; deterministic under cfg.seed.

    Per round: sample a cohort, compute one local gradient per client,
    privatize, average the decoded messages on the server, and apply a
    momentum SGD step.  The server update is exactly the mean message times
    the learning rate (times the SignSGD scale) plus the momentum term.
    """
    priv = privatizer(cfg.mechanism, cfg.clip, cfg.mech, cfg.noise)
    ledger = round_ledger(priv, cfg.rounds, cfg.delta, cfg.alphas)

    data_seed = cfg.seed if cfg.data_seed is None else cfg.data_seed
    # the linear training head is binary
    x, y = generate_synthetic(cfg.n_train, cfg.dims, 2, cfg.separation, data_seed)
    y_signed = _signed_labels(y)
    # np.array_split's clients: the first n_train % n_clients hold one sample more
    n_clients = cfg.n_train // cfg.client_samples
    sizes = np.full(n_clients, cfg.n_train // n_clients)
    sizes[:cfg.n_train % n_clients] += 1
    starts = np.cumsum(sizes) - sizes

    weights = np.zeros(cfg.dims)
    velocity = np.zeros(cfg.dims)
    cohort_rng = substream(cfg.seed, "cohort")
    noise_rng = substream(cfg.seed, "baseline-noise")

    accuracy = np.empty(cfg.rounds)
    spent = np.empty(cfg.rounds)
    for t in range(cfg.rounds):
        chosen = cohort_rng.choice(n_clients, size=min(cfg.cohort, n_clients), replace=False)
        # one stacked gradient call per client size, at most two
        chosen_sizes = sizes[chosen]
        grads = np.empty((chosen.size, cfg.dims))
        for size in np.unique(chosen_sizes):
            group = chosen_sizes == size
            rows = starts[chosen[group], None] + np.arange(size)
            grads[group] = client_update(weights, x[rows], y_signed[rows])
        messages = privatize_clients(priv, grads, noise_rng,
                                     lambda: substream_seeds(cfg.seed, "privatize", t, chosen))
        mean_message = messages.mean(axis=0)
        velocity = cfg.momentum * velocity + mean_message
        weights = weights - cfg.lr * cfg.server_lr_scale * velocity

        accuracy[t] = float(np.mean((x @ weights) * y_signed > 0))
        spent[t] = spent_epsilon(ledger, t + 1) if ledger is not None else np.inf

    return TrainResult(
        accuracy=accuracy,
        spent_eps=spent,
        final_accuracy=float(accuracy[-1]),
        ledger=ledger,
    )
