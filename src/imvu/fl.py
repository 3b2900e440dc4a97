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
from .mechanism import ClipConfig, InterpolatedMechanism, _as_real, _integer, _real
# attributes here that bench/tracing.py wraps; a round privatizes through
# ``dme.privatize_vector``
from .mechanism import clip, privatize_vector  # noqa: F401
from .rng import COORD_CHUNK, coordinate_states, substream, substream_seeds
from .table_io import write_csv

# The (round, client, chunk) coordinate streams whose states an imvu run
# derives in one batch, 32 B each: blocks of whole rounds, at most 1 MiB of
# states unless one round alone needs more.
_BLOCK_STREAMS = 2**15


@dataclass(frozen=True)
class FlConfig:
    """Training-run parameters; every randomized step derives from ``seed``.
    Counts and seeds are integers and the steps and momentum reals, never bools."""

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
        for name in ("rounds", "cohort", "dims", "client_samples"):
            _integer(getattr(self, name), name, least=1)
        # generate_synthetic draws both classes, and every client holds a sample
        _integer(self.n_train, "n_train", least=2)
        if self.client_samples > self.n_train:
            raise ValueError("client_samples must be at most n_train")
        for name in ("lr", "server_lr_scale"):
            _real(getattr(self, name), name)
        if not _real(self.momentum, "momentum", nonnegative=True) < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        # any finite real: 0 and negative separations are accepted
        if not np.isfinite(_as_real(self.separation)):
            raise ValueError(f"separation must be a finite real, got {self.separation!r}")
        if not 0.0 < _as_real(self.delta) < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        # a float or bool seed would be truncated or read as 0 or 1 into another's streams
        _integer(self.seed, "seed")
        if self.data_seed is not None:
            _integer(self.data_seed, "data_seed")
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


def _cohorts(cfg: FlConfig, n_clients: int, imvu: bool):
    """Each round's chosen clients and, for imvu, their coordinate states.

    Nothing here depends on the model: the cohorts come from a substream of
    their own, and client c's seed in round t is
    ``substream(seed, "privatize", t, c).integers(2**62)``.  So a block of
    rounds is drawn ahead, and its seeds and states are derived in one
    ``substream_seeds`` and one ``coordinate_states`` call.
    """
    cohort_rng = substream(cfg.seed, "cohort")
    m = min(cfg.cohort, n_clients)
    block = max(1, _BLOCK_STREAMS // (m * len(range(0, cfg.dims, COORD_CHUNK))))
    for t0 in range(0, cfg.rounds, block):
        rounds = np.arange(t0, min(t0 + block, cfg.rounds))
        chosen = np.stack([cohort_rng.choice(n_clients, size=m, replace=False) for _ in rounds])
        if imvu:
            seeds = substream_seeds(cfg.seed, "privatize", np.repeat(rounds, m), chosen.ravel())
            states = coordinate_states(seeds, 0, cfg.dims)
        for r in range(rounds.size):
            yield chosen[r], states[:, r * m:(r + 1) * m] if imvu else None


def train_fl(cfg: FlConfig) -> TrainResult:
    """Run the training loop; deterministic under cfg.seed.

    Per round: sample a cohort, compute one local gradient per client,
    privatize, average the decoded messages on the server, and apply a
    momentum SGD step.  The server update is exactly the mean message times
    the learning rate (times the SignSGD scale) plus the momentum term.
    """
    try:
        accuracy, spent = np.empty(cfg.rounds), np.empty(cfg.rounds)
    except (ValueError, MemoryError) as exc:  # numpy's size limit, or memory
        raise ValueError(f"rounds={cfg.rounds} is too many to record: {exc}") from exc
    priv = privatizer(cfg.mechanism, cfg.clip, cfg.mech, cfg.noise)
    ledger = round_ledger(priv, cfg.delta, cfg.alphas)

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
    cohorts = _cohorts(cfg, n_clients, isinstance(priv, InterpolatedMechanism))
    noise_rng = substream(cfg.seed, "baseline-noise")

    for t, (chosen, states) in enumerate(cohorts):
        # one stacked gradient call per client size, at most two
        chosen_sizes = sizes[chosen]
        grads = np.empty((chosen.size, cfg.dims))
        for size in np.unique(chosen_sizes):
            group = chosen_sizes == size
            rows = starts[chosen[group], None] + np.arange(size)
            grads[group] = client_update(weights, x[rows], y_signed[rows])
        messages = privatize_clients(priv, grads, noise_rng, states)
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
