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
from .mechanism import ClipConfig, InterpolatedMechanism, _as_real, _finite, _integer, _real
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
    n_train: int = 600                   # one client per training sample
    separation: float = 4.0
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    data_seed: int | None = None          # defaults to seed; fix it to compare
                                          # budgets on one dataset

    def __post_init__(self):
        for name in ("rounds", "cohort", "dims"):
            _integer(getattr(self, name), name, least=1)
        # generate_synthetic draws both classes
        _integer(self.n_train, "n_train", least=2)
        _real(self.lr, "lr")
        if not _real(self.momentum, "momentum", nonnegative=True) < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        # any finite real: 0 and negative separations are accepted
        _finite(self.separation, "separation")
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


def generate_synthetic(n: int, d: int, separation: float, seed: int):
    """Two balanced Gaussian classes, labelled -1.0 and +1.0, with controlled
    separation.

    The class centers sit ``separation`` apart on top of unit isotropic noise;
    separation 0 makes the classes indistinguishable.  Class -1 holds
    ``n - n // 2`` samples and class +1 ``n // 2``.  Deterministic under the
    seed.
    """
    _integer(n, "n", least=2)
    _integer(d, "d", least=1)
    separation = _finite(separation, "separation")
    rng = substream(seed, "synthetic-data")
    centers = rng.normal(size=(2, d))
    centers -= centers.mean(axis=0)
    norms = np.linalg.norm(centers, axis=1, keepdims=True)
    centers = np.where(norms > 0, centers / norms, centers) * (separation / 2.0)
    x = np.concatenate([rng.normal(size=(n - n // 2, d)) + centers[0],
                        rng.normal(size=(n // 2, d)) + centers[1]])
    y = np.repeat([-1.0, 1.0], [n - n // 2, n // 2])
    order = rng.permutation(n)
    return x[order], y[order]


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


def _cohorts(cfg: FlConfig, imvu: bool):
    """Each round's chosen clients and, for imvu, their coordinate states.

    Nothing here depends on the model: the cohorts come from a substream of
    their own, and client c's seed in round t is
    ``substream(seed, "privatize", t, c).integers(2**62)``.  So a block of
    rounds is drawn ahead, and its seeds and states are derived in one
    ``substream_seeds`` and one ``coordinate_states`` call.
    """
    cohort_rng = substream(cfg.seed, "cohort")
    m = min(cfg.cohort, cfg.n_train)
    block = max(1, _BLOCK_STREAMS // (m * len(range(0, cfg.dims, COORD_CHUNK))))
    for t0 in range(0, cfg.rounds, block):
        rounds = np.arange(t0, min(t0 + block, cfg.rounds))
        chosen = np.stack([cohort_rng.choice(cfg.n_train, size=m, replace=False) for _ in rounds])
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
    the learning rate plus the momentum term.
    """
    try:
        accuracy, spent = np.empty(cfg.rounds), np.empty(cfg.rounds)
    except (ValueError, MemoryError) as exc:  # numpy's size limit, or memory
        raise ValueError(f"rounds={cfg.rounds} is too many to record: {exc}") from exc
    priv = privatizer(cfg.mechanism, cfg.clip, cfg.mech, cfg.noise)
    ledger = round_ledger(priv, cfg.delta, cfg.alphas)

    data_seed = cfg.seed if cfg.data_seed is None else cfg.data_seed
    x, y = generate_synthetic(cfg.n_train, cfg.dims, cfg.separation, data_seed)

    weights = np.zeros(cfg.dims)
    velocity = np.zeros(cfg.dims)
    cohorts = _cohorts(cfg, isinstance(priv, InterpolatedMechanism))
    noise_rng = substream(cfg.seed, "baseline-noise")

    for t, (chosen, states) in enumerate(cohorts):
        # client c holds training sample c: one stack of one-sample clients
        grads = client_update(weights, x[chosen, None], y[chosen, None])
        messages = privatize_clients(priv, grads, noise_rng, states)
        mean_message = messages.mean(axis=0)
        velocity = cfg.momentum * velocity + mean_message
        weights = weights - cfg.lr * velocity

        accuracy[t] = float(np.mean((x @ weights) * y > 0))
        spent[t] = spent_epsilon(ledger, t + 1) if ledger is not None else np.inf

    return TrainResult(
        accuracy=accuracy,
        spent_eps=spent,
        final_accuracy=float(accuracy[-1]),
        ledger=ledger,
    )
