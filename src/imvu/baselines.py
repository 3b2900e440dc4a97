"""The mechanism kinds the harnesses run, and the reference mechanisms.

The one place that knows the kinds: their names, the baselines' sampler,
the wire bits per coordinate and the per-round privacy ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accounting import MissingConstantsError, PrivacyLedger, imvu_ledger
from .mechanism import ClipConfig, InterpolatedMechanism, _clip_rows

BASELINE_KINDS = ("laplace", "gaussian", "signsgd")
KINDS = ("identity", "imvu") + BASELINE_KINDS


@dataclass(frozen=True)
class BaselineConfig:
    """kind in {laplace, gaussian, signsgd}; ``noise`` is epsilon for laplace
    and the noise multiplier sigma for gaussian/signsgd."""

    kind: str
    clip: ClipConfig
    noise: float

    def __post_init__(self):
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"unknown baseline kind {self.kind!r}")
        if self.kind == "laplace" and self.clip.norm != "l1":
            raise ValueError("laplace requires an l1 clip")
        if self.kind in ("gaussian", "signsgd") and self.clip.norm != "l2":
            raise ValueError(f"{self.kind} requires an l2 clip")
        if not (np.isfinite(self.noise) and self.noise > 0):
            raise ValueError("noise parameter must be positive and finite")


def privatize_baseline(u: np.ndarray, cfg: BaselineConfig,
                       rng: np.random.Generator) -> np.ndarray:
    """Clip a client vector, or each row of an (n, d) cohort, and add iid noise.

    laplace clips to the L1 ball and adds Laplace(C1/eps) noise per
    coordinate; gaussian clips to the L2 ball and adds N(0, (sigma C2)^2).
    signsgd sends the coordinate-wise sign of the gaussian output, exact
    zeros as +1 to keep runs deterministic; it is post-processing, so its
    privacy cost is exactly the Gaussian one.  The noise is one draw of the
    cohort's shape, which takes the same numbers in the same order as one
    draw per row: row k is bit for bit the vector call on ``u[k]`` after
    the calls on rows 0..k-1, and the generator ends in the same state.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim not in (1, 2):
        raise ValueError("u must be a 1-D vector or (n, d) cohort")
    clipped = _clip_rows(np.atleast_2d(u), cfg.clip).reshape(u.shape)
    if cfg.kind == "laplace":
        noise = rng.laplace(0.0, cfg.clip.clip_c / cfg.noise, size=u.shape)
    else:
        noise = rng.normal(0.0, cfg.noise * cfg.clip.clip_c, size=u.shape)
    noisy = clipped + noise
    return np.where(noisy >= 0.0, 1.0, -1.0) if cfg.kind == "signsgd" else noisy


def wire_bits(kind: str, mech: InterpolatedMechanism | None = None) -> float:
    """Bits per coordinate on the wire: the table's index width for imvu, a
    sign for signsgd, and an uncompressed 32-bit float otherwise."""
    if kind == "imvu":
        return float(mech.table.bits)
    return 1.0 if kind == "signsgd" else 32.0


def round_ledger(kind: str, rounds: int, delta: float, alphas: tuple[float, ...],
                 mech: InterpolatedMechanism | None = None,
                 noise: float | None = None) -> PrivacyLedger | None:
    """Per-round privacy cost over ``rounds`` rounds; None for identity.

    imvu is charged at sensitivity beta through eps' under an l1 clip and
    the Fisher constant under an l2 clip.  ``noise`` is the laplace epsilon
    (scale C1/eps at l1 sensitivity C1 costs pure eps) or the gaussian/signsgd
    noise multiplier sigma (std sigma * C2 at l2 sensitivity C2 costs
    eps_alpha = alpha / (2 sigma^2); signsgd is post-processing).
    """
    if kind == "identity":
        return None
    if kind == "imvu":
        if mech is None:
            raise MissingConstantsError("imvu needs a mechanism with attached constants")
        mode = "pure" if mech.clip.norm == "l1" else "rdp"
        return imvu_ledger(mech, mode, rounds, mech.beta, delta, alphas)
    if noise is None or noise <= 0:
        raise ValueError(f"{kind} needs a positive noise parameter")
    if kind == "laplace":
        return PrivacyLedger("pure", float(noise), rounds, delta=delta)
    per_round = np.asarray(alphas, dtype=float) / (2.0 * noise**2)
    return PrivacyLedger("rdp", per_round, rounds, delta=delta, alphas=tuple(alphas))
