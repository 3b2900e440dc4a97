"""The mechanism kinds the harnesses run, and the reference mechanisms.

The one place that knows the kinds: their names, each baseline's sampling
function, the wire bits per coordinate and the per-round privacy ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accounting import MissingConstantsError, PrivacyLedger, baseline_budgets, imvu_ledger
from .mechanism import ClipConfig, InterpolatedMechanism, clip

KINDS = ("identity", "imvu", "laplace", "gaussian", "signsgd")


@dataclass(frozen=True)
class BaselineConfig:
    """kind in {laplace, gaussian, signsgd}; ``noise`` is epsilon for laplace
    and the noise multiplier sigma for gaussian/signsgd."""

    kind: str
    clip: ClipConfig
    noise: float

    def __post_init__(self):
        if self.kind not in BASELINES:
            raise ValueError(f"unknown baseline kind {self.kind!r}")
        if self.kind == "laplace" and self.clip.norm != "l1":
            raise ValueError("laplace requires an l1 clip")
        if self.kind in ("gaussian", "signsgd") and self.clip.norm != "l2":
            raise ValueError(f"{self.kind} requires an l2 clip")
        if not (np.isfinite(self.noise) and self.noise > 0):
            raise ValueError("noise parameter must be positive and finite")


def laplace_mech(u: np.ndarray, cfg: BaselineConfig, rng: np.random.Generator) -> np.ndarray:
    """Clip to the L1 ball and add iid Laplace(C1/eps) noise per coordinate."""
    if cfg.kind != "laplace":
        raise ValueError("config is not a laplace config")
    clipped = clip(u, cfg.clip)
    scale = cfg.clip.clip_c / cfg.noise
    return clipped + rng.laplace(0.0, scale, size=clipped.shape)


def gaussian_mech(u: np.ndarray, cfg: BaselineConfig, rng: np.random.Generator) -> np.ndarray:
    """Clip to the L2 ball and add iid N(0, (sigma C2)^2) noise per coordinate."""
    if cfg.kind not in ("gaussian", "signsgd"):
        raise ValueError("config is not a gaussian-family config")
    clipped = clip(u, cfg.clip)
    std = cfg.noise * cfg.clip.clip_c
    return clipped + rng.normal(0.0, std, size=clipped.shape)


def signsgd(u: np.ndarray, cfg: BaselineConfig, rng: np.random.Generator) -> np.ndarray:
    """Coordinate-wise sign of the Gaussian mechanism's output.

    Post-processing, so the privacy cost is exactly the Gaussian one.  Exact
    zeros map to +1 to keep runs deterministic.
    """
    if cfg.kind != "signsgd":
        raise ValueError("config is not a signsgd config")
    noisy = gaussian_mech(u, cfg, rng)
    return np.where(noisy >= 0.0, 1.0, -1.0)


BASELINES = {"laplace": laplace_mech, "gaussian": gaussian_mech, "signsgd": signsgd}


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
    or the gaussian/signsgd noise multiplier (signsgd is post-processing).
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
        return PrivacyLedger("pure", baseline_budgets("laplace_pure", eps=noise), rounds,
                             delta=delta)
    per_round = baseline_budgets("gaussian_rdp", sigma=noise, alphas=alphas)
    return PrivacyLedger("rdp", per_round, rounds, delta=delta, alphas=tuple(alphas))
