"""The mechanism kinds the harnesses run, and the reference mechanisms.

The one place that knows the kind names.  ``privatizer`` maps a name to the
object a run privatizes with; the baselines' sampler, the wire bits and the
per-round privacy ledger then read that object's type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accounting import PrivacyLedger, imvu_ledger
from .mechanism import ClipConfig, InterpolatedMechanism, _real, clip

# the clip norm each baseline's noise is calibrated to
_BASELINE_NORM = {"laplace": "l1", "gaussian": "l2", "signsgd": "l2"}
KINDS = ("identity", "imvu", *_BASELINE_NORM)


@dataclass(frozen=True)
class BaselineConfig:
    """kind in {laplace, gaussian, signsgd}; ``noise`` is epsilon for laplace
    and the noise multiplier sigma for gaussian/signsgd."""

    kind: str
    clip: ClipConfig
    noise: float

    def __post_init__(self):
        norm = _BASELINE_NORM.get(self.kind)
        if norm is None:
            raise ValueError(f"unknown baseline kind {self.kind!r}")
        if self.clip.norm != norm:
            raise ValueError(f"{self.kind} requires an {norm} clip")
        if self.noise is None:
            raise ValueError(f"{self.kind} needs a positive, finite noise parameter")
        _real(self.noise, "noise")


def privatizer(kind: str, clip: ClipConfig, mech: InterpolatedMechanism | None = None,
               noise: float | None = None):
    """The privatizer of a run of ``kind`` that clips with ``clip``.

    imvu returns ``mech``, whose own clip must be ``clip``; a baseline builds
    its ``BaselineConfig`` from ``noise``; identity returns ``clip``.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown mechanism {kind!r}")
    if kind == "identity":
        return clip
    if kind in _BASELINE_NORM:
        return BaselineConfig(kind, clip, noise)
    if mech is None:
        raise ValueError("imvu needs an InterpolatedMechanism")
    if mech.clip != clip:
        raise ValueError(f"the mechanism clips with {mech.clip}, the run with {clip}")
    return mech


def kind_of(priv) -> str:
    """The kind name of a privatizer."""
    if isinstance(priv, InterpolatedMechanism):
        return "imvu"
    if isinstance(priv, BaselineConfig):
        return priv.kind
    if isinstance(priv, ClipConfig):
        return "identity"
    raise ValueError(f"a {type(priv).__name__} is not a privatizer")


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
    clipped = clip(u, cfg.clip)
    if cfg.kind == "laplace":
        noise = rng.laplace(0.0, cfg.clip.clip_c / cfg.noise, size=u.shape)
    else:
        noise = rng.normal(0.0, cfg.noise * cfg.clip.clip_c, size=u.shape)
    noisy = clipped + noise
    return np.where(noisy >= 0.0, 1.0, -1.0) if cfg.kind == "signsgd" else noisy


def wire_bits(priv) -> float:
    """Bits per coordinate on the wire: the table's index width for imvu, a
    sign for signsgd, and an uncompressed 32-bit float otherwise."""
    if isinstance(priv, InterpolatedMechanism):
        return float(priv.table.bits)
    return 1.0 if kind_of(priv) == "signsgd" else 32.0


def round_ledger(priv, delta: float, alphas: tuple[float, ...]) -> PrivacyLedger | None:
    """Privacy cost of one round; None for identity.

    imvu is charged at sensitivity beta through eps' under an l1 clip and
    the Fisher constant under an l2 clip; ``imvu_ledger`` certifies the one
    a bare mechanism lacks.  A baseline's ``noise`` is the
    laplace epsilon (scale C1/eps at l1 sensitivity C1 costs pure eps) or the
    gaussian/signsgd noise multiplier sigma (std sigma * C2 at l2 sensitivity
    C2 costs eps_alpha = alpha / (2 sigma^2); signsgd is post-processing).
    """
    if isinstance(priv, InterpolatedMechanism):
        mode = "pure" if priv.clip.norm == "l1" else "rdp"
        return imvu_ledger(priv, mode, priv.beta, delta, alphas)
    if not isinstance(priv, BaselineConfig):
        return None
    if priv.kind == "laplace":
        return PrivacyLedger(float(priv.noise), delta)
    return PrivacyLedger(np.asarray(alphas, dtype=float) / (2.0 * priv.noise**2), delta,
                         tuple(alphas))
