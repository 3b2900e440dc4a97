"""Mechanism file format: a single self-describing JSON document; CSV tables.

Fields: format_version (2), b_in, b_out, metric ("l1"), design_eps, grid,
alphabet, log_probs (row-major, natural log), and an accounting block
{eps_prime, fisher_m, beta, clip_norm, clip_c} with null for constants that
were never attached.  The loader revalidates every invariant and recomputes
any stored constants, rejecting the file on mismatch (version 1 files carry
an older, larger eps').  ``write_csv`` writes the harnesses' result tables.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .accounting import verify_accounting
from .mechanism import ClipConfig, InterpolatedMechanism, MechanismTable

FORMAT_VERSION = 2

_REQUIRED = ("format_version", "b_in", "b_out", "metric", "design_eps",
             "grid", "alphabet", "log_probs", "accounting")
_REQUIRED_ACCOUNTING = ("eps_prime", "fisher_m", "beta", "clip_norm", "clip_c")


def mechanism_to_dict(mech: InterpolatedMechanism) -> dict:
    table = mech.table
    return {
        "format_version": FORMAT_VERSION,
        "b_in": table.b_in,
        "b_out": table.b_out,
        "metric": table.metric,
        "design_eps": table.design_eps,
        "grid": [float(v) for v in table.grid],
        "alphabet": [float(v) for v in table.alphabet],
        "log_probs": [[float(v) for v in row] for row in table.log_probs],
        "accounting": {
            "eps_prime": mech.eps_prime,
            "fisher_m": mech.fisher_m,
            "beta": mech.beta,
            "clip_norm": mech.clip.norm,
            "clip_c": mech.clip.clip_c,
        },
    }


def save_mechanism(path, mech: InterpolatedMechanism) -> None:
    with open(path, "w") as handle:
        json.dump(mechanism_to_dict(mech), handle, indent=2)
        handle.write("\n")


def mechanism_from_dict(doc: dict, verify: bool = True) -> InterpolatedMechanism:
    if not isinstance(doc, dict):
        raise ValueError(f"mechanism document must be a JSON object, got {type(doc).__name__}")
    for key in _REQUIRED:
        if key not in doc:
            raise ValueError(f"mechanism document missing field {key!r}")
    if doc["format_version"] != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format_version {doc['format_version']!r}; expected {FORMAT_VERSION}: "
            "write the table again with `imvu design` and re-run `imvu account --attach`"
        )
    acct = doc["accounting"]
    if not isinstance(acct, dict):
        raise ValueError(f"field 'accounting' must be a JSON object, got {type(acct).__name__}")
    for key in _REQUIRED_ACCOUNTING:
        if key not in acct:
            raise ValueError(f"accounting block missing field {key!r}")

    table = MechanismTable(
        b_in=int(doc["b_in"]),
        b_out=int(doc["b_out"]),
        grid=np.asarray(doc["grid"], dtype=float),
        alphabet=np.asarray(doc["alphabet"], dtype=float),
        log_probs=np.asarray(doc["log_probs"], dtype=float),
        design_eps=float(doc["design_eps"]),
        metric=str(doc["metric"]),
    )
    mech = InterpolatedMechanism(
        table=table,
        beta=float(acct["beta"]),
        clip=ClipConfig(str(acct["clip_norm"]), float(acct["clip_c"])),
        eps_prime=None if acct["eps_prime"] is None else float(acct["eps_prime"]),
        fisher_m=None if acct["fisher_m"] is None else float(acct["fisher_m"]),
    )
    if verify:
        verify_accounting(mech)
    return mech


def load_mechanism(path, verify: bool = True) -> InterpolatedMechanism:
    with open(path) as handle:
        doc = json.load(handle)
    return mechanism_from_dict(doc, verify=verify)


def write_csv(path_or_buffer, header, rows) -> None:
    """Write a header row and ``rows`` as CSV to a path or to an open text buffer."""
    if isinstance(path_or_buffer, (str, bytes)) or hasattr(path_or_buffer, "__fspath__"):
        with open(path_or_buffer, "w", newline="") as handle:
            return write_csv(handle, header, rows)
    writer = csv.writer(path_or_buffer)
    writer.writerow(header)
    writer.writerows(rows)
