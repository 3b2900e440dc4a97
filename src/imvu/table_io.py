"""Mechanism file format: a single self-describing JSON document; CSV tables.

Fields: format_version (2), b_in, b_out, metric ("l1"), design_eps, grid,
alphabet, log_probs (row-major, natural log), and an accounting block
{eps_prime, fisher_m, beta, clip_norm, clip_c} with null for constants that
were never attached.  A table is its alphabet, log_probs and design_eps; the
file repeats b_in, b_out, metric and grid for readers, and the loader checks
those copies: b_in and b_out must be the shape of log_probs, metric must be
"l1", and the grid must be uniform on [0, 1] within ``GRID_TOL``.  It then
revalidates every table invariant and recomputes any stored constants,
rejecting the file on mismatch (version 1 files carry an older, larger
eps').  ``load_table`` reads the table alone, from either version, for
commands that certify their own constants.  ``write_csv`` writes the
harnesses' result tables.
"""

from __future__ import annotations

import csv
import json
import sys

import numpy as np

from .accounting import verify_accounting
from .mechanism import ClipConfig, InterpolatedMechanism, MechanismTable, TableInvariantError

FORMAT_VERSION = 2
# largest error a file's grid may carry at an endpoint or in a spacing
GRID_TOL = 1e-9

_TABLE_FIELDS = ("b_in", "b_out", "metric", "design_eps", "grid", "alphabet", "log_probs")
_REQUIRED = ("format_version",) + _TABLE_FIELDS + ("accounting",)
# versions whose table fields read as this one's; they differ in stored constants only
_TABLE_VERSIONS = (1, FORMAT_VERSION)
_REQUIRED_ACCOUNTING = ("eps_prime", "fisher_m", "beta", "clip_norm", "clip_c")


def mechanism_to_dict(mech: InterpolatedMechanism) -> dict:
    """The mechanism as a plain document, every number a Python float (the
    sizes ints), so that any numpy scalar serializes as it would load."""
    table, ep, fm = mech.table, mech.eps_prime, mech.fisher_m
    return {
        "format_version": FORMAT_VERSION,
        "b_in": table.b_in,
        "b_out": table.b_out,
        "metric": "l1",
        "design_eps": float(table.design_eps),
        "grid": [float(v) for v in table.grid],
        "alphabet": [float(v) for v in table.alphabet],
        "log_probs": [[float(v) for v in row] for row in table.log_probs],
        "accounting": {
            "eps_prime": None if ep is None else float(ep),
            "fisher_m": None if fm is None else float(fm),
            "beta": float(mech.beta),
            "clip_norm": mech.clip.norm,
            "clip_c": float(mech.clip.clip_c),
        },
    }


def save_mechanism(path, mech: InterpolatedMechanism) -> None:
    """Write ``mech`` to ``path``, serialized before the file is opened, so
    a failure leaves no partial file."""
    text = json.dumps(mechanism_to_dict(mech), indent=2) + "\n"
    with open(path, "w") as handle:
        handle.write(text)


def _require(doc, fields, what: str = "mechanism document") -> None:
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    for key in fields:
        if key not in doc:
            raise ValueError(f"{what} missing field {key!r}")


def _number(doc: dict, key: str, integer: bool = False):
    """Numeric field ``key``: a finite JSON number (not a bool), integral if ``integer``."""
    value, kind = doc[key], "an integer" if integer else "a finite number"
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max or integer and value % 1:
        raise ValueError(f"field {key!r} must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


def _numbers(doc: dict, key: str) -> np.ndarray:
    """Array field ``key`` as floats: each element a JSON number that fits a
    float, not a bool or a string (null reads as NaN, which the table checks
    reject)."""
    values = np.asarray(doc[key], dtype=object)
    if not all(v is None or type(v) is float or type(v) is int and abs(v) <= sys.float_info.max
               for v in values.flat):
        raise ValueError(f"field {key!r} must hold numbers only")
    return values.astype(float)


def _table(doc: dict) -> MechanismTable:
    """The document's table, after checking the fields that repeat what
    log_probs implies."""
    b_in, b_out = _number(doc, "b_in", integer=True), _number(doc, "b_out", integer=True)
    log_probs = _numbers(doc, "log_probs")
    if log_probs.shape != (b_in, b_out):
        raise ValueError(f"log_probs must have shape ({b_in}, {b_out})")
    if str(doc["metric"]) != "l1":
        raise ValueError(f"unsupported metric {doc['metric']!r}")
    grid = _numbers(doc, "grid")
    if grid.shape != (b_in,):
        raise ValueError(f"grid must have shape ({b_in},)")
    if b_in > 1:  # smaller tables are rejected when built
        # endpoints and spacing; a NaN anywhere makes the maximum NaN
        errors = np.concatenate([[grid[0], grid[-1] - 1.0], np.diff(grid) - 1.0 / (b_in - 1)])
        g_viol = float(np.max(np.abs(errors)))
        if not g_viol <= GRID_TOL:
            raise TableInvariantError("grid_uniformity", g_viol, GRID_TOL,
                                      "grid endpoints / spacing")
    return MechanismTable(_numbers(doc, "alphabet"), log_probs,
                          _number(doc, "design_eps"))


def mechanism_from_dict(doc: dict) -> InterpolatedMechanism:
    _require(doc, _REQUIRED)
    if _number(doc, "format_version", integer=True) != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format_version {doc['format_version']!r}; expected {FORMAT_VERSION}: "
            "re-run `imvu account --attach`, which rewrites the file as version 2"
        )
    acct = doc["accounting"]
    _require(acct, _REQUIRED_ACCOUNTING, "the 'accounting' block")

    mech = InterpolatedMechanism(
        table=_table(doc),
        beta=_number(acct, "beta"),
        clip=ClipConfig(str(acct["clip_norm"]), _number(acct, "clip_c")),
        eps_prime=None if acct["eps_prime"] is None else _number(acct, "eps_prime"),
        fisher_m=None if acct["fisher_m"] is None else _number(acct, "fisher_m"),
    )
    verify_accounting(mech)
    return mech


def load_mechanism(path) -> InterpolatedMechanism:
    with open(path) as handle:
        doc = json.load(handle)
    return mechanism_from_dict(doc)


def load_table(path) -> MechanismTable:
    """The table of a mechanism file of any version in ``_TABLE_VERSIONS``,
    validated; the stored accounting block is neither read nor verified."""
    with open(path) as handle:
        doc = json.load(handle)
    _require(doc, ("format_version",) + _TABLE_FIELDS)
    if _number(doc, "format_version", integer=True) not in _TABLE_VERSIONS:
        raise ValueError(f"unsupported format_version {doc['format_version']!r}; "
                         f"expected one of {_TABLE_VERSIONS}")
    return _table(doc)


def write_csv(path_or_buffer, header, rows) -> None:
    """Write a header row and ``rows`` as CSV to a path or to an open text buffer."""
    if isinstance(path_or_buffer, (str, bytes)) or hasattr(path_or_buffer, "__fspath__"):
        with open(path_or_buffer, "w", newline="") as handle:
            return write_csv(handle, header, rows)
    writer = csv.writer(path_or_buffer)
    writer.writerow(header)
    writer.writerows(rows)
