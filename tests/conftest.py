"""Shared fixtures: designed tables are expensive, so cache them per session."""

from __future__ import annotations

import numpy as np
import pytest

from imvu import DesignSpec, MechanismTable, design_mvu, enforce_anadromic

LN3 = float(np.log(3.0))

_CACHE: dict[tuple, object] = {}


def get_table(b_in: int, b_out: int, eps: float, symmetrize: bool = False):
    key = (b_in, b_out, round(eps, 12), symmetrize)
    if key not in _CACHE:
        table = design_mvu(DesignSpec(b_in=b_in, b_out=b_out, eps=eps))
        if symmetrize:
            table = enforce_anadromic(table)
        _CACHE[key] = table
    return _CACHE[key]


def non_anadromic_table() -> MechanismTable:
    """A valid two-row table whose rows do not mirror each other (every
    designed table does): row 1 is row 0 reversed, its middle letter's mass
    lowered from 0.4 to 0.39 and the end letters moved to keep it unbiased."""
    return MechanismTable([-1.0, 0.5, 2.0],
                          np.log([[7 / 15, 0.4, 2 / 15], [0.415 / 3, 0.39, 1.415 / 3]]), 2.0)


def resized_document(doc: dict, b_in: int, b_out: int) -> dict:
    """A mechanism document with its table replaced by ``b_in`` uniform rows
    over ``b_out`` evenly spaced letters, every copied size field to match."""
    doc.update(b_in=b_in, b_out=b_out, grid=(np.arange(b_in) / (b_in - 1)).tolist(),
               alphabet=np.linspace(-1.0, 2.0, b_out).tolist(),
               log_probs=np.full((b_in, b_out), -np.log(b_out)).tolist())
    return doc


@pytest.fixture(scope="session")
def rr_table():
    """The one-bit randomized-response table at eps = ln 3."""
    return get_table(2, 2, LN3)


@pytest.fixture(scope="session")
def table_2x4():
    return get_table(2, 4, 1.0, symmetrize=True)


@pytest.fixture(scope="session")
def table_factory():
    return get_table
