"""Property tests: the shared interpolation kernel and sampler against their formulas.

Each reference is the formula written out inline, so the comparisons are
exact (``np.array_equal``), not within a tolerance.  Tables come from the
session cache; no LP is solved inside a hypothesis loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imvu import fisher_info, pmf
from imvu.mechanism import _inverse_cdf

from conftest import LN3, get_table

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@pytest.fixture(scope="session")
def prop_tables():
    return [
        get_table(2, 2, LN3),
        get_table(2, 4, 1.0, symmetrize=True),
        get_table(2, 8, 5.0),
        get_table(4, 4, 1.0),
    ]


def _inputs(data, table):
    """Inputs mixing exact grid points with reals up to |x| = 50."""
    grid_points = st.sampled_from([k / (table.b_in - 1) for k in range(table.b_in)])
    reals = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
    return np.array(data.draw(st.lists(st.one_of(grid_points, reals), min_size=1, max_size=40)))


def _pmf_formula(table, xs):
    nseg = table.b_in - 1
    t = xs * nseg
    i = np.clip(np.floor(t).astype(int), 0, nseg - 1)
    frac = t - i
    eta = (1.0 - frac)[:, None] * table.log_probs[i] + frac[:, None] * table.log_probs[i + 1]
    z = np.exp(eta - eta.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def _fisher_formula(eta1, eta2, xs):
    theta = eta2 - eta1
    eta = np.outer(1.0 - xs, eta1) + np.outer(xs, eta2)
    eta -= eta.max(axis=1, keepdims=True)
    z = np.exp(eta)
    sm = z / z.sum(axis=1, keepdims=True)
    return np.maximum(sm @ theta**2 - (sm @ theta) ** 2, 0.0)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_pmf_matches_formula(prop_tables, data):
    table = data.draw(st.sampled_from(prop_tables))
    xs = _inputs(data, table)
    assert np.array_equal(pmf(table, xs), _pmf_formula(table, xs))
    assert np.array_equal(pmf(table, float(xs[0])), _pmf_formula(table, xs[:1])[0])


@PROPERTY_SETTINGS
@given(data=st.data())
def test_fisher_info_matches_formula(prop_tables, data):
    table = data.draw(st.sampled_from([t for t in prop_tables if t.b_in == 2]))
    eta1, eta2 = table.log_probs
    xs = _inputs(data, table)
    assert np.array_equal(fisher_info(eta1, eta2, xs), _fisher_formula(eta1, eta2, xs))
    assert fisher_info(eta1, eta2, float(xs[0])) == _fisher_formula(eta1, eta2, xs[:1])[0]


def _searchsorted_formula(row, u):
    return min(int(np.searchsorted(np.cumsum(row), u, side="right")), row.size - 1)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_inverse_cdf_matches_searchsorted(data):
    b_out = data.draw(st.integers(2, 16))
    n = data.draw(st.integers(1, 12))
    weights = st.floats(1e-12, 1.0, allow_nan=False, allow_infinity=False)
    w = np.array(data.draw(st.lists(st.lists(weights, min_size=b_out, max_size=b_out),
                                    min_size=n, max_size=n)))
    probs = w / w.sum(axis=1, keepdims=True)
    cdf = np.cumsum(probs, axis=1)

    def uniform(cdf_row):
        # a fresh draw, or a value placed exactly on one of the row's cdf values
        on_cdf = [float(c) for c in cdf_row if c < 1.0] or [0.0]
        return data.draw(st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                                   st.sampled_from(on_cdf)))

    us = np.array([uniform(cdf[k]) for k in range(n)])
    rows = _inverse_cdf(probs, us)
    assert np.array_equal(rows, [_searchsorted_formula(probs[k], us[k]) for k in range(n)])
    # one row shared by every uniform broadcasts
    us = np.array([uniform(cdf[0]) for _ in range(n)])
    shared = _inverse_cdf(probs[0], us)
    assert np.array_equal(shared, [_searchsorted_formula(probs[0], u) for u in us])
