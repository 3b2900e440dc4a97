"""Oracle self-tests: the exact computations the certified bounds rest on."""

import numpy as np
import pytest

from imvu import (
    exact_max_divergence,
    exact_renyi,
    fisher_grid_max,
    fisher_sup,
    joint_divergence_bruteforce,
)

from conftest import LN3, get_table


def _dirichlet_pair(rng, k=4):
    return rng.dirichlet(np.ones(k)) , rng.dirichlet(np.ones(k))


# ---------------------------------------------------------------------------
# max divergence
# ---------------------------------------------------------------------------


def test_max_divergence_identical():
    p = np.array([0.2, 0.3, 0.5])
    assert exact_max_divergence(p, p) == 0.0


def test_max_divergence_rr_spot():
    value = exact_max_divergence([0.75, 0.25], [0.25, 0.75])
    assert value == pytest.approx(LN3, abs=1e-12)


def test_max_divergence_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p, q = _dirichlet_pair(rng)
        assert exact_max_divergence(p, q) == pytest.approx(
            exact_max_divergence(q, p), abs=1e-14
        )


def test_max_divergence_rejects_zero_entry():
    with pytest.raises(ValueError):
        exact_max_divergence([1.0, 0.0], [0.5, 0.5])


# ---------------------------------------------------------------------------
# Renyi divergence
# ---------------------------------------------------------------------------


def test_renyi_identical_is_zero():
    p = np.array([0.1, 0.2, 0.7])
    for alpha in (1.5, 2.0, 8.0):
        assert exact_renyi(p, p, alpha) == pytest.approx(0.0, abs=1e-14)


def test_renyi_rr_spot():
    value = exact_renyi([0.75, 0.25], [0.25, 0.75], 2.0)
    assert value == pytest.approx(np.log(0.5625 / 0.25 + 0.0625 / 0.75), abs=1e-12)
    assert value == pytest.approx(0.84730, abs=1e-5)


def test_renyi_monotone_in_alpha():
    rng = np.random.default_rng(1)
    alphas = (1.1, 1.5, 2.0, 4.0, 16.0, 64.0)
    for _ in range(25):
        p, q = _dirichlet_pair(rng)
        values = [exact_renyi(p, q, a) for a in alphas]
        assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))


def test_renyi_bounded_by_max_divergence():
    rng = np.random.default_rng(2)
    for _ in range(25):
        p, q = _dirichlet_pair(rng)
        d_inf = exact_max_divergence(p, q)
        for alpha in (1.5, 2.0, 8.0, 64.0):
            assert exact_renyi(p, q, alpha) <= d_inf + 1e-12


def test_renyi_limit_is_max_divergence():
    # one-sided Renyi tends to the directed max log ratio; the privacy
    # convention takes the worse direction, which recovers the max divergence
    rng = np.random.default_rng(3)
    p, q = _dirichlet_pair(rng)
    both = max(exact_renyi(p, q, 1e6), exact_renyi(q, p, 1e6))
    assert both == pytest.approx(exact_max_divergence(p, q), abs=1e-3)


def test_renyi_input_errors():
    with pytest.raises(ValueError):
        exact_renyi([0.5, 0.5], [0.5, 0.5], 1.0)
    with pytest.raises(ValueError):
        exact_renyi([0.6, 0.6], [0.5, 0.5], 2.0)  # not normalized


def test_renyi_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p, q = _dirichlet_pair(rng)
        assert exact_renyi(p, q, 2.0) >= -1e-14


# ---------------------------------------------------------------------------
# joint brute force
# ---------------------------------------------------------------------------


def test_joint_single_coordinate_equals_marginal(rr_table):
    from imvu import pmf

    d1 = joint_divergence_bruteforce(rr_table, [0.3], [0.7], 2.0)
    marg = exact_renyi(pmf(rr_table, 0.3), pmf(rr_table, 0.7), 2.0)
    assert d1 == pytest.approx(marg, abs=1e-12)


def test_joint_identical_coordinates_double(rr_table):
    d2 = joint_divergence_bruteforce(rr_table, [0.3, 0.3], [0.7, 0.7], 2.0)
    d1 = joint_divergence_bruteforce(rr_table, [0.3], [0.7], 2.0)
    assert d2 == pytest.approx(2 * d1, abs=1e-9)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 4.0])
def test_joint_additivity_random(rr_table, alpha):
    from imvu import log_pmf

    rng = np.random.default_rng(5)
    for _ in range(25):
        x = rng.uniform(-1, 2, 3)
        xp = rng.uniform(-1, 2, 3)
        joint = joint_divergence_bruteforce(rr_table, x, xp, alpha)
        parts = 0.0
        for a, b in zip(x, xp):
            p = np.exp(log_pmf(rr_table, a))
            q = np.exp(log_pmf(rr_table, b))
            parts += exact_renyi(p / p.sum(), q / q.sum(), alpha)
        assert joint == pytest.approx(parts, abs=1e-9)


def test_joint_max_divergence_subadditive(rr_table):
    # the symmetrized max divergence only sums as an upper bound across
    # coordinates; this is the summation step of the L1 vector analysis
    from imvu import log_pmf

    rng = np.random.default_rng(6)
    for _ in range(25):
        x = rng.uniform(-1, 2, 3)
        xp = rng.uniform(-1, 2, 3)
        joint = joint_divergence_bruteforce(rr_table, x, xp, np.inf)
        parts = sum(
            float(np.max(np.abs(log_pmf(rr_table, a) - log_pmf(rr_table, b))))
            for a, b in zip(x, xp)
        )
        assert joint <= parts + 1e-9


def test_joint_size_guards(rr_table, table_factory):
    with pytest.raises(ValueError, match="dimension"):
        joint_divergence_bruteforce(rr_table, [0.1] * 4, [0.2] * 4, 2.0)
    wide = table_factory(2, 8, 1.0)
    with pytest.raises(ValueError, match="outcome space"):
        joint_divergence_bruteforce(wide, [0.1] * 5, [0.2] * 5, 2.0, max_dim=5)


# ---------------------------------------------------------------------------
# Fisher grid max
# ---------------------------------------------------------------------------


def test_fisher_grid_max_rr(rr_table):
    value = fisher_grid_max(rr_table, (-20.0, 21.0), 1_000_000)
    assert value == pytest.approx(1.2069489608, abs=1e-6)


def test_fisher_grid_max_below_certified_sup(table_2x4):
    m_value, _ = fisher_sup(table_2x4)
    grid = fisher_grid_max(table_2x4, (-20.0, 21.0), 100_000)
    assert grid <= m_value


def test_fisher_grid_max_rejects_small_n(rr_table):
    with pytest.raises(ValueError):
        fisher_grid_max(rr_table, (0, 1), 100)
