"""Baseline mechanisms: clipping plus calibrated noise, and sign compression."""

import numpy as np
import pytest

from imvu import DEFAULT_ALPHAS, BaselineConfig, ClipConfig, privatize_baseline
from imvu.baselines import privatizer, round_ledger


def test_config_validation():
    with pytest.raises(ValueError):
        BaselineConfig("laplace", ClipConfig("l2", 1.0), 1.0)
    with pytest.raises(ValueError):
        BaselineConfig("gaussian", ClipConfig("l1", 1.0), 1.0)
    with pytest.raises(ValueError):
        BaselineConfig("gaussian", ClipConfig("l2", 1.0), 0.0)
    with pytest.raises(ValueError):
        BaselineConfig("staircase", ClipConfig("l2", 1.0), 1.0)


@pytest.mark.parametrize("u", [np.zeros((2, 2, 2)), np.float64(0.5)])
def test_privatize_baseline_rejects_an_input_that_is_not_a_vector_or_cohort(u):
    cfg = BaselineConfig("laplace", ClipConfig("l1", 1.0), 1.0)
    with pytest.raises(ValueError, match=r"u must be a 1-D vector or \(n, d\) cohort"):
        privatize_baseline(u, cfg, np.random.default_rng(0))


def test_laplace_high_eps_is_identity_like():
    cfg = BaselineConfig("laplace", ClipConfig("l1", 1.0), 1e12)
    u = np.array([0.2, -0.3, 0.1])
    out = privatize_baseline(u, cfg, np.random.default_rng(0))
    np.testing.assert_allclose(out, u, atol=1e-9)


def test_laplace_noise_variance():
    cfg = BaselineConfig("laplace", ClipConfig("l1", 1.0), 5.0)
    rng = np.random.default_rng(1)
    out = privatize_baseline(np.zeros(1_000_000), cfg, rng)
    analytic = 2 * (1.0 / 5.0) ** 2  # 2 (C1/eps)^2 = 0.08
    assert analytic == pytest.approx(0.08)
    assert np.var(out) == pytest.approx(analytic, rel=0.02)


def test_gaussian_noise_std():
    cfg = BaselineConfig("gaussian", ClipConfig("l2", 2.0), 1.5)
    rng = np.random.default_rng(2)
    out = privatize_baseline(np.zeros(1_000_000), cfg, rng)
    assert np.std(out) == pytest.approx(1.5 * 2.0, rel=0.01)


def test_gaussian_small_sigma_tracks_clipped_input():
    cfg = BaselineConfig("gaussian", ClipConfig("l2", 1.0), 1e-9)
    u = np.array([3.0, 4.0])  # clipped to norm 1
    out = privatize_baseline(u, cfg, np.random.default_rng(3))
    np.testing.assert_allclose(out, u / 5.0, atol=1e-6)


def test_gaussian_unbiased_around_clipped_input():
    cfg = BaselineConfig("gaussian", ClipConfig("l2", 1.0), 1.0)
    u = np.array([0.3, -0.4])
    rng = np.random.default_rng(4)
    draws = np.stack([privatize_baseline(u, cfg, rng) for _ in range(20_000)])
    se = 1.0 / np.sqrt(20_000)
    np.testing.assert_allclose(draws.mean(axis=0), u, atol=4 * se)


def test_signsgd_outputs_signs():
    cfg = BaselineConfig("signsgd", ClipConfig("l2", 1.0), 1.0)
    out = privatize_baseline(np.array([0.5, -0.5, 0.0]), cfg, np.random.default_rng(5))
    assert set(np.unique(out)).issubset({-1.0, 1.0})


def test_signsgd_dominant_coordinate():
    cfg = BaselineConfig("signsgd", ClipConfig("l2", 10.0), 1e-9)
    out = privatize_baseline(np.array([5.0, -5.0]), cfg, np.random.default_rng(6))
    np.testing.assert_array_equal(out, [1.0, -1.0])


def test_signsgd_symmetric_at_zero():
    cfg = BaselineConfig("signsgd", ClipConfig("l2", 1.0), 1.0)
    rng = np.random.default_rng(7)
    out = privatize_baseline(np.zeros(100_000), cfg, rng)
    assert np.mean(out == 1.0) == pytest.approx(0.5, abs=0.01)


def test_baselines_deterministic_under_seed():
    lap = BaselineConfig("laplace", ClipConfig("l1", 1.0), 2.0)
    gau = BaselineConfig("gaussian", ClipConfig("l2", 1.0), 2.0)
    u = np.array([0.1, 0.2, -0.3])
    for cfg in (lap, gau):
        a = privatize_baseline(u, cfg, np.random.default_rng(8))
        b = privatize_baseline(u, cfg, np.random.default_rng(8))
        np.testing.assert_array_equal(a, b)
    s1 = privatize_baseline(u, BaselineConfig("signsgd", ClipConfig("l2", 1.0), 2.0),
                            np.random.default_rng(9))
    s2 = privatize_baseline(u, BaselineConfig("signsgd", ClipConfig("l2", 1.0), 2.0),
                            np.random.default_rng(9))
    np.testing.assert_array_equal(s1, s2)


def test_round_ledger_laplace_charges_its_epsilon():
    ledger = round_ledger(privatizer("laplace", ClipConfig("l1", 1.0), noise=5.0),
                          1e-5, DEFAULT_ALPHAS)
    assert (ledger.mode, ledger.per_round, ledger.delta) == ("pure", 5.0, 1e-5)


@pytest.mark.parametrize("kind", ["gaussian", "signsgd"])
def test_round_ledger_gaussian_family_rdp(kind):
    clip = ClipConfig("l2", 1.0)
    ledger = round_ledger(privatizer(kind, clip, noise=1.0), 1e-5, (2.0,))
    assert ledger.mode == "rdp" and ledger.per_round[0] == pytest.approx(1.0)
    ledger = round_ledger(privatizer(kind, clip, noise=2.0), 1e-5, (2.0, 4.0))
    np.testing.assert_allclose(ledger.per_round, [0.25, 0.5])
    assert ledger.alphas == (2.0, 4.0)


def test_round_ledger_rejects_non_positive_noise():
    for kind, norm in (("laplace", "l1"), ("gaussian", "l2"), ("signsgd", "l2")):
        for noise in (None, 0.0, -1.0):
            with pytest.raises(ValueError, match="noise"):
                round_ledger(privatizer(kind, ClipConfig(norm, 1.0), noise=noise),
                             1e-5, DEFAULT_ALPHAS)
