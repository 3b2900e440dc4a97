"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass line (visible with ``pytest -s``); a failing
criterion fails its test.  Expected constants marked as frozen were computed
with the exact oracles in this repository before being pinned here.
"""

import time

import numpy as np
import pytest

from imvu import (
    ClipConfig,
    DEFAULT_ALPHAS,
    DesignSpec,
    FlConfig,
    InterpolatedMechanism,
    attach_accounting,
    design_mvu,
    enforce_anadromic,
    eps_prime,
    exact_renyi,
    fisher_constant,
    fisher_grid_max,
    joint_divergence_bruteforce,
    l1_round_eps,
    l2_round_rdp,
    log_pmf,
    mvu_dither_moments,
    pmf,
    privatize_vector,
    rdp_to_dp,
    sample_batch,
    sweep_bias_variance,
    train_fl,
)
from imvu.rng import COORD_CHUNK

B_IN_GRID = (2, 4, 8)
BITS_GRID = (1, 2, 3)
EPS_GRID = (0.25, 1.0, 5.0)

_tables: dict = {}
_anadromic: dict = {}
_fisher: dict = {}


def _table(b_in, bits, eps):
    key = (b_in, bits, eps)
    if key not in _tables:
        _tables[key] = design_mvu(DesignSpec(b_in=b_in, b_out=2**bits, eps=eps))
    return _tables[key]


def _anadromic_table(bits, eps):
    key = (bits, eps)
    if key not in _anadromic:
        _anadromic[key] = enforce_anadromic(_table(2, bits, eps))
    return _anadromic[key]


def _fisher_m(bits, eps):
    key = (bits, eps)
    if key not in _fisher:
        table = _anadromic_table(bits, eps)
        _fisher[key] = fisher_constant(table)
    return _fisher[key]


def _renyi_at(table, x, xp, alpha):
    p = np.exp(log_pmf(table, x))
    q = np.exp(log_pmf(table, xp))
    return exact_renyi(p / p.sum(), q / q.sum(), alpha)


def test_c01_max_divergence_soundness():
    """Every designed table obeys the certified L1 divergence rate."""
    start = time.perf_counter()
    rng = np.random.default_rng(20240101)
    checked = 0
    for b_in in B_IN_GRID:
        for bits in BITS_GRID:
            for eps in EPS_GRID:
                table = _table(b_in, bits, eps)
                rate = eps + eps_prime(table, domain=(0.0, 1.0))
                xs = rng.uniform(0.0, 1.0, 1000)
                xps = rng.uniform(0.0, 1.0, 1000)
                lp = log_pmf(table, xs)
                lq = log_pmf(table, xps)
                d_inf = np.abs(lp - lq).max(axis=1)
                bound = rate * np.abs(xs - xps) + 1e-9
                violations = int(np.sum(d_inf > bound))
                assert violations == 0, (
                    f"table (b_in={b_in}, b={bits}, eps={eps}): "
                    f"{violations} divergence violations"
                )
                checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 20
    assert elapsed < 120.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 01 max-divergence soundness: PASS "
          f"({checked} tables x 1000 pairs, {elapsed:.1f}s)")


def test_c02_renyi_soundness():
    """Fisher-based RDP bound dominates the exact Renyi divergence."""
    rng = np.random.default_rng(20240202)
    alphas = (1.5, 2.0, 4.0, 8.0, 32.0)
    for bits in BITS_GRID:
        for eps in EPS_GRID:
            table = _anadromic_table(bits, eps)
            m_value, _ = _fisher_m(bits, eps)
            xs = rng.uniform(-4.0, 5.0, 1000)
            xps = rng.uniform(-4.0, 5.0, 1000)
            lp = log_pmf(table, xs)
            lq = log_pmf(table, xps)
            for alpha in alphas:
                t = alpha * lp + (1.0 - alpha) * lq
                m = t.max(axis=1)
                d_alpha = (m + np.log(np.exp(t - m[:, None]).sum(axis=1))) / (alpha - 1.0)
                bound = alpha * m_value * (xps - xs) ** 2 / 2.0 + 1e-9
                bad = int(np.sum(d_alpha > bound))
                assert bad == 0, f"(b={bits}, eps={eps}, alpha={alpha}): {bad} violations"

    # spot value on the one-bit ln 3 table, x = 0.5 -> 0.6, alpha = 2;
    # frozen from the exact enumeration oracle in this repository
    rr = enforce_anadromic(design_mvu(DesignSpec(2, 2, float(np.log(3.0)))))
    d2 = exact_renyi(pmf(rr, 0.5), pmf(rr, 0.6), 2.0)
    assert d2 == pytest.approx(0.0120452887, abs=1e-6)
    m_rr, _ = fisher_constant(rr)
    bound = float(l2_round_rdp(m_rr, 0.1, alphas=[2.0])[0])
    assert d2 <= bound
    assert bound == pytest.approx(0.0120695, abs=1e-6)
    print("\nACCEPTANCE 02 Renyi soundness: PASS "
          f"(9 tables x 5 alphas x 1000 pairs; spot {d2:.7f} <= {bound:.7f})")


def test_c03_fisher_sup_agrees_with_grid():
    """Certified supremum within 1e-6 of (and above) a dense grid max."""
    for bits in BITS_GRID:
        for eps in EPS_GRID:
            table = _anadromic_table(bits, eps)
            m_value, _ = _fisher_m(bits, eps)
            grid_max = fisher_grid_max(
                table.log_probs[0], table.log_probs[1], (-20.0, 21.0), 1_000_000
            )
            assert m_value >= grid_max, f"(b={bits}, eps={eps})"
            assert abs(m_value - grid_max) <= 1e-6 * max(m_value, grid_max), (
                f"(b={bits}, eps={eps}): sup {m_value} vs grid {grid_max}"
            )
    rr = enforce_anadromic(design_mvu(DesignSpec(2, 2, float(np.log(3.0)))))
    m_rr, _ = fisher_constant(rr)
    assert m_rr == pytest.approx(1.20695, abs=1e-5)
    print(f"\nACCEPTANCE 03 Fisher supremum vs grid: PASS (9 tables; rr M={m_rr:.6f})")


def test_c04_designer_closed_form():
    """One-bit designs reproduce the randomized-response solution."""
    for eps in (float(np.log(3.0)), 0.5, 1.0, 2.0, 5.0):
        table = _tables.get((2, 1, eps)) or design_mvu(DesignSpec(2, 2, eps))
        e = np.exp(eps)
        alphabet = np.array([-1.0 / (e - 1.0), e / (e - 1.0)])
        p = e / (1.0 + e)
        rows = np.array([[p, 1 - p], [1 - p, p]])
        np.testing.assert_allclose(table.alphabet, alphabet, atol=1e-5)
        np.testing.assert_allclose(table.probs, rows, atol=1e-5)
    print("\nACCEPTANCE 04 designer closed form: PASS (5 epsilon values)")


def test_c05_dithering_unbiased():
    """Dithered mean equals x at 201 points for every designed table."""
    xs = np.linspace(0.0, 1.0, 201)
    for b_in in B_IN_GRID:
        for bits in BITS_GRID:
            for eps in EPS_GRID:
                table = _table(b_in, bits, eps)
                mean, _ = mvu_dither_moments(table, xs)
                worst = float(np.max(np.abs(mean - xs)))
                assert worst <= 1e-6, f"(b_in={b_in}, b={bits}, eps={eps}): {worst:.2e}"
    print("\nACCEPTANCE 05 dithering unbiasedness: PASS (27 tables x 201 points)")


def test_c06_bias_variance_reproduction():
    """Interpolation bias shrinks with the grid; variance near Laplace."""
    start = time.perf_counter()
    tables = [design_mvu(DesignSpec(b_in=b_in, b_out=8, eps=5.0)) for b_in in B_IN_GRID]
    report = sweep_bias_variance(tables, eps=5.0)
    biases = [report.max_abs_bias("imvu", b_in) for b_in in B_IN_GRID]
    assert biases[0] > biases[1] > biases[2], f"bias not decreasing: {biases}"
    for b_in in B_IN_GRID:
        assert report.max_abs_bias("mvu", b_in) <= 1e-6
    assert report.laplace_variance == pytest.approx(0.08)
    var_ratio = report.variances("imvu", 8).max() / report.laplace_variance
    assert var_ratio <= 2.0, f"variance ratio {var_ratio:.3f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 6 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 06 bias/variance reproduction: PASS "
          f"(biases {biases[0]:.4f} > {biases[1]:.4f} > {biases[2]:.4f}, "
          f"var ratio {var_ratio:.2f}, {elapsed:.1f}s)")


def test_c07_rdp_conversion():
    """Conversion spot value and the min-over-orders contract."""
    eps, alpha = rdp_to_dp(np.array([1.0]), 1e-5, alphas=[2.0])
    assert eps == pytest.approx(11.12663, abs=1e-4)
    assert alpha == 2.0
    rng = np.random.default_rng(7)
    for _ in range(20):
        eps_alphas = rng.uniform(0.0, 4.0, len(DEFAULT_ALPHAS))
        best, _ = rdp_to_dp(eps_alphas, 1e-5)
        for e, a in zip(eps_alphas, DEFAULT_ALPHAS):
            single, _ = rdp_to_dp(np.array([e]), 1e-5, alphas=[a])
            assert best <= single + 1e-12
    print(f"\nACCEPTANCE 07 RDP conversion: PASS (spot eps={eps:.5f} at alpha=2)")


def test_c08_joint_product_additivity():
    """Joint enumeration equals the coordinate sum for d in {2, 3}."""
    table = _anadromic_table(2, 1.0)  # B_out = 4
    rng = np.random.default_rng(88)
    checked = 0
    for d in (2, 3):
        for _ in range(50):
            x = rng.uniform(-1.5, 2.5, d)
            xp = rng.uniform(-1.5, 2.5, d)
            alpha = float(rng.choice([1.5, 2.0, 4.0]))
            joint = joint_divergence_bruteforce(table, x, xp, alpha)
            parts = sum(_renyi_at(table, a, b, alpha) for a, b in zip(x, xp))
            assert joint == pytest.approx(parts, abs=1e-9)
            checked += 1
    assert checked == 100
    print("\nACCEPTANCE 08 joint product additivity: PASS (100 inputs, d in {2,3})")


def test_c09_sampling_fidelity():
    """Empirical frequencies match the exact pmf; streams are replayable."""
    table = _anadromic_table(2, 1.0)
    mech = InterpolatedMechanism(table, beta=1.0, clip=ClipConfig("l2", 1.0))
    n = 1_000_000
    for k, x in enumerate((0.05, 0.3, 0.5, 0.7, 0.95)):
        draws = sample_batch(mech, x, n, np.random.default_rng(1000 + k))
        probs = pmf(mech, x)
        counts = np.bincount(draws, minlength=table.b_out)
        for j in range(table.b_out):
            tol = 3.0 * np.sqrt(probs[j] * (1 - probs[j]) / n)
            assert abs(counts[j] / n - probs[j]) <= tol, f"x={x}, letter {j}"

    # identical seeds reproduce identical streams for any worker partition
    d = 2 * COORD_CHUNK + 31
    u = np.random.default_rng(5).normal(size=d) * 0.01
    full = privatize_vector(mech, u, seed=777)
    for bounds in ((0, COORD_CHUNK, d), (0, COORD_CHUNK, 2 * COORD_CHUNK, d)):
        idx = np.concatenate([
            privatize_vector(mech, u, seed=777, coord_range=(lo, hi))[0]
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ])
        assert np.array_equal(idx, full[0])
    repeat = privatize_vector(mech, u, seed=777)
    assert np.array_equal(repeat[0], full[0])
    print("\nACCEPTANCE 09 sampling fidelity: PASS (5x10^6 draws, worker replays)")


def test_c10_federated_training_plumbing():
    """Non-private accuracy gate, budget monotonicity, exact spent ledger."""
    start = time.perf_counter()

    def cfg(mechanism, mech=None, seed=0):
        return FlConfig(
            rounds=40,
            cohort=60,
            dims=20,
            lr=0.3,
            clip=ClipConfig("l1", 1.0),
            mechanism=mechanism,
            mech=mech,
            momentum=0.5,
            seed=seed,
            data_seed=1234,
            n_train=600,
            separation=4.0,
        )

    nonprivate = train_fl(cfg("identity"))
    assert nonprivate.final_accuracy >= 0.95, nonprivate.final_accuracy

    medians = []
    budgets = (0.5, 2.0, 8.0)
    for eps in budgets:
        mech = attach_accounting(
            InterpolatedMechanism(
                enforce_anadromic(design_mvu(DesignSpec(2, 2, eps))),
                beta=1.0,
                clip=ClipConfig("l1", 1.0),
            )
        )
        finals = [train_fl(cfg("imvu", mech=mech, seed=s)).final_accuracy for s in range(5)]
        medians.append(float(np.median(finals)))

        # spent trajectory equals the hand-composed ledger exactly
        result = train_fl(cfg("imvu", mech=mech, seed=0))
        per_round = l1_round_eps(mech, mech.beta)
        np.testing.assert_array_equal(result.spent_eps, per_round * np.arange(1, 41))

    assert medians[0] <= medians[1] <= medians[2], f"medians not monotone: {medians}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"criterion 10 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 10 federated plumbing: PASS "
          f"(non-private {nonprivate.final_accuracy:.3f}, medians {medians}, {elapsed:.0f}s)")
