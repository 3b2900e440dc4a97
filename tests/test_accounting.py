"""Accountant contracts: certified constants, composition, conversion."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imvu import (
    AccountingError,
    AnadromicityError,
    ClipConfig,
    DEFAULT_ALPHAS,
    InterpolatedMechanism,
    MissingConstantsError,
    PrivacyLedger,
    accounting_report,
    attach_accounting,
    compose,
    domain_for_beta,
    eps_prime,
    eps_prime_grid_max,
    exact_max_divergence,
    exact_renyi,
    fisher_constant,
    fisher_grid_max,
    fisher_info,
    fisher_sup,
    l1_round_eps,
    l2_round_rdp,
    load_mechanism,
    log_pmf,
    pmf,
    rdp_to_dp,
    save_mechanism,
    spent_trajectory,
    verify_accounting,
)
from imvu.cli import main

from conftest import LN3, get_table

RR_EPS_PRIME_EXACT = 0.5493061443340549  # ln 3 / 2, the un-padded supremum
RR_FISHER_M = 1.2069489608125816         # (ln 3)^2, supremum at x = 1/2


def _mech(table, norm="l1", c=1.0, beta=1.0):
    return InterpolatedMechanism(table, beta=beta, clip=ClipConfig(norm, c))


# ---------------------------------------------------------------------------
# eps'
# ---------------------------------------------------------------------------


def test_eps_prime_rr_value(rr_table):
    value = eps_prime(rr_table)
    # the table's own endpoint value |E[theta]| plus a few-ulp rounding pad;
    # the designed probabilities put it 1.8e-11 below the ideal ln 3 / 2
    theta = rr_table.log_probs[1] - rr_table.log_probs[0]
    own = max(abs(float(row @ theta)) for row in rr_table.probs)
    assert own <= value <= own + 1e-9
    assert value == pytest.approx(RR_EPS_PRIME_EXACT, abs=1e-9)


def test_eps_prime_certifies_dense_grid(rr_table):
    value = eps_prime(rr_table)
    theta = rr_table.log_probs[1] - rr_table.log_probs[0]
    xs = np.linspace(0.0, 1.0, 1_000_001)
    eta = np.outer(1 - xs, rr_table.log_probs[0]) + np.outer(xs, rr_table.log_probs[1])
    eta -= eta.max(axis=1, keepdims=True)
    z = np.exp(eta)
    softmax = z / z.sum(axis=1, keepdims=True)
    h = np.abs(softmax @ theta)
    assert value >= h.max()


def test_eps_prime_domain_extension_monotone(table_2x4):
    narrow = eps_prime(table_2x4, domain=(0.0, 1.0))
    wide = eps_prime(table_2x4, domain=domain_for_beta(8.0))
    assert wide >= narrow


def test_eps_prime_multi_interval_table():
    table = get_table(4, 4, 1.0)
    value = eps_prime(table)
    assert np.isfinite(value) and value >= 0.0


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------


def test_fisher_info_rr_midpoint(rr_table):
    value = fisher_info(rr_table.log_probs[0], rr_table.log_probs[1], 0.5)
    assert value == pytest.approx((2 * LN3) ** 2 / 4.0, abs=1e-9)


def test_fisher_info_zero_direction():
    eta = np.log(np.full(4, 0.25))
    assert fisher_info(eta, eta, 0.3) == 0.0
    assert fisher_info(eta, eta, -5.0) == 0.0


def test_fisher_info_matches_finite_difference_definition(table_2x4):
    # definition oracle: E_Z[(d/dx log f)^2] with the derivative taken by
    # central differences of the log pmf
    h = 1e-5
    eta1, eta2 = table_2x4.log_probs
    for x in (-1.2, 0.0, 0.31, 0.5, 0.87, 2.4):
        lp_plus = log_pmf(table_2x4, x + h)
        lp_minus = log_pmf(table_2x4, x - h)
        score = (lp_plus - lp_minus) / (2 * h)
        fd = float(pmf(table_2x4, x) @ score**2)
        closed = fisher_info(eta1, eta2, x)
        assert closed == pytest.approx(fd, rel=1e-6)


def test_fisher_sup_rr(rr_table):
    m_value, diag = fisher_constant(rr_table)
    assert m_value == pytest.approx(RR_FISHER_M, abs=1e-5)
    assert m_value >= RR_FISHER_M - 1e-9  # certified upper bound of the true sup
    # the supremum sits at the symmetry point, so the search bound is tight
    assert 0.5 <= diag.x_max <= 0.51


def test_fisher_sup_dominates_pointwise(table_2x4):
    m_value, _ = fisher_constant(table_2x4)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-10.0, 11.0, 100_000)
    vals = fisher_info(table_2x4.log_probs[0], table_2x4.log_probs[1], xs)
    assert np.all(vals <= m_value)


def test_fisher_sup_zero_theta():
    eta = np.log(np.full(4, 0.25))
    m_value, _ = fisher_sup(eta, eta)
    assert m_value == 0.0


def test_fisher_sup_rejects_non_anadromic():
    eta1 = np.log([0.7, 0.3])
    eta2 = np.log([0.4, 0.6])
    with pytest.raises(AnadromicityError, match="enforce_anadromic"):
        fisher_sup(eta1, eta2)


def test_fisher_constant_requires_two_rows():
    table = get_table(4, 4, 1.0)
    with pytest.raises(AccountingError, match="b_in=2"):
        fisher_constant(table)


# properties from the symmetric-parameter analysis


@pytest.mark.parametrize("b_out,eps", [(2, 1.0), (4, 0.25), (4, 5.0), (8, 1.0)])
def test_fisher_symmetry_about_half(b_out, eps):
    table = get_table(2, b_out, eps, symmetrize=True)
    eta1, eta2 = table.log_probs
    rng = np.random.default_rng(1)
    xs = rng.uniform(-6.0, 7.0, 200)
    np.testing.assert_allclose(
        fisher_info(eta1, eta2, xs), fisher_info(eta1, eta2, 1.0 - xs), atol=1e-12
    )


@pytest.mark.parametrize("b_out,eps", [(2, 1.0), (4, 1.0), (8, 5.0)])
def test_fisher_stationary_at_half(b_out, eps):
    table = get_table(2, b_out, eps, symmetrize=True)
    eta1, eta2 = table.log_probs
    h = 1e-4
    derivative = (fisher_info(eta1, eta2, 0.5 + h) - fisher_info(eta1, eta2, 0.5 - h)) / (2 * h)
    assert abs(derivative) <= 1e-6


@pytest.mark.parametrize("b_out,eps", [(2, 1.0), (8, 5.0)])
def test_fisher_tail_bound_unique_argmax(b_out, eps):
    table = get_table(2, b_out, eps, symmetrize=True)
    eta1, eta2 = table.log_probs
    theta = eta2 - eta1
    j_plus = int(np.argmax(theta))
    rng = np.random.default_rng(2)
    for x in rng.uniform(0.5, 8.0, 500):
        eta = (1 - x) * eta1 + x * eta2
        z = np.exp(eta - eta.max())
        sigma = z[j_plus] / z.sum()
        if sigma >= 0.5:
            bound = 4 * theta[j_plus] ** 2 * sigma * (1 - sigma)
            assert fisher_info(eta1, eta2, x) <= bound + 1e-12


def test_fisher_tail_bound_tied_argmax_group():
    # eps=0.25 designs tie the extreme letters; the bound holds with the
    # total mass of the tied group
    table = get_table(2, 4, 0.25, symmetrize=True)
    eta1, eta2 = table.log_probs
    theta = eta2 - eta1
    group = theta >= theta.max() - 1e-12
    assert group.sum() >= 2
    rng = np.random.default_rng(3)
    for x in rng.uniform(0.5, 8.0, 500):
        eta = (1 - x) * eta1 + x * eta2
        z = np.exp(eta - eta.max())
        mass = z[group].sum() / z.sum()
        if mass >= 0.5:
            bound = 4 * theta.max() ** 2 * mass * (1 - mass)
            assert fisher_info(eta1, eta2, x) <= bound + 1e-12


# ---------------------------------------------------------------------------
# cross-checks against the dense-grid oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("beta", [1.0, 3.0])
@pytest.mark.parametrize("b_in,b_out,eps", [
    (2, 2, LN3), (2, 4, 1.0), (2, 8, 5.0), (3, 4, 2.0), (4, 4, 1.0), (8, 4, 2.0), (16, 4, 3.0),
    (32, 16, 4.0), (64, 4, 4.0), (128, 2, 4.0),
])
def test_eps_prime_matches_dense_grid(b_in, b_out, eps, beta):
    table = get_table(b_in, b_out, eps)
    domain = domain_for_beta(beta)
    grid = eps_prime_grid_max(table, domain, 10_000)
    assert grid <= eps_prime(table, domain) <= grid + 1e-9 * (1.0 + grid)


@pytest.mark.parametrize("domain", [(-2.0, 1.0), (0.0, 3.0)])
def test_eps_prime_one_sided_domain(domain):
    # designed tables are near point-symmetric, so a symmetric domain cannot
    # tell the two stretched boundary intervals apart
    table = get_table(4, 4, 1.0)
    grid = eps_prime_grid_max(table, domain, 10_000)
    assert grid <= eps_prime(table, domain) <= grid + 1e-9 * (1.0 + grid)


def _fisher_grid(table):
    return fisher_grid_max(table.log_probs[0], table.log_probs[1], (-20.0, 21.0), 1_000_000)


@pytest.mark.parametrize("b_out,eps", [(8, 2.0), (16, 1.0), (16, 10.0)])
def test_fisher_sup_floor_heavy_tables(b_out, eps):
    # letters at the probability floor make |theta| large and push the tail
    # bound's x_max out to about 10^12; the R^2/4 cap still ends the search
    table = get_table(2, b_out, eps, symmetrize=True)
    m_value, diag = fisher_constant(table)
    assert diag.evaluations <= 10_000
    grid = _fisher_grid(table)
    assert grid <= m_value <= grid * (1.0 + 1e-6)


def test_fisher_sup_off_center_peak():
    # an anadromic pair whose information peaks near x = 1.19, not at the
    # symmetry point, so the line search itself must find the supremum
    eta1 = np.log([0.2, 0.7, 0.0999, 0.0001])
    eta2 = eta1[::-1].copy()
    m_value, diag = fisher_sup(eta1, eta2)
    assert diag.i_star < m_value / 1.5
    grid = fisher_grid_max(eta1, eta2, (-20.0, 21.0), 1_000_000)
    assert grid <= m_value <= grid * (1.0 + 1e-6)


def test_fisher_sup_unsymmetrized_rr_is_cheap(rr_table):
    _, diag = fisher_constant(rr_table)
    assert diag.evaluations < 1_000


@settings(max_examples=10, deadline=None)
@given(bits=st.integers(1, 4), log_eps=st.floats(np.log(0.1), np.log(20.0)))
def test_fisher_certifies_designed_two_row_files(bits, log_eps):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        assert main(["design", "--bits", str(bits), "--b-in", "2",
                     "--eps", repr(float(np.exp(log_eps))), "--symmetrize",
                     "--clip-norm", "l2", "--out", path]) == 0
        assert main(["account", "--mech", path, "--mode", "rdp", "--clip-norm", "l2",
                     "--clip-c", "1.0", "--rounds", "1", "--attach",
                     "--out", os.path.join(tmp, "r.json")]) == 0
        mech = load_mechanism(path)
    grid = _fisher_grid(mech.table)
    assert grid <= mech.fisher_m <= grid * (1.0 + 1e-6)


# ---------------------------------------------------------------------------
# per-round costs
# ---------------------------------------------------------------------------


def test_l1_round_eps_spot(rr_table):
    mech = attach_accounting(_mech(rr_table))
    value = l1_round_eps(mech, 1.0)
    assert value == (rr_table.design_eps + mech.eps_prime)
    assert value == pytest.approx(1.64792, abs=1e-3)  # ln 3 + ln 3 / 2 plus pad
    assert l1_round_eps(mech, 0.0) == 0.0
    assert l1_round_eps(mech, 2.0) == pytest.approx(2 * value)


def test_l1_round_eps_requires_constant(rr_table):
    with pytest.raises(MissingConstantsError):
        l1_round_eps(_mech(rr_table), 1.0)


def test_l2_round_rdp_spot():
    eps_alphas = l2_round_rdp(1.20695, 0.1, alphas=[2.0])
    assert eps_alphas[0] == pytest.approx(0.0120695, abs=1e-7)
    assert np.all(l2_round_rdp(1.20695, 0.0) == 0.0)
    doubled_alpha = l2_round_rdp(1.0, 1.0, alphas=[2.0, 4.0])
    assert doubled_alpha[1] == pytest.approx(2 * doubled_alpha[0])
    doubled_c = l2_round_rdp(1.0, 2.0, alphas=[2.0])
    assert doubled_c[0] == pytest.approx(4 * l2_round_rdp(1.0, 1.0, alphas=[2.0])[0])
    with pytest.raises(ValueError):
        l2_round_rdp(1.0, 1.0, alphas=[1.0])


def test_rdp_bound_certifies_exact_renyi(rr_table):
    # the frozen oracle value for D_2 between x=0.5 and x=0.6 on the
    # one-bit table, computed by direct log-domain enumeration
    m_value, _ = fisher_constant(rr_table)
    d2 = exact_renyi(pmf(rr_table, 0.5), pmf(rr_table, 0.6), 2.0)
    assert d2 == pytest.approx(0.0120452887, abs=1e-8)
    bound = float(l2_round_rdp(m_value, 0.1, alphas=[2.0])[0])
    assert d2 <= bound
    assert bound == pytest.approx(0.0120695, abs=1e-6)


# ---------------------------------------------------------------------------
# soundness spot checks (the full sweeps run in the acceptance suite)
# ---------------------------------------------------------------------------


def test_max_divergence_soundness_spot(rr_table):
    mech = attach_accounting(_mech(rr_table))
    rate = rr_table.design_eps + mech.eps_prime
    rng = np.random.default_rng(4)
    xs, xps = rng.uniform(0, 1, 200), rng.uniform(0, 1, 200)
    for x, xp in zip(xs, xps):
        d = exact_max_divergence(pmf(rr_table, x), pmf(rr_table, xp))
        assert d <= rate * abs(x - xp) + 1e-9


def test_renyi_soundness_spot(rr_table):
    m_value, _ = fisher_constant(rr_table)
    rng = np.random.default_rng(5)
    xs, xps = rng.uniform(-4, 5, 200), rng.uniform(-4, 5, 200)
    for alpha in (2.0, 32.0):
        for x, xp in zip(xs, xps):
            p = np.exp(log_pmf(rr_table, x))
            q = np.exp(log_pmf(rr_table, xp))
            d = exact_renyi(p / p.sum(), q / q.sum(), alpha)
            assert d <= alpha * m_value * (xp - x) ** 2 / 2 + 1e-9


# ---------------------------------------------------------------------------
# ledger, composition, conversion
# ---------------------------------------------------------------------------


def test_compose_pure():
    ledger = PrivacyLedger("pure", 0.25, 100)
    assert compose(ledger) == 25.0
    assert compose(PrivacyLedger("pure", 0.25, 1)) == 0.25


def test_compose_rdp_vector():
    alphas = (1.5, 2.0, 4.0)
    ledger = PrivacyLedger("rdp", np.array([0.01, 0.02, 0.04]), 100, alphas=alphas)
    np.testing.assert_allclose(compose(ledger), [1.0, 2.0, 4.0])


def test_compose_spot_example():
    ledger = PrivacyLedger("rdp", np.array([0.01]), 100, alphas=(2.0,))
    assert compose(ledger)[0] == pytest.approx(1.0)


def test_ledger_validation():
    with pytest.raises(ValueError):
        PrivacyLedger("pure", -0.1, 10)
    with pytest.raises(ValueError):
        PrivacyLedger("rdp", np.array([0.1]), 10)  # missing alphas
    with pytest.raises(ValueError):
        PrivacyLedger("pure", 0.1, 10, delta=1.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1.0, 0.5])
def test_every_entry_point_rejects_an_order_that_is_not_finite_above_one(bad):
    # NaN passes ``alpha <= 1``, so each check must ask for finite orders above 1
    with pytest.raises(ValueError, match="alphas"):
        l2_round_rdp(1.0, 1.0, alphas=[2.0, bad])
    with pytest.raises(ValueError, match="alphas"):
        PrivacyLedger("rdp", np.array([0.1, 0.2]), 10, alphas=(2.0, bad))
    with pytest.raises(ValueError, match="alphas"):
        rdp_to_dp(np.array([0.1, 0.2]), 1e-5, alphas=[bad, 2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
def test_ledger_rejects_a_per_round_cost_that_is_not_finite_and_non_negative(bad):
    with pytest.raises(ValueError, match="per-round costs"):
        PrivacyLedger("pure", bad, 10)
    with pytest.raises(ValueError, match="per-round costs"):
        PrivacyLedger("rdp", np.array([0.1, bad]), 10, alphas=(2.0, 4.0))


def test_rdp_to_dp_spot():
    eps, alpha = rdp_to_dp(np.array([1.0]), 1e-5, alphas=[2.0])
    expected = 1.0 + np.log(0.5) - (np.log(1e-5) + np.log(2.0)) / 1.0
    assert eps == pytest.approx(expected, abs=1e-12)
    assert eps == pytest.approx(11.12663, abs=1e-4)
    assert alpha == 2.0


def test_rdp_to_dp_min_contract():
    rng = np.random.default_rng(6)
    eps_alphas = rng.uniform(0.0, 3.0, len(DEFAULT_ALPHAS))
    best, _ = rdp_to_dp(eps_alphas, 1e-5)
    alphas = np.asarray(DEFAULT_ALPHAS)
    singles = [
        rdp_to_dp(np.array([e]), 1e-5, alphas=[a])[0] for e, a in zip(eps_alphas, alphas)
    ]
    assert best <= min(singles) + 1e-12


def test_rdp_to_dp_zero_cost_large_delta():
    # with no RDP cost the conversion leaves only formula overhead, which is
    # small in magnitude relative to real budgets (and can be negative)
    eps, _ = rdp_to_dp(np.zeros(len(DEFAULT_ALPHAS)), 1.0 - 1e-9)
    assert eps <= 0.05


def test_rdp_to_dp_monotone_in_delta():
    eps_alphas = np.full(len(DEFAULT_ALPHAS), 0.5)
    values = [rdp_to_dp(eps_alphas, d)[0] for d in (1e-8, 1e-6, 1e-4, 1e-2)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_rdp_to_dp_input_errors():
    with pytest.raises(ValueError):
        rdp_to_dp(np.array([]), 1e-5, alphas=[])
    with pytest.raises(ValueError):
        rdp_to_dp(np.array([1.0]), 1e-5, alphas=[0.5])


def test_spent_trajectory_pure_additivity():
    ledger = PrivacyLedger("pure", 0.3, 17)
    expected = 0.3 * np.arange(1, 18)
    np.testing.assert_array_equal(spent_trajectory(ledger), expected)


def test_spent_trajectory_rdp_non_decreasing():
    ledger = PrivacyLedger("rdp", np.asarray(DEFAULT_ALPHAS) * 0.001, 25,
                           alphas=DEFAULT_ALPHAS)
    traj = spent_trajectory(ledger)
    assert np.all(np.diff(traj) >= 0)


# ---------------------------------------------------------------------------
# attach / verify / report
# ---------------------------------------------------------------------------


def test_attach_and_verify(rr_table):
    mech = attach_accounting(_mech(rr_table))
    assert mech.eps_prime is not None and mech.fisher_m is not None
    verify_accounting(mech)


def test_verify_rejects_tampered_constant(rr_table):
    mech = attach_accounting(_mech(rr_table))
    tampered = InterpolatedMechanism(
        rr_table, beta=mech.beta, clip=mech.clip,
        eps_prime=mech.eps_prime + 1e-3, fisher_m=mech.fisher_m,
    )
    with pytest.raises(AccountingError, match="eps_prime"):
        verify_accounting(tampered)


def test_attach_skips_fisher_for_wide_tables():
    table = get_table(4, 4, 1.0)
    mech = attach_accounting(InterpolatedMechanism(table, clip=ClipConfig("l1", 1.0)))
    assert mech.eps_prime is not None
    assert mech.fisher_m is None


def test_accounting_report_pure(rr_table):
    report = accounting_report("rr.json", _mech(rr_table), "pure", rounds=10)
    assert report["mode"] == "pure"
    assert report["per_round"] == pytest.approx(
        (rr_table.design_eps + report["eps_prime"]) * 1.0
    )
    assert report["composed"] == pytest.approx(10 * report["per_round"])
    assert report["eps_dp"] == report["composed"]
    assert report["argmin_alpha"] is None
    assert report["certification"]["evaluations"] == 2  # the interval's two endpoints
    assert report["certification"]["pad"] > 0


def test_accounting_report_rdp(rr_table):
    mech = _mech(rr_table, norm="l2", c=0.5, beta=1.0)
    report = accounting_report("rr.json", mech, "rdp", rounds=100, delta=1e-5)
    assert report["mode"] == "rdp"
    assert len(report["per_round"]) == len(DEFAULT_ALPHAS)
    assert report["eps_dp"] <= min(
        c + np.log((a - 1) / a) - (np.log(1e-5) + np.log(a)) / (a - 1)
        for c, a in zip(report["composed"], DEFAULT_ALPHAS)
    ) + 1e-9
    assert report["argmin_alpha"] in DEFAULT_ALPHAS


def test_accounting_report_rdp_needs_two_rows():
    table = get_table(4, 4, 1.0)
    with pytest.raises(AccountingError, match="b_in=2"):
        accounting_report("t.json", InterpolatedMechanism(table), "rdp", rounds=5)


def test_load_rejects_tampered_file_with_plain_floats(tmp_path, table_2x4):
    path = tmp_path / "m.json"
    save_mechanism(path, attach_accounting(_mech(table_2x4)))
    doc = json.loads(path.read_text())
    doc["accounting"]["eps_prime"] += 1e-3
    path.write_text(json.dumps(doc))
    with pytest.raises(AccountingError, match="stored eps_prime") as info:
        load_mechanism(path)
    assert "np.float64" not in str(info.value)


@pytest.mark.parametrize("beta", [1.0, 3.0])
def test_attach_report_and_file_agree_on_constants(tmp_path, rr_table, table_2x4, beta):
    for table in (rr_table, table_2x4):
        mech = _mech(table, beta=beta)
        attached = attach_accounting(mech)
        pure = accounting_report("t.json", mech, "pure", rounds=3)
        rdp = accounting_report("t.json", mech, "rdp", rounds=3)
        save_mechanism(tmp_path / "t.json", attached)
        loaded = load_mechanism(tmp_path / "t.json")
        assert attached.eps_prime == pure["eps_prime"] == loaded.eps_prime
        assert attached.fisher_m == rdp["fisher_m"] == loaded.fisher_m
        assert type(pure["eps_prime"]) is float and type(rdp["fisher_m"]) is float
