"""Accountant contracts: certified constants, composition, conversion."""

import hashlib
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
    DesignSpec,
    InterpolatedMechanism,
    MechanismTable,
    PrivacyLedger,
    accounting_report,
    attach_accounting,
    compose,
    design_mvu,
    domain_for_beta,
    eps_prime,
    eps_prime_grid_max,
    exact_max_divergence,
    exact_renyi,
    fisher_grid_max,
    fisher_info,
    fisher_sup,
    imvu_ledger,
    load_mechanism,
    log_pmf,
    pmf,
    rdp_to_dp,
    save_mechanism,
    spent_epsilon,
    verify_accounting,
)
from imvu import accounting
from imvu.accounting import FISHER_TOL, _group_mass, _tail_end, _variance_cap
from imvu.cli import main
from imvu.mechanism import _softmax_terms

from conftest import LN3, get_table, non_anadromic_table

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


@pytest.mark.parametrize("domain", [(np.nan, 1.0), (0.0, np.nan), (2.0, -1.0), (-np.inf, 1.0),
                                    (0.0, np.inf), (0.0,), (0.0, 0.5, 1.0)])
def test_eps_prime_rejects_a_domain_that_is_not_an_interval(domain):
    # min and max read a NaN end or a reversed pair as [0, 1]; an infinite end gives NaN
    with pytest.raises(ValueError, match="domain must be two finite numbers"):
        eps_prime(get_table(4, 4, 2.0), domain)


def test_eps_prime_at_a_point_domain_is_the_unit_value():
    table = get_table(4, 4, 2.0)
    assert eps_prime(table, (0.5, 0.5)) == eps_prime(table)


@pytest.mark.parametrize("domain", [(-1e308, 1.0), (0.0, 1e308), (0.0, 1e307)])
def test_eps_prime_rejects_a_stretch_past_float_range(domain):
    with pytest.raises(ValueError, match="past float range"):
        eps_prime(get_table(4, 4, 2.0), domain)


def test_accounting_report_rejects_a_beta_whose_stretch_overflows():
    # the logits would overflow, and the NaN would surface as an invalid eps_prime
    mech = _mech(get_table(16, 4, 1.0), beta=1e308)
    with pytest.raises(ValueError, match="past float range"):
        accounting_report("t.json", mech, "pure", rounds=1)


# ---------------------------------------------------------------------------
# Fisher information
# ---------------------------------------------------------------------------


def test_fisher_info_rr_midpoint(rr_table):
    value = fisher_info(rr_table, 0.5)
    assert value == pytest.approx((2 * LN3) ** 2 / 4.0, abs=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fisher_info_rejects_inputs_that_are_not_finite(rr_table, bad):
    with pytest.raises(ValueError, match="inputs must be finite"):
        fisher_info(rr_table, bad)
    with pytest.raises(ValueError, match="inputs must be finite"):
        fisher_info(rr_table, np.array([0.5, bad]))


def test_fisher_info_matches_finite_difference_definition(table_2x4):
    # definition oracle: E_Z[(d/dx log f)^2] with the derivative taken by
    # central differences of the log pmf
    h = 1e-5
    for x in (-1.2, 0.0, 0.31, 0.5, 0.87, 2.4):
        lp_plus = log_pmf(table_2x4, x + h)
        lp_minus = log_pmf(table_2x4, x - h)
        score = (lp_plus - lp_minus) / (2 * h)
        fd = float(pmf(table_2x4, x) @ score**2)
        closed = fisher_info(table_2x4, x)
        assert closed == pytest.approx(fd, rel=1e-6)


def test_fisher_sup_rr(rr_table):
    m_value, diag = fisher_sup(rr_table)
    assert m_value == pytest.approx(RR_FISHER_M, abs=1e-5)
    assert m_value >= RR_FISHER_M - 1e-9  # certified upper bound of the true sup
    # the supremum sits at the symmetry point, so the search bound is tight
    assert 0.5 <= diag.x_max <= 0.51


def test_fisher_sup_dominates_pointwise(table_2x4):
    m_value, _ = fisher_sup(table_2x4)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-10.0, 11.0, 100_000)
    vals = fisher_info(table_2x4, xs)
    assert np.all(vals <= m_value)


def test_fisher_sup_rejects_non_anadromic():
    # its rows mirror each other only to within 3.7e-2
    table = non_anadromic_table()
    assert not table.anadromic
    with pytest.raises(AnadromicityError, match=r"residual 3\.681e-02.*enforce_anadromic"):
        fisher_sup(table)


def test_fisher_constant_requires_two_rows():
    table = get_table(4, 4, 1.0)
    assert not table.anadromic
    with pytest.raises(AccountingError, match="b_in=2"):
        fisher_sup(table)


def test_fisher_sup_fails_cleanly_where_the_tail_certificate_is_unattainable(tmp_path, capsys):
    # a valid anadromic table whose middle letter holds all but 3e-12 of each
    # row's mass, so I(1/2) is negligible against the extreme letters
    p, r = 2e-12, 1e-12
    half = 1.0 / (2.0 * (p - r))
    table = MechanismTable([0.5 - half, 0.5, 0.5 + half],
                           np.log([[p, 1.0 - p - r, r], [r, 1.0 - p - r, p]]), 1.0)
    assert table.anadromic
    with pytest.raises(AccountingError, match="tail certificate unattainable"):
        fisher_sup(table)
    path = str(tmp_path / "mech.json")
    save_mechanism(path, InterpolatedMechanism(table))
    assert main(["account", "--mech", path, "--mode", "rdp", "--clip-norm", "l2",
                 "--clip-c", "1", "--rounds", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: tail certificate unattainable") and "Traceback" not in err


def test_fisher_sup_fails_cleanly_past_its_evaluation_budget(monkeypatch):
    # the 2x3 eps = 40 design takes 299 evaluations
    table = design_mvu(DesignSpec(2, 3, 40.0))
    assert fisher_sup(table)[1].evaluations == 299
    monkeypatch.setattr(accounting, "_MAX_EVALS", 200)
    with pytest.raises(AccountingError, match="line search exceeded its evaluation budget"):
        fisher_sup(table)


@pytest.mark.parametrize("b_in", [3, 4])
def test_fisher_info_requires_two_rows(b_in):
    table = get_table(b_in, 4, 1.0)
    with pytest.raises(AccountingError, match="b_in=2"):
        fisher_info(table, 0.5)
    with pytest.raises(AccountingError, match="b_in=2"):
        fisher_grid_max(table, (-20.0, 21.0), 10_000)


# properties from the symmetric-parameter analysis


@pytest.mark.parametrize("b_out,eps", [(2, 1.0), (4, 0.25), (4, 5.0), (8, 1.0)])
def test_fisher_symmetry_about_half(b_out, eps):
    table = get_table(2, b_out, eps, symmetrize=True)
    rng = np.random.default_rng(1)
    xs = rng.uniform(-6.0, 7.0, 200)
    np.testing.assert_allclose(fisher_info(table, xs), fisher_info(table, 1.0 - xs), atol=1e-12)


@pytest.mark.parametrize("b_out,eps", [(2, 1.0), (4, 1.0), (8, 5.0)])
def test_fisher_stationary_at_half(b_out, eps):
    table = get_table(2, b_out, eps, symmetrize=True)
    h = 1e-4
    derivative = (fisher_info(table, 0.5 + h) - fisher_info(table, 0.5 - h)) / (2 * h)
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
            assert fisher_info(table, x) <= bound + 1e-12


def test_fisher_tail_bound_tied_argmax_group():
    # the two upper letters tie at theta = ln 3; the bound holds with the
    # total mass of the tied group
    table = MechanismTable([-1.0, 0.0, 1.0, 2.0],
                           np.log([[3 / 8, 3 / 8, 1 / 8, 1 / 8], [1 / 8, 1 / 8, 3 / 8, 3 / 8]]), 1.1)
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
            assert fisher_info(table, x) <= bound + 1e-12


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


# designed tables of more than eight rows and at most 512 cells
_WIDE_SHAPES = st.sampled_from([2, 4, 8, 16]).flatmap(
    lambda b_out: st.tuples(st.integers(9, 512 // b_out), st.just(b_out)))


@settings(max_examples=12, deadline=None)
@given(shape=_WIDE_SHAPES, log_eps=st.floats(np.log(0.1), np.log(20.0)),
       beta=st.sampled_from([1.0, 3.0]))
def test_eps_prime_matches_dense_grid_beyond_eight_rows(shape, log_eps, beta):
    b_in, b_out = shape
    table = design_mvu(DesignSpec(b_in, b_out, float(np.exp(log_eps))))
    domain = domain_for_beta(beta)
    grid = eps_prime_grid_max(table, domain, 10_000)
    assert grid <= eps_prime(table, domain) <= grid + 1e-9 * (1.0 + grid)


def _fisher_grid(table):
    return fisher_grid_max(table, (-20.0, 21.0), 1_000_000)


@pytest.mark.parametrize("b_out,eps", [(8, 2.0), (16, 1.0), (16, 10.0)])
def test_fisher_sup_floor_heavy_tables(b_out, eps):
    # letters at the probability floor make |theta| large; the R^2/4 cap
    # settles the bound at I(1/2) or ends the search
    table = get_table(2, b_out, eps, symmetrize=True)
    m_value, diag = fisher_sup(table)
    assert diag.evaluations <= 10_000
    grid = _fisher_grid(table)
    assert grid <= m_value <= grid * (1.0 + 1e-6)


def _mirrored_table(p, slack):
    """The two-row table whose rows are p and p reversed: its alphabet
    1/2 - c / (2 p.c) over the letter offsets c in [-1, 1] makes the rows
    unbiased, and its design eps exceeds the rows' largest log ratio by the
    relative ``slack``."""
    c = np.linspace(-1.0, 1.0, len(p))
    logs = np.log([p, p[::-1]])
    eps = float(np.max(np.abs(logs[0] - logs[1]))) * (1.0 + slack)
    return MechanismTable(0.5 - c / (2.0 * (p @ c)), logs, eps)


def _random_mirrored_table(b_out, seed):
    """A ``_mirrored_table`` of a Dirichlet p with its floor letters kept
    positive, reversed where needed so the alphabet ascends."""
    p = np.maximum(np.random.default_rng(seed).dirichlet(np.ones(b_out)), 1e-12)
    p /= p.sum()
    if p @ np.linspace(-1.0, 1.0, b_out) > 0:
        p = p[::-1]
    return _mirrored_table(p, 1e-9)


def test_fisher_sup_off_center_peak():
    # an anadromic table whose information peaks near x = 1.19, not at the
    # symmetry point, so the line search itself must find the supremum
    table = _mirrored_table(np.array([0.2, 0.7, 0.0999, 0.0001]), 1e-7)
    m_value, diag = fisher_sup(table)
    assert diag.i_star < m_value / 1.5
    grid = fisher_grid_max(table, (-20.0, 21.0), 1_000_000)
    assert grid <= m_value <= grid * (1.0 + 1e-6)


def _check_fisher_sup(table):
    """The early certificate returns exactly where Popoviciu's cap allows it,
    and the search runs everywhere else; either way M bounds the grid."""
    try:
        m_value, diag = fisher_sup(table)
    except AccountingError:
        return
    if _variance_cap(table.log_probs[1] - table.log_probs[0]) <= diag.i_star + FISHER_TOL:
        assert (m_value, diag.evaluations) == (diag.i_star + FISHER_TOL, 1)
    else:
        assert 1 < diag.evaluations <= 100_000
    assert fisher_grid_max(table, (-20.0, 21.0), 10**5) <= m_value


@settings(max_examples=20, deadline=None)
@given(b_out=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
def test_fisher_sup_certifies_random_anadromic_tables(b_out, seed):
    table = _random_mirrored_table(b_out, seed)
    assert table.anadromic
    _check_fisher_sup(table)


def test_fisher_sup_unsymmetrized_rr_is_cheap(rr_table):
    _, diag = fisher_sup(rr_table)
    assert diag.evaluations < 1_000


def _tail_target(theta, i_star, margin):
    """The group of letters within ``margin`` of theta_max and the mass at
    which their tail bound falls to ``i_star``, as ``fisher_sup`` sets them."""
    t_max = theta.max()
    group = theta >= t_max - margin
    return group, (t_max + np.sqrt(t_max**2 - i_star)) / (theta[group].min() + t_max)




@pytest.mark.parametrize("b_out,eps", [(2, LN3), (4, 2.0), (8, 5.0)])
def test_fisher_sup_certifies_certify_rdp_tables_in_one_evaluation(b_out, eps):
    # the symmetrized designs of the benchmark's certify-rdp workload
    m_value, diag = fisher_sup(get_table(2, b_out, eps, symmetrize=True))
    assert (diag.evaluations, diag.rounds, diag.x_max) == (1, 0, 0.5)
    assert m_value == diag.i_star + FISHER_TOL


@settings(max_examples=12, deadline=None)
@given(b_out=st.integers(2, 64), log_eps=st.floats(np.log(0.1), np.log(20.0)))
def test_fisher_sup_early_certificate_on_symmetrized_designs(b_out, log_eps):
    _check_fisher_sup(
        design_mvu(DesignSpec(2, b_out, float(np.exp(log_eps)), symmetrize=True)))


@pytest.mark.parametrize("b_out,eps,m_value,x_max,evaluations,rounds", [
    (16, 10.0, 99.99999989710598, 0.5000032233638194, 170, 1),
    (64, 3.0, 8.999999999809743, 0.5000038334064811, 170, 1),
    (3, 40.0, 763.4729461734714, 0.5000256091543633, 299, 2),
], ids=["2x16-eps10", "2x64-eps3", "2x3-eps40"])
def test_fisher_sup_tail_search_numbers(b_out, eps, m_value, x_max, evaluations, rounds):
    # designs whose certificate needs the tail search and the line search;
    # the numbers are pinned bit for bit
    got, diag = fisher_sup(get_table(2, b_out, eps))
    assert (got, diag.x_max, diag.evaluations, diag.rounds) == (
        m_value, x_max, evaluations, rounds)


def test_tail_end_raises_where_the_mass_never_reaches_the_target():
    # the mass of the lowest letter falls to 0 right of x = 1/2
    table = get_table(2, 8, 2.0)
    theta = table.log_probs[1] - table.log_probs[0]
    with pytest.raises(AccountingError, match="never reached"):
        _tail_end(table, theta == theta.min(), 0.5)


def _one_input_mass(table, group, x):
    _, z, total = _softmax_terms(table.log_probs, 0, np.array([x]))
    return float(z[group, 0].sum() / total[0])


@settings(max_examples=25, deadline=None)
@given(b_out=st.integers(2, 300), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_group_mass_of_a_batch_is_each_input_alone(b_out, seed, data):
    # groups of the top k letters, so the tied sums cover the in-sequence,
    # eight-way and split orders of numpy's pairwise sum
    table = _random_mirrored_table(b_out, seed)
    theta = table.log_probs[1] - table.log_probs[0]
    k = data.draw(st.integers(1, b_out))
    group = theta >= np.sort(theta)[-k]
    xs = np.linspace(0.5, 20.0, 40)
    assert _group_mass(table, xs, group).tolist() == [
        _one_input_mass(table, group, x) for x in xs]


def test_fisher_sup_ties_a_heavy_letter_a_hair_below_the_argmax():
    # the shape of the 2x2048 eps = 1 design: the argmax is a floor letter, a
    # heavy letter lies 5e-11 below it, and mass at theta = 0 holds Popoviciu's
    # cap 2e-9 above I(1/2), so the search must run.  Tied within 1e-12 alone,
    # the argmax's mass passes the heavy letter's only past x = 1e11, and the
    # line search over that reach exceeded its budget
    p = np.array([np.exp(1.0 - 5e-11), 1e-12 * np.e, 4e-9, 4e-9, 1e-12, 1.0])
    table = _mirrored_table(p / p.sum(), 1e-9)
    m_value, diag = fisher_sup(table)
    assert diag.evaluations > 1 and 0.5 < diag.x_max < 0.51
    grid = fisher_grid_max(table, (-20.0, 21.0), 1_000_000)
    assert grid <= m_value <= grid * (1.0 + 1e-6)
    theta = table.log_probs[1] - table.log_probs[0]
    x_far, _ = _tail_end(table, *_tail_target(theta, diag.i_star, 1e-12))
    assert x_far > 1e11


@settings(max_examples=10, deadline=None)
@given(bits=st.integers(1, 4), log_eps=st.floats(np.log(0.1), np.log(20.0)))
def test_fisher_certifies_designed_two_row_files(bits, log_eps):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        assert main(["design", "--bits", str(bits), "--b-in", "2",
                     "--eps", repr(float(np.exp(log_eps))), "--symmetrize",
                     "--out", path]) == 0
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
    ledger = imvu_ledger(mech, "pure", 1.0)
    value = ledger.per_round
    assert (ledger.mode, ledger.alphas) == ("pure", None)
    assert value == (rr_table.design_eps + mech.eps_prime)
    assert value == pytest.approx(1.64792, abs=1e-3)  # ln 3 + ln 3 / 2 plus pad
    assert imvu_ledger(mech, "pure", 0.0).per_round == 0.0
    assert imvu_ledger(mech, "pure", 2.0).per_round == pytest.approx(2 * value)


@pytest.mark.parametrize("c_sens", [True, "1", -0.5, np.nan])
def test_accounting_report_rejects_a_c_sens_that_is_not_a_non_negative_real(rr_table, c_sens):
    # a bool c_sens was charged as sensitivity 1
    with pytest.raises(ValueError, match="c_sens must be a non-negative real"):
        accounting_report("rr.json", _mech(rr_table), "pure", 1, c_sens=c_sens)


@pytest.mark.parametrize("mode", ["pure", "rdp"])
def test_ledger_of_a_bare_mechanism_certifies_the_attached_constant(rr_table, mode):
    # the constant a mechanism lacks is certified, to the attached one's bits
    bare = _mech(rr_table)
    attached = attach_accounting(bare)
    np.testing.assert_array_equal(imvu_ledger(bare, mode, 0.5).per_round,
                                  imvu_ledger(attached, mode, 0.5).per_round)


def test_l2_round_rdp_spot(rr_table):
    def per_round(m_constant, sens, alphas=DEFAULT_ALPHAS):
        mech = InterpolatedMechanism(rr_table, fisher_m=m_constant)
        return imvu_ledger(mech, "rdp", sens, alphas=alphas).per_round

    eps_alphas = per_round(1.20695, 0.1, alphas=[2.0])
    assert eps_alphas[0] == pytest.approx(0.0120695, abs=1e-7)
    assert np.all(per_round(1.20695, 0.0) == 0.0)
    doubled_alpha = per_round(1.0, 1.0, alphas=[2.0, 4.0])
    assert doubled_alpha[1] == pytest.approx(2 * doubled_alpha[0])
    doubled_c = per_round(1.0, 2.0, alphas=[2.0])
    assert doubled_c[0] == pytest.approx(4 * per_round(1.0, 1.0, alphas=[2.0])[0])
    with pytest.raises(ValueError):
        per_round(1.0, 1.0, alphas=[1.0])


@pytest.mark.parametrize("mode", ["PURE", "Pure", "l1", "", None])
def test_imvu_ledger_rejects_an_unknown_mode(rr_table, mode):
    mech = attach_accounting(_mech(rr_table))
    with pytest.raises(ValueError, match="mode must be 'pure' or 'rdp'"):
        imvu_ledger(mech, mode, 1.0)


@pytest.mark.parametrize("sens", [np.nan, np.inf, -0.5, True, "1"])
def test_imvu_ledger_rejects_a_sensitivity_that_is_not_a_non_negative_real(rr_table, sens):
    mech = attach_accounting(_mech(rr_table))
    for mode in ("pure", "rdp"):
        with pytest.raises(ValueError, match="sensitivity must be a non-negative real"):
            imvu_ledger(mech, mode, sens)


def test_rdp_bound_certifies_exact_renyi(rr_table):
    # the frozen oracle value for D_2 between x=0.5 and x=0.6 on the
    # one-bit table, computed by direct log-domain enumeration
    m_value, _ = fisher_sup(rr_table)
    d2 = exact_renyi(pmf(rr_table, 0.5), pmf(rr_table, 0.6), 2.0)
    assert d2 == pytest.approx(0.0120452887, abs=1e-8)
    mech = attach_accounting(_mech(rr_table, "l2"))
    assert mech.fisher_m == m_value
    bound = float(imvu_ledger(mech, "rdp", 0.1, alphas=[2.0]).per_round[0])
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
    m_value, _ = fisher_sup(rr_table)
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
    ledger = PrivacyLedger(0.25)
    assert ledger.mode == "pure"
    assert compose(ledger, 100) == 25.0
    assert compose(ledger, 1) == 0.25
    assert compose(ledger, 0) == 0.0


def test_compose_rdp_vector():
    alphas = (1.5, 2.0, 4.0)
    ledger = PrivacyLedger(np.array([0.01, 0.02, 0.04]), alphas=alphas)
    assert ledger.mode == "rdp"
    np.testing.assert_allclose(compose(ledger, 100), [1.0, 2.0, 4.0])


def test_compose_spot_example():
    ledger = PrivacyLedger(np.array([0.01]), alphas=(2.0,))
    assert compose(ledger, 100)[0] == pytest.approx(1.0)


def test_ledger_validation():
    with pytest.raises(ValueError):
        PrivacyLedger(-0.1)
    with pytest.raises(ValueError, match="one per-round epsilon"):
        PrivacyLedger(np.array([0.1]))  # a vector needs its alphas
    with pytest.raises(ValueError):
        PrivacyLedger(0.1, delta=1.5)
    with pytest.raises(ValueError, match="one entry per alpha"):
        PrivacyLedger(0.1, alphas=(2.0,))  # a scalar with alphas
    with pytest.raises(AttributeError):
        PrivacyLedger(0.1).mode = "rdp"  # derived from alphas, never set


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1.0, 0.5])
def test_every_entry_point_rejects_an_order_that_is_not_finite_above_one(bad):
    # NaN passes ``alpha <= 1``, so each check must ask for finite orders above 1
    mech = attach_accounting(_mech(get_table(2, 2, LN3), "l2"))
    with pytest.raises(ValueError, match="alphas"):
        imvu_ledger(mech, "rdp", 1.0, alphas=[2.0, bad])
    with pytest.raises(ValueError, match="alphas"):
        PrivacyLedger(np.array([0.1, 0.2]), alphas=(2.0, bad))
    with pytest.raises(ValueError, match="alphas"):
        rdp_to_dp(np.array([0.1, 0.2]), 1e-5, alphas=[bad, 2.0])


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: PrivacyLedger(np.array([0.1, 0.2]), alphas=(4.0, 2.0)),
                 "alphas must be ascending", id="ledger-descending"),
    pytest.param(lambda: PrivacyLedger(np.array([0.1, 0.2]), alphas=(2.0, 2.0)),
                 "alphas must be ascending", id="ledger-repeated"),
    pytest.param(lambda: rdp_to_dp(np.array([0.1]), 1e-5, (2.0, 4.0)),
                 "eps_alphas must align with the alpha grid", id="rdp_to_dp-shape"),
    pytest.param(lambda: rdp_to_dp(np.array([0.1, 0.2]), 1.0, (2.0, 4.0)),
                 r"delta must lie in \(0, 1\)", id="rdp_to_dp-delta"),
    # a str delta failed the range comparison with a TypeError
    pytest.param(lambda: PrivacyLedger(1.0, "0.1"), r"^delta must lie in \(0, 1\)",
                 id="ledger-str-delta"),
])
def test_ledger_and_conversion_reject_malformed_orders_and_delta(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
def test_ledger_rejects_a_per_round_cost_that_is_not_finite_and_non_negative(bad):
    with pytest.raises(ValueError, match="per-round costs"):
        PrivacyLedger(bad)
    with pytest.raises(ValueError, match="per-round costs"):
        PrivacyLedger(np.array([0.1, bad]), alphas=(2.0, 4.0))


@pytest.mark.parametrize("bad", [np.nan, -0.1])
def test_rdp_to_dp_rejects_a_nan_or_negative_cost(bad):
    # a NaN entry never wins argmin's comparisons, so it came back as the minimum
    with pytest.raises(ValueError, match="eps_alphas must be non-negative"):
        rdp_to_dp(np.array([bad, 1.0]), 1e-5, (2.0, 4.0))


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
    ledger = PrivacyLedger(0.3)
    expected = 0.3 * np.arange(1, 18)
    np.testing.assert_array_equal([spent_epsilon(ledger, t) for t in range(1, 18)], expected)


@pytest.mark.parametrize("ledger", [
    PrivacyLedger(0.5),
    PrivacyLedger(np.asarray(DEFAULT_ALPHAS) * 0.001, alphas=DEFAULT_ALPHAS),
])
def test_spent_epsilon_rejects_negative_rounds(ledger):
    # composition is t times the per-round cost, negative for negative t
    with pytest.raises(ValueError, match="rounds must be non-negative"):
        spent_epsilon(ledger, -3)
    with pytest.raises(ValueError, match="rounds must be non-negative"):
        compose(ledger, -3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 2.5, -1, pytest.param(10**400, id="10**400"),
                                 True, pytest.param(np.True_, id="np.True_")])
def test_ledger_and_spent_epsilon_reject_rounds_that_are_not_a_count(bad):
    # NaN passes ``rounds < 0``: the ledger composed to 1.25 over 2.5 rounds;
    # 10**400 overflowed the product, and True composed one round
    ledger = PrivacyLedger(0.5)
    with pytest.raises(ValueError, match="rounds must be non-negative and integral"):
        compose(ledger, bad)
    with pytest.raises(ValueError, match="rounds must be non-negative and integral"):
        spent_epsilon(ledger, bad)
    assert spent_epsilon(ledger, np.int64(3)) == 1.5
    assert spent_epsilon(ledger, 2.0) == 1.0


def test_spent_trajectory_rdp_non_decreasing():
    ledger = PrivacyLedger(np.asarray(DEFAULT_ALPHAS) * 0.001, alphas=DEFAULT_ALPHAS)
    traj = [spent_epsilon(ledger, t) for t in range(1, 26)]
    assert np.all(np.diff(traj) >= 0)


def test_spent_epsilon_is_the_composed_ledger_converted_once():
    alphas = (1.5, 2.0, 4.0)
    ledger = PrivacyLedger(np.array([0.01, 0.02, 0.04]), delta=1e-6, alphas=alphas)
    for t in (0, 1, 37):
        assert spent_epsilon(ledger, t) == rdp_to_dp(compose(ledger, t), 1e-6, alphas)[0]
        assert spent_epsilon(PrivacyLedger(0.3), t) == compose(PrivacyLedger(0.3), t)


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


# sha256 of json.dumps(report, sort_keys=True), recorded before the ledger held
# one round: a pure 4x4 table at l1 and a symmetrized rdp 2x4 table at l2.  The
# rdp digests were recorded when certifying M took 170 evaluations; the early
# certificate takes 1, which moves each rdp digest to the one below and no
# other byte: setting the count back to 170 gives the recorded digest again.
_EARLY_CERTIFICATE_DIGESTS = {
    "c2c2c726e503936c74923898a62002bf85f3aa2e8edd371b5cdebd41ef5d27a6":
        "828390de50019bf5d4098d5f21172e79d59cf551394d21802b61da89c2ecc9b4",
    "8bcef0ebce951dd8f1af71e848aeb433936cefb28b822ac05a9d143aae99d9da":
        "cfccb2814b271331766cfb5b2ab9c9c44481467162bc0dcd89000fa272173860",
    "f7813c637f20877c34faa4e47113331c9f8bceee1e246acb7c69990be108c09e":
        "23cb349ed57a9a560415e39b7323e0505425ec2ead22895fef8fe01da0f6705c",
}


# The pure digests a test is named by were recorded on the 4x4 table the full
# LP designed; the mirror quotient designs an anadromic 4x4 table, whose
# reports have the digests below.
_QUOTIENT_DIGESTS = {
    "5ef78e7db00dd81a702adf231423a4ba3586f379321d90b5a69ff40f986a236e":
        "1ee33e3c9faba67a8e56fd008bf082a8140e1240028389c0fbc3319ea1e910f2",
    "a8c74c5abd7c224886effe3ba3bfe9715d7775957edb6cc82b9cd56443369873":
        "a776bb186f92bbb8803e87afdd979ad5bc715fb9dc551e3aaa29f3d592c7ca73",
    "424b49ac31f7e1b5eba5b345ef0cfd7211bad6c3aeef1f2d952e72511f83801d":
        "f1a7116e71292d8f08fcffc86d2a5f6e082b30f8e83937b10bedb81b9488b36e",
}


@pytest.mark.parametrize("mode, rounds, digest", [
    ("pure", 0, "5ef78e7db00dd81a702adf231423a4ba3586f379321d90b5a69ff40f986a236e"),
    ("pure", 1, "a8c74c5abd7c224886effe3ba3bfe9715d7775957edb6cc82b9cd56443369873"),
    ("pure", 37, "424b49ac31f7e1b5eba5b345ef0cfd7211bad6c3aeef1f2d952e72511f83801d"),
    ("rdp", 0, "c2c2c726e503936c74923898a62002bf85f3aa2e8edd371b5cdebd41ef5d27a6"),
    ("rdp", 1, "8bcef0ebce951dd8f1af71e848aeb433936cefb28b822ac05a9d143aae99d9da"),
    ("rdp", 37, "f7813c637f20877c34faa4e47113331c9f8bceee1e246acb7c69990be108c09e"),
])
def test_accounting_report_bytes(mode, rounds, digest):
    if mode == "pure":
        report = accounting_report("t4x4.json", _mech(get_table(4, 4, 2.0)), mode, rounds)
    else:
        mech = _mech(get_table(2, 4, 2.0, symmetrize=True), norm="l2")
        report = accounting_report("t2x4.json", mech, mode, rounds, c_sens=0.7)

    def sha256():
        return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()

    if mode == "pure":
        assert sha256() == _QUOTIENT_DIGESTS[digest]
        return
    assert report["certification"]["evaluations"] == 1
    assert sha256() == _EARLY_CERTIFICATE_DIGESTS[digest]
    report["certification"]["evaluations"] = 170
    assert sha256() == digest


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
