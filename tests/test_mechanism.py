"""Core sampler contracts: interpolation, dithering, clipping, privatization."""

import math
import tracemalloc

import numpy as np
import pytest

from imvu import (
    ClipConfig,
    InterpolatedMechanism,
    MechanismTable,
    TableInvariantError,
    clip,
    decode,
    interpolate_eta,
    log_pmf,
    moments,
    mvu_dither_moments,
    mvu_dither_pmf,
    pmf,
    privatize_vector,
    sample_batch,
    scale_input,
)
from imvu.mechanism import MAX_TABLE_CELLS, table_violations
from imvu.rng import COORD_CHUNK, coordinate_uniforms

from conftest import LN3, get_table


def _mech(table, norm="l2", c=1.0, beta=1.0):
    return InterpolatedMechanism(table, beta=beta, clip=ClipConfig(norm, c))


# ---------------------------------------------------------------------------
# table construction invariants
# ---------------------------------------------------------------------------


def test_natural_params_equals_log_probs(rr_table):
    eta = rr_table.log_probs.copy()
    assert np.array_equal(eta, rr_table.log_probs)
    # log evaluation spot: rows are (0.75, 0.25) / (0.25, 0.75)
    assert eta[0, 0] == pytest.approx(-0.2876820724517809, abs=1e-6)
    assert eta[0, 1] == pytest.approx(-1.3862943611198906, abs=1e-6)
    # returned matrix is a copy, not a view of the stored rows
    eta[0, 0] = 0.0
    assert rr_table.log_probs[0, 0] != 0.0


def test_zero_probability_rejected():
    with pytest.raises(TableInvariantError) as err:
        MechanismTable(
            alphabet=[-0.5, 1.5],
            log_probs=np.log(np.array([[1.0, 1e-300], [0.25, 0.75]]) + 0.0),
            design_eps=LN3,
        )
    assert err.value.check in ("metric_dp", "unbiasedness", "simplex")


def test_invalid_row_sum_rejected():
    with pytest.raises(TableInvariantError) as err:
        MechanismTable(
            alphabet=[-0.5, 1.5],
            log_probs=np.log([[0.7, 0.25], [0.25, 0.75]]),
            design_eps=LN3,
        )
    assert err.value.check in ("simplex", "unbiasedness")


@pytest.mark.parametrize("letter", [np.nan, np.inf, -np.inf])
def test_letter_that_is_not_finite_rejected(rr_table, letter):
    # a NaN letter passes an ascent check and makes every row mean NaN
    alphabet = rr_table.alphabet.copy()
    alphabet[1] = letter
    with pytest.raises(TableInvariantError, match="letter 1 is not finite") as err:
        MechanismTable(alphabet, rr_table.log_probs, rr_table.design_eps)
    assert err.value.check == "alphabet_order" and err.value.violation == np.inf
    checks = table_violations(alphabet, rr_table.design_eps, rr_table.log_probs)
    assert not checks["alphabet_order"][0] <= 1e-6


@pytest.mark.parametrize("eps", [True, "2.0"])
def test_design_eps_that_is_not_a_real_number_rejected(rr_table, eps):
    # a bool passed as a positive number, and the saved file was then rejected
    with pytest.raises(ValueError, match="design_eps must be positive and finite"):
        MechanismTable(rr_table.alphabet, rr_table.log_probs, eps)


@pytest.mark.parametrize("shape", [(2, MAX_TABLE_CELLS // 2 + 1), (MAX_TABLE_CELLS // 2 + 1, 2)])
def test_table_over_the_cell_limit_rejected_before_the_pair_check(shape):
    # nothing of the table's size is held before the cell limit is checked
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"limited to {MAX_TABLE_CELLS}") as err:
            MechanismTable(np.linspace(-1.0, 2.0, shape[1]), np.full(shape, -np.log(shape[1])), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert type(err.value) is ValueError
    assert peak < 2**20


def test_metric_dp_check_holds_one_row_of_pairs_at_a_time():
    # 2048 x 2 is at the cell limit; all pairs at once would hold about 100 MB
    b_in = MAX_TABLE_CELLS // 2
    p1 = 0.25 + 0.5 * np.arange(b_in) / (b_in - 1)
    log_probs = np.log(np.stack([1.0 - p1, p1], axis=1))
    tracemalloc.start()
    try:
        checks = table_violations([-0.5, 1.5], 4.0, log_probs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checks["metric_dp"] == (0.0, "")
    assert peak < 2 * 2**20


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda t: ClipConfig("linf", 1.0), "clip norm must be 'l1' or 'l2'", id="clip-norm"),
    pytest.param(lambda t: ClipConfig("l2", 0.0), "clip_c must be positive", id="clip_c"),
    # scale_input and decode read C and beta from here, unchecked: a NaN
    # would pass a ``v <= 0`` test, and an infinite clip maps every input to 1/2
    pytest.param(lambda t: ClipConfig("l2", np.nan), "clip_c must be positive", id="clip_c-nan"),
    pytest.param(lambda t: ClipConfig("l2", np.inf), "clip_c must be positive", id="clip_c-inf"),
    pytest.param(lambda t: ClipConfig("l2", -1.0), "clip_c must be positive",
                 id="clip_c-negative"),
    pytest.param(lambda t: ClipConfig("l2", True), "clip_c must be positive", id="clip_c-bool"),
    pytest.param(lambda t: ClipConfig("l2", "1"), "clip_c must be positive", id="clip_c-str"),
    pytest.param(lambda t: MechanismTable(t.alphabet, t.log_probs, 0.0), "design_eps must be",
                 id="design_eps"),
    pytest.param(lambda t: table_violations(t.alphabet, 1.0, t.log_probs[0]),
                 r"log_probs must be a \(b_in, b_out\) array", id="log_probs-1d"),
    pytest.param(lambda t: table_violations(t.alphabet[:1], 1.0, t.log_probs[:, :1]),
                 r"log_probs must be a \(b_in, b_out\) array", id="log_probs-one-letter"),
    pytest.param(lambda t: table_violations(t.alphabet[:1], 1.0, t.log_probs),
                 r"alphabet must have shape \(2,\)", id="alphabet-shape"),
    pytest.param(lambda t: InterpolatedMechanism(t, beta=0.0), "beta must be", id="beta"),
    pytest.param(lambda t: InterpolatedMechanism(t, beta=np.nan), "beta must be", id="beta-nan"),
    pytest.param(lambda t: InterpolatedMechanism(t, beta=np.inf), "beta must be", id="beta-inf"),
    pytest.param(lambda t: InterpolatedMechanism(t, beta=-1.0), "beta must be",
                 id="beta-negative"),
    pytest.param(lambda t: InterpolatedMechanism(t, beta=True), "beta must be", id="beta-bool"),
    pytest.param(lambda t: InterpolatedMechanism(t, beta="1"), "beta must be", id="beta-str"),
    pytest.param(lambda t: InterpolatedMechanism(t, eps_prime=np.nan), "eps_prime must be",
                 id="eps_prime"),
    pytest.param(lambda t: InterpolatedMechanism(t, eps_prime=False), "eps_prime must be",
                 id="eps_prime-bool"),
    pytest.param(lambda t: InterpolatedMechanism(t, eps_prime="0"), "eps_prime must be",
                 id="eps_prime-str"),
    pytest.param(lambda t: InterpolatedMechanism(get_table(3, 2, 1.0), fisher_m=1.0),
                 "fisher_m is only defined for tables with b_in=2", id="fisher_m-three-rows"),
    pytest.param(lambda t: InterpolatedMechanism(t, fisher_m=np.inf), "fisher_m must be",
                 id="fisher_m-inf"),
    pytest.param(lambda t: InterpolatedMechanism(t, fisher_m=True), "fisher_m must be",
                 id="fisher_m-bool"),
    pytest.param(lambda t: InterpolatedMechanism(t, fisher_m="1"), "fisher_m must be",
                 id="fisher_m-str"),
    pytest.param(lambda t: clip(np.zeros((2, 2, 2)), ClipConfig("l2", 1.0)),
                 r"u must be a vector or an \(n, d\) array", id="clip-3d"),
    # a bool seed would draw seed 1's (or 0's) indices
    pytest.param(lambda t: privatize_vector(_mech(t), np.zeros(4), True), "integer seed",
                 id="privatize-bool-seed"),
    pytest.param(lambda t: privatize_vector(_mech(t), np.zeros((2, 4)), [0, True]),
                 "integer seeds", id="privatize-bool-seeds"),
    pytest.param(lambda t: privatize_vector(_mech(t), np.zeros(4), 0, (0, 5)),
                 r"coordinate range \[0, 5\) out of bounds for dim 4", id="privatize-range"),
    pytest.param(lambda t: privatize_vector(_mech(t), np.zeros(4), 0, (3, 2)),
                 r"coordinate range \[3, 2\) out of bounds", id="privatize-reversed-range"),
    pytest.param(lambda t: coordinate_uniforms(0, 2, 5, 4),
                 r"coordinate range \[2, 5\) out of bounds for dim 4", id="uniforms-range"),
    # a bool or numeric-string x drew at x = 1.0 or 0.3, and a bool n failed
    # inside numpy with a TypeError
    pytest.param(lambda t: sample_batch(t, True, 5, np.random.default_rng(0)),
                 "^x must be a finite real", id="sample-bool-x"),
    pytest.param(lambda t: sample_batch(t, "0.3", 5, np.random.default_rng(0)),
                 "^x must be a finite real", id="sample-str-x"),
    pytest.param(lambda t: sample_batch(t, np.nan, 5, np.random.default_rng(0)),
                 "^x must be a finite real", id="sample-nan-x"),
    pytest.param(lambda t: sample_batch(t, 0.3, True, np.random.default_rng(0)),
                 "^n must be an integer", id="sample-bool-n"),
    pytest.param(lambda t: sample_batch(t, 0.3, 5.0, np.random.default_rng(0)),
                 "^n must be an integer", id="sample-float-n"),
])
def test_rejects_an_argument_out_of_its_domain(rr_table, call, match):
    with pytest.raises(ValueError, match=match) as err:
        call(rr_table)
    assert type(err.value) is ValueError


@pytest.mark.parametrize("start, stop", [(True, 4), (0, True), (0.0, 4), (1, 4.0), ("1", 4)])
def test_coordinate_range_endpoints_are_integers(rr_table, start, stop):
    # a bool endpoint read as 0 or 1 and sampled another range's coordinates,
    # and a float one failed inside numpy with a TypeError
    with pytest.raises(ValueError, match="coordinate range") as err:
        privatize_vector(_mech(rr_table), np.zeros(7), 7, (start, stop))
    assert type(err.value) is ValueError
    with pytest.raises(ValueError, match="coordinate range") as err:
        coordinate_uniforms(7, start, stop, 10)
    assert type(err.value) is ValueError


def test_coordinate_range_takes_numpy_integers(rr_table):
    u = np.linspace(-0.1, 0.1, 7)
    got = privatize_vector(_mech(rr_table), u, 7, (np.int64(1), np.int32(4)))
    want = privatize_vector(_mech(rr_table), u, 7, (1, 4))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(coordinate_uniforms(7, np.int64(1), np.uint8(3), np.int32(10)),
                          coordinate_uniforms(7, 1, 3, 10))


def test_table_arrays_immutable(rr_table):
    with pytest.raises(ValueError):
        rr_table.log_probs[0, 0] = 1.0


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def test_interpolate_eta_grid_endpoints(rr_table):
    assert np.array_equal(interpolate_eta(rr_table, 0.0), rr_table.log_probs[0])
    assert np.array_equal(interpolate_eta(rr_table, 1.0), rr_table.log_probs[1])


def test_interpolate_eta_midpoint(rr_table):
    eta = interpolate_eta(rr_table, 0.5)
    expected = 0.5 * (rr_table.log_probs[0] + rr_table.log_probs[1])
    np.testing.assert_allclose(eta, expected, atol=1e-15)


def test_interpolate_eta_linear_extrapolation(rr_table):
    eta = interpolate_eta(rr_table, -1.0)
    expected = 2.0 * rr_table.log_probs[0] - rr_table.log_probs[1]
    np.testing.assert_allclose(eta, expected, atol=1e-12)


def test_interpolate_eta_rejects_non_finite(rr_table):
    with pytest.raises(ValueError):
        interpolate_eta(rr_table, np.nan)
    with pytest.raises(ValueError):
        interpolate_eta(rr_table, np.inf)


@pytest.mark.parametrize("evaluate", [pmf, log_pmf, mvu_dither_pmf])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluators_reject_non_finite(rr_table, evaluate, bad):
    # the sampler skips this check per block; the public evaluators keep it
    with pytest.raises(ValueError, match="finite"):
        evaluate(rr_table, bad)
    with pytest.raises(ValueError, match="finite"):
        evaluate(rr_table, np.array([0.5, bad]))


def test_interpolation_affine_within_interval(table_2x4):
    # eta is affine on each interval, so midpoints must average exactly
    rng = np.random.default_rng(3)
    for _ in range(50):
        x1, x2 = np.sort(rng.uniform(-2.0, 3.0, size=2))
        mid = 0.5 * (x1 + x2)
        np.testing.assert_allclose(
            interpolate_eta(table_2x4, mid),
            0.5 * (interpolate_eta(table_2x4, x1) + interpolate_eta(table_2x4, x2)),
            atol=1e-10,
        )


# ---------------------------------------------------------------------------
# pmf / log pmf
# ---------------------------------------------------------------------------


def test_pmf_at_grid_points_matches_rows(table_factory):
    for b_in, b_out, eps in ((2, 2, LN3), (4, 8, 5.0), (8, 4, 1.0)):
        table = table_factory(b_in, b_out, eps)
        p = pmf(table, table.grid)
        np.testing.assert_allclose(p, table.probs, atol=1e-12)


def test_pmf_interior_value_vs_sigmoid_oracle(rr_table):
    # for the two-letter table the interpolated pmf is a sigmoid in x:
    # p2(x) = 1 / (1 + exp(-(2x-1) ln 3)); evaluated by hand, not via pmf()
    x = 0.6
    expected_p2 = 1.0 / (1.0 + np.exp(-(2 * x - 1) * LN3))
    p = pmf(rr_table, x)
    assert p[1] == pytest.approx(expected_p2, abs=1e-9)
    assert p[0] == pytest.approx(1.0 - expected_p2, abs=1e-9)
    assert p[1] == pytest.approx(0.55471, abs=1e-5)


def test_pmf_normalized_and_positive_far_outside(table_2x4):
    xs = np.linspace(-50.0, 51.0, 777)
    p = pmf(table_2x4, xs)
    assert np.all(p > 0.0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_log_pmf_finite_at_extreme_inputs(table_2x4):
    lp = log_pmf(table_2x4, np.array([-40.0, -5.0, 0.2, 7.0, 40.0]))
    assert np.all(np.isfinite(lp))
    # log-domain values agree with the linear pmf where the latter has mass
    p = pmf(table_2x4, 0.2)
    np.testing.assert_allclose(np.exp(log_pmf(table_2x4, 0.2)), p, rtol=1e-12)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_moments_rr_closed_form(rr_table):
    mean, var = moments(rr_table, 0.0)
    assert mean == pytest.approx(0.0, abs=1e-6)
    assert var == pytest.approx(0.75, abs=1e-6)


def test_moments_unbiased_at_grid(table_factory):
    table = table_factory(4, 4, 1.0)
    means, variances = moments(table, table.grid)
    np.testing.assert_allclose(means, table.grid, atol=1e-6)
    assert np.all(variances >= 0.0)


def test_variance_nonnegative_everywhere(table_2x4):
    _, var = moments(table_2x4, np.linspace(-3, 4, 301))
    assert np.all(var >= 0.0)


def test_variance_is_the_sum_of_squared_deviations():
    # the rows' means reach 1 against a variance near 1e-11, where
    # E[a^2] - mean^2 lost about 2e-5 relative
    table = get_table(2, 16, 40.0)
    _, var = moments(table, table.grid)
    for p, v in zip(pmf(table, table.grid), var):
        mean = math.fsum(p * table.alphabet)
        exact = math.fsum(p * (table.alphabet - mean) ** 2)
        assert abs(v - exact) <= 4 * np.spacing(exact)


# ---------------------------------------------------------------------------
# dithering
# ---------------------------------------------------------------------------


def test_dither_pmf_at_grid_points(table_factory):
    table = table_factory(4, 4, 1.0)
    np.testing.assert_allclose(mvu_dither_pmf(table, table.grid), table.probs, atol=1e-15)


def test_dither_pmf_convex_combination(rr_table):
    p = mvu_dither_pmf(rr_table, 0.3)
    expected = 0.7 * rr_table.probs[0] + 0.3 * rr_table.probs[1]
    np.testing.assert_allclose(p, expected, atol=1e-15)


def test_dither_unbiased_on_unit_interval(table_factory):
    for b_in in (2, 4, 8):
        table = table_factory(b_in, 4, 1.0)
        xs = np.linspace(0.0, 1.0, 201)
        mean, _ = mvu_dither_moments(table, xs)
        np.testing.assert_allclose(mean, xs, atol=1e-6)


def test_dither_rejects_outside_unit_interval(rr_table):
    with pytest.raises(ValueError):
        mvu_dither_pmf(rr_table, 1.2)
    with pytest.raises(ValueError):
        mvu_dither_pmf(rr_table, -0.1)


# ---------------------------------------------------------------------------
# clip / scale / decode
# ---------------------------------------------------------------------------


def test_clip_l2_scales_to_radius():
    u = np.array([3.0, 4.0])  # norm 5
    out = clip(u, ClipConfig("l2", 2.5))
    assert np.linalg.norm(out) == pytest.approx(2.5, abs=1e-12)
    np.testing.assert_allclose(out, u / 2.0)


def test_clip_inside_ball_unchanged():
    u = np.array([0.1, -0.2, 0.05])
    out = clip(u, ClipConfig("l1", 1.0))
    assert np.array_equal(out, u)


def test_clip_zero_vector():
    assert np.array_equal(clip(np.zeros(4), ClipConfig("l2", 1.0)), np.zeros(4))


def test_clip_l1_norm_bound():
    rng = np.random.default_rng(0)
    for _ in range(100):
        u = rng.normal(size=8) * rng.uniform(0.1, 10)
        out = clip(u, ClipConfig("l1", 1.5))
        assert np.abs(out).sum() <= 1.5 + 1e-12


@pytest.mark.parametrize(
    "norm, u",
    [
        ("l2", [1e300, 1.0]),
        ("l2", [1.5e308, -1.5e308, 1e308]),  # true norm above the float maximum
        ("l1", [1e308, 1e308]),              # true norm above the float maximum
        ("l1", [1e300, -3.0, 2e299]),
    ],
)
def test_clip_huge_finite_input_keeps_direction(norm, u):
    # the norm of these vectors overflows; clipping must neither warn nor
    # collapse them to 0
    u = np.array(u)
    for c in (1.0, 2.5):
        out = clip(u, ClipConfig(norm, c))
        assert np.all(np.isfinite(out))
        measured = np.linalg.norm(out, ord=1 if norm == "l1" else 2)
        assert measured == pytest.approx(c, rel=1e-12)
        np.testing.assert_allclose(out / np.max(np.abs(out)), u / np.max(np.abs(u)),
                                   rtol=1e-12, atol=0.0)


def test_scale_input_values(rr_table):
    assert scale_input(0.0, _mech(rr_table)) == 0.5
    assert scale_input(1.0, _mech(rr_table)) == 1.0
    assert scale_input(-1.0, _mech(rr_table, beta=8.0)) == -3.5


def test_decode_values(rr_table):
    assert decode(0.5, _mech(rr_table)) == 0.0
    assert decode(1.0, _mech(rr_table)) == 1.0


def test_scale_decode_roundtrip(rr_table):
    rng = np.random.default_rng(1)
    for _ in range(100):
        c = rng.uniform(0.1, 9.0)
        beta = rng.uniform(0.2, 16.0)
        u = rng.uniform(-c, c)
        mech = _mech(rr_table, c=c, beta=beta)
        assert abs(decode(scale_input(u, mech), mech) - u) <= 1e-12 * c


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_deterministic_under_seed(rr_table):
    mech = _mech(rr_table)
    seq1 = sample_batch(mech.table, 0.3, 1000, np.random.default_rng(9))
    seq2 = sample_batch(mech.table, 0.3, 1000, np.random.default_rng(9))
    assert np.array_equal(seq1, seq2)


def test_sample_batch_takes_numpy_numbers(table_2x4):
    want = sample_batch(table_2x4, 0.3, 50, np.random.default_rng(9))
    got = sample_batch(table_2x4, np.float64(0.3), np.int64(50), np.random.default_rng(9))
    assert np.array_equal(got, want)
    assert sample_batch(table_2x4, -2, 0, np.random.default_rng(9)).shape == (0,)


def test_sample_degenerate_pmf(table_2x4):
    # far in the tail the pmf concentrates on one letter
    mech = _mech(table_2x4)
    p = pmf(mech.table, 60.0)
    j_star = int(np.argmax(p))
    draws = sample_batch(mech.table, 60.0, 200, np.random.default_rng(5))
    assert np.all(draws == j_star)


def test_sample_frequencies_match_pmf(rr_table):
    mech = _mech(rr_table)
    n = 200_000
    draws = sample_batch(mech.table, 0.3, n, np.random.default_rng(11))
    p = pmf(mech.table, 0.3)
    for j in range(2):
        freq = np.mean(draws == j)
        tol = 3.0 * np.sqrt(p[j] * (1 - p[j]) / n)
        assert abs(freq - p[j]) <= tol


# ---------------------------------------------------------------------------
# vector privatization
# ---------------------------------------------------------------------------


def test_privatize_zero_vector_samples_at_half(rr_table):
    mech = _mech(rr_table, norm="l2", c=1.0)
    idx, dec = privatize_vector(mech, np.zeros(3), seed=21)
    # independent reconstruction of the pipeline at x = 0.5
    u = coordinate_uniforms(21, 0, 3, 3)
    cdf = np.cumsum(pmf(mech.table, 0.5))
    expected = np.minimum(np.searchsorted(cdf, u, side="right"), 1)
    assert np.array_equal(idx, expected)
    np.testing.assert_allclose(dec, decode(rr_table.alphabet[idx], mech))


def test_privatize_single_coordinate_matches_scalar_path(rr_table):
    mech = _mech(rr_table, norm="l1", c=2.0, beta=1.0)
    u = np.array([0.4])
    idx, dec = privatize_vector(mech, u, seed=77)
    x = scale_input(clip(u, mech.clip), mech)[0]
    uni = coordinate_uniforms(77, 0, 1, 1)[0]
    cdf = np.cumsum(pmf(mech.table, x))
    j = int(np.searchsorted(cdf, uni, side="right"))
    assert idx[0] == j
    assert dec[0] == pytest.approx(decode(rr_table.alphabet[j], mech))


def test_privatize_worker_count_invariance(table_2x4):
    mech = _mech(table_2x4, norm="l2", c=1.0, beta=4.0)
    d = 3 * COORD_CHUNK + 17
    rng = np.random.default_rng(4)
    u = rng.normal(size=d) * 0.01
    full_idx, full_dec = privatize_vector(mech, u, seed=1234)
    for n_workers in (2, 3, 5):
        bounds = [COORD_CHUNK * round(k * (d / COORD_CHUNK) / n_workers) for k in range(n_workers)]
        bounds = sorted(set(bounds + [d]))
        parts_idx, parts_dec = [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            idx, dec = privatize_vector(mech, u, seed=1234, coord_range=(lo, hi))
            parts_idx.append(idx)
            parts_dec.append(dec)
        assert np.array_equal(np.concatenate(parts_idx), full_idx)
        assert np.array_equal(np.concatenate(parts_dec), full_dec)


def test_privatize_deterministic_and_seed_sensitive(rr_table):
    mech = _mech(rr_table)
    u = np.zeros(64)  # x = 0.5, so indices are fair coin flips
    a = privatize_vector(mech, u, seed=5)
    b = privatize_vector(mech, u, seed=5)
    c = privatize_vector(mech, u, seed=6)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])


def test_privatize_marginals_match_pmf(table_2x4):
    mech = _mech(table_2x4, norm="l2", c=1.0, beta=1.0)
    u = np.array([0.5, -0.3, 0.0, 0.2, -0.45])
    x = scale_input(clip(u, mech.clip), mech)
    probs = pmf(mech.table, x)
    n = 20_000
    counts = np.zeros((u.size, table_2x4.b_out))
    for s in range(n):
        idx, _ = privatize_vector(mech, u, seed=s)
        counts[np.arange(u.size), idx] += 1
    freq = counts / n
    tol = 3.0 * np.sqrt(probs * (1 - probs) / n)
    assert np.all(np.abs(freq - probs) <= tol + 1e-12)


def test_privatize_rejects_empty_and_non_finite(rr_table):
    mech = _mech(rr_table)
    with pytest.raises(ValueError):
        privatize_vector(mech, np.array([]), seed=0)
    with pytest.raises(ValueError):
        privatize_vector(mech, np.array([np.nan]), seed=0)
