"""Sweep and distributed-mean-estimation harness."""

import io

import numpy as np
import pytest

from imvu import (
    BaselineConfig,
    ClipConfig,
    InterpolatedMechanism,
    dme_mse,
    gaussian_inputs,
    privatizer,
    sweep_bias_variance,
)

from conftest import get_table


@pytest.fixture(scope="module")
def fig2_tables():
    return [get_table(b_in, 8, 5.0) for b_in in (2, 4, 8)]


def test_sweep_mvu_unbiased(fig2_tables):
    report = sweep_bias_variance(fig2_tables, eps=5.0)
    for b_in in (2, 4, 8):
        assert report.max_abs_bias("mvu", b_in) <= 1e-6


def test_sweep_imvu_bias_shrinks_with_grid(fig2_tables):
    report = sweep_bias_variance(fig2_tables, eps=5.0)
    biases = [report.max_abs_bias("imvu", b_in) for b_in in (2, 4, 8)]
    assert biases[0] > biases[1] > biases[2]


def test_sweep_laplace_reference(fig2_tables):
    report = sweep_bias_variance(fig2_tables, eps=5.0)
    assert report.laplace_variance == pytest.approx(0.08)


def test_sweep_variance_comparable_to_laplace(fig2_tables):
    report = sweep_bias_variance(fig2_tables, eps=5.0)
    assert report.variances("imvu", 8).max() <= 2.0 * report.laplace_variance


def test_sweep_deterministic_and_complete(fig2_tables):
    r1 = sweep_bias_variance(fig2_tables, eps=5.0)
    r2 = sweep_bias_variance(fig2_tables, eps=5.0)
    assert r1.rows == r2.rows
    assert len(r1.rows) == 3 * 2 * 201  # tables x mechanisms x grid points
    xs = sorted({row.x for row in r1.rows})
    assert xs[0] == 0.0 and xs[-1] == 1.0 and len(xs) == 201


def test_sweep_bias_definition(fig2_tables):
    report = sweep_bias_variance(fig2_tables, eps=5.0)
    for row in report.rows[:50]:
        assert row.bias == row.mean - row.x


def test_sweep_csv_format(fig2_tables):
    report = sweep_bias_variance(fig2_tables[:1], eps=5.0)
    buf = io.StringIO()
    report.to_csv(buf)
    text = buf.getvalue()
    lines = text.strip().splitlines()
    assert lines[0] == "mechanism,b_in,x,mean,bias,variance,laplace_ref"
    assert len(lines) == 1 + 2 * 201


def test_sweep_rejects_mismatched_tables():
    with pytest.raises(ValueError):
        sweep_bias_variance([get_table(2, 8, 5.0), get_table(2, 4, 5.0)], eps=5.0)
    with pytest.raises(ValueError):
        sweep_bias_variance([get_table(2, 8, 5.0)], eps=1.0)
    with pytest.raises(ValueError, match="need at least one table"):
        sweep_bias_variance([], eps=1.0)


# ---------------------------------------------------------------------------
# dme
# ---------------------------------------------------------------------------


def test_dme_identity_zero_error():
    # identity's privatizer is its clip, as privatizer("identity", clip) returns it
    rng = np.random.default_rng(0)
    cfg = privatizer("identity", ClipConfig("l1", 100.0))
    mse, bits = dme_mse(50, 8, gaussian_inputs(0.1), "identity", cfg, rng, trials=3)
    assert mse == 0.0
    assert bits == 32.0


def test_dme_identity_with_clip_zero_error_inside_ball():
    rng = np.random.default_rng(1)
    cfg = ClipConfig("l2", 100.0)
    mse, _ = dme_mse(50, 8, gaussian_inputs(0.1), "identity", cfg, rng, trials=3)
    assert mse == 0.0


@pytest.mark.parametrize("clip_norm", ["l1", "l2"])
def test_dme_identity_rejects_a_non_finite_input(clip_norm):
    def with_inf(rng, n, d):
        u = rng.normal(0.0, 0.1, size=(n, d))
        u[n // 2, d - 1] = np.inf
        return u

    with pytest.raises(ValueError, match="inputs must be finite"):
        dme_mse(5, 8, with_inf, "identity", ClipConfig(clip_norm, 1.0),
                np.random.default_rng(3))


def test_dme_mse_scales_inversely_with_clients():
    # unbiased gaussian baseline: per-coordinate error of the mean of n
    # clients is (sigma C)^2 / n
    cfg = BaselineConfig("gaussian", ClipConfig("l2", 1.0), 1.0)
    rng = np.random.default_rng(3)
    for n in (10, 100, 1000):
        mse, bits = dme_mse(n, 16, gaussian_inputs(0.05), "gaussian", cfg, rng, trials=120)
        analytic = 1.0 / n
        assert mse == pytest.approx(analytic, rel=0.2)
        assert bits == 32.0


def test_dme_imvu_bits(table_2x4, rr_table):
    rng = np.random.default_rng(4)
    mech = InterpolatedMechanism(rr_table, beta=1.0, clip=ClipConfig("l2", 1.0))
    _, bits = dme_mse(10, 4, gaussian_inputs(0.1), "imvu", mech, rng, trials=2)
    assert bits == 1.0
    mech4 = InterpolatedMechanism(table_2x4, beta=1.0, clip=ClipConfig("l2", 1.0))
    _, bits4 = dme_mse(10, 4, gaussian_inputs(0.1), "imvu", mech4, rng, trials=2)
    assert bits4 == 2.0


def test_dme_signsgd_bits():
    cfg = BaselineConfig("signsgd", ClipConfig("l2", 1.0), 1.0)
    rng = np.random.default_rng(5)
    _, bits = dme_mse(10, 4, gaussian_inputs(0.1), "signsgd", cfg, rng, trials=2)
    assert bits == 1.0


def test_dme_imvu_error_shrinks_with_clients(rr_table):
    mech = InterpolatedMechanism(rr_table, beta=1.0, clip=ClipConfig("l2", 1.0))
    rng = np.random.default_rng(6)
    mse_small, _ = dme_mse(5, 8, gaussian_inputs(0.05), "imvu", mech, rng, trials=60)
    mse_large, _ = dme_mse(500, 8, gaussian_inputs(0.05), "imvu", mech, rng, trials=60)
    assert mse_large < mse_small / 10


@pytest.mark.parametrize("field, value", [
    ("n_clients", 2.5), ("n_clients", True), ("d", 2.5), ("d", "4"), ("trials", 1.5),
    ("trials", True),
])
def test_dme_rejects_a_count_that_is_not_an_integer(field, value):
    # these failed inside numpy, with a TypeError
    counts = {"n_clients": 3, "d": 4, "trials": 2, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        dme_mse(counts["n_clients"], counts["d"], gaussian_inputs(), "identity",
                ClipConfig("l2", 1.0), np.random.default_rng(0), trials=counts["trials"])
    dme_mse(np.int64(3), np.int32(4), gaussian_inputs(), "identity", ClipConfig("l2", 1.0),
            np.random.default_rng(0), trials=np.uint8(2))


def test_dme_input_validation():
    clip = ClipConfig("l2", 1.0)
    with pytest.raises(ValueError, match="^n_clients must be at least 1, got 0$"):
        dme_mse(0, 4, gaussian_inputs(), "identity", clip, np.random.default_rng(0))
    with pytest.raises(ValueError, match="^trials must be at least 1, got 0$"):
        dme_mse(5, 4, gaussian_inputs(), "identity", clip, np.random.default_rng(0), trials=0)
    # an empty vector has no mean to estimate
    laplace = BaselineConfig("laplace", ClipConfig("l1", 1.0), 1.0)
    for kind, priv in (("identity", clip), ("laplace", laplace)):
        with pytest.raises(ValueError, match="^d must be at least 1, got 0$"):
            dme_mse(5, 0, gaussian_inputs(), kind, priv, np.random.default_rng(0))
    with pytest.raises(ValueError):
        dme_mse(5, 4, gaussian_inputs(), "imvu", None, np.random.default_rng(0))
    with pytest.raises(ValueError):
        dme_mse(5, 4, gaussian_inputs(), "warp", None, np.random.default_rng(0))
    # the config names the kind the sampler draws, so it must match the harness's
    signsgd = BaselineConfig("signsgd", clip, 1.0)
    with pytest.raises(ValueError, match="kind 'gaussian' does not match the privatizer's 'signsgd'"):
        dme_mse(5, 4, gaussian_inputs(), "gaussian", signsgd, np.random.default_rng(0))
    with pytest.raises(ValueError, match="kind 'imvu' does not match the privatizer's 'identity'"):
        dme_mse(5, 4, gaussian_inputs(), "imvu", clip, np.random.default_rng(0))
    with pytest.raises(ValueError, match="kind 'identity' does not match the privatizer's 'signsgd'"):
        dme_mse(5, 4, gaussian_inputs(), "identity", signsgd, np.random.default_rng(0))
