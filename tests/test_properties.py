"""Property tests: the shared interpolation kernel and sampler against their formulas.

Each reference is the formula, or the per-client loop, written out inline,
so the comparisons are exact (``np.array_equal``), not within a tolerance.
Tables come from the session cache; no LP is solved inside a hypothesis loop.
"""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imvu import (
    BaselineConfig,
    ClipConfig,
    FlConfig,
    InterpolatedMechanism,
    attach_accounting,
    dme_mse,
    fisher_info,
    generate_synthetic,
    gaussian_inputs,
    interpolate_eta,
    log_pmf,
    mvu_dither_pmf,
    pmf,
    privatize_baseline,
    privatize_vector,
    train_fl,
)
from imvu import fl
from imvu.mechanism import PROB_FLOOR, _bracket, _sample, clip
from imvu.rng import COORD_CHUNK, substream

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


def _row_major(rows, xs):
    """(lerp, probabilities, log probabilities) at xs, one (N, b_out) row per
    input: the interpolated softmax written out row-major with numpy's row
    reductions, the reference the letter-major kernel must equal bit for bit."""
    nseg = len(rows) - 1
    t = xs * nseg
    i = np.clip(np.floor(t).astype(int), 0, nseg - 1)
    frac = t - i
    eta = (1.0 - frac)[:, None] * rows[i] + frac[:, None] * rows[i + 1]
    s = eta - eta.max(axis=1, keepdims=True)
    z = np.exp(s)
    total = z.sum(axis=1, keepdims=True)
    return eta, z / total, s - np.log(total)


def _pmf_formula(table, xs):
    return _row_major(table.log_probs, xs)[1]


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


def _on_cdf_or_fresh(data, cdf_row):
    """A fresh uniform, or a value placed exactly on one of the row's cdf values."""
    on_cdf = [float(c) for c in cdf_row if c < 1.0] or [0.0]
    return data.draw(st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(on_cdf)))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_inverse_cdf_matches_searchsorted(data):
    b_in = data.draw(st.integers(2, 4))
    b_out = data.draw(st.integers(2, 16))
    n = data.draw(st.integers(1, 12))
    weights = st.floats(1e-12, 1.0, allow_nan=False, allow_infinity=False)
    w = np.array(data.draw(st.lists(st.lists(weights, min_size=b_out, max_size=b_out),
                                    min_size=b_in, max_size=b_in)))
    rows = np.log(w / w.sum(axis=1, keepdims=True))
    xs = np.array(data.draw(st.lists(st.floats(-1.0, 2.0), min_size=n, max_size=n)))
    i, t = _bracket(b_in, xs)
    probs = _row_major(rows, xs)[1]
    cdf = np.cumsum(probs, axis=1)

    us = np.array([_on_cdf_or_fresh(data, cdf[k]) for k in range(n)])
    assert np.array_equal(_sample(rows, i, t, us),
                          [_searchsorted_formula(probs[k], us[k]) for k in range(n)])
    # one input shared by every uniform, broadcast as sample_batch does
    i, t = _bracket(b_in, np.broadcast_to(xs[:1], n))
    us = np.array([_on_cdf_or_fresh(data, cdf[0]) for _ in range(n)])
    assert np.array_equal(_sample(rows, i, t, us), [_searchsorted_formula(probs[0], u) for u in us])


@PROPERTY_SETTINGS
@given(data=st.data())
def test_letter_major_kernel_matches_row_major(data):
    """pmf, log_pmf, interpolate_eta, dithering and the sampled indices of the
    letter-major kernel equal the row-major lerp, softmax, cumsum and compare
    exactly, across numpy's 128-letter sum blocks."""
    b_in = data.draw(st.integers(2, 16))
    b_out = data.draw(st.one_of(st.integers(2, 17), st.integers(2, 300)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    w = rng.random((b_in, b_out))
    # some letters sit at the probability floor, as the designer's tables do
    floor = rng.random((b_in, b_out)) < data.draw(st.sampled_from([0.0, 0.3, 0.9]))
    w[floor] = PROB_FLOOR * (1.0 + rng.random(int(floor.sum())))
    rows = np.log(w / w.sum(axis=1, keepdims=True))
    # the fields the evaluators read; the rows need not form a valid table
    table = SimpleNamespace(b_in=b_in, log_probs=rows, probs=np.exp(rows))
    grid_points = st.sampled_from([k / (b_in - 1) for k in range(b_in)])
    reals = st.floats(-3.0, 4.0, allow_nan=False, allow_infinity=False)
    xs = np.array(data.draw(st.lists(st.one_of(grid_points, reals), min_size=1, max_size=30)))
    eta, probs, logs = _row_major(rows, xs)
    cdf = np.cumsum(probs, axis=1)
    us = np.array([_on_cdf_or_fresh(data, row) for row in cdf])

    assert np.array_equal(pmf(table, xs), probs)
    assert np.array_equal(log_pmf(table, xs), logs)
    assert np.array_equal(interpolate_eta(table, xs), eta)
    inside = xs[(xs >= 0.0) & (xs <= 1.0)]
    assert np.array_equal(mvu_dither_pmf(table, inside), _row_major(table.probs, inside)[0])
    assert np.array_equal(pmf(table, float(xs[0])), probs[0])
    assert np.array_equal(_sample(rows, *_bracket(b_in, xs), us),
                          np.minimum((us[:, None] >= cdf).sum(axis=1), b_out - 1))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_cohort_privatize_matches_row_calls(prop_tables, data):
    table = data.draw(st.sampled_from(prop_tables))
    mech = InterpolatedMechanism(table, beta=data.draw(st.sampled_from([1.0, 3.0])),
                                 clip=ClipConfig(data.draw(st.sampled_from(["l1", "l2"])), 1.0))
    n = data.draw(st.integers(1, 3))
    d = data.draw(st.one_of(st.integers(1, 40),
                            st.integers(COORD_CHUNK - 2, 3 * COORD_CHUNK + 2)))
    scale = data.draw(st.sampled_from([0.0, 0.01, 1.0 / np.sqrt(d), 5.0]))
    u = np.random.default_rng(data.draw(st.integers(0, 2**32))).normal(0.0, scale, (n, d))
    seeds = data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n))

    idx, dec = privatize_vector(mech, u, seeds)
    rows = [privatize_vector(mech, u[k], seeds[k]) for k in range(n)]
    assert np.array_equal(idx, np.stack([r[0] for r in rows]))
    assert np.array_equal(dec, np.stack([r[1] for r in rows]))
    # chunk-aligned workers reproduce the single call
    cuts = sorted(data.draw(st.sets(st.sampled_from(range(0, d + 1, COORD_CHUNK)))) | {0, d})
    parts = [privatize_vector(mech, u, seeds, (lo, hi)) for lo, hi in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate([p[0] for p in parts], axis=1), idx)
    assert np.array_equal(np.concatenate([p[1] for p in parts], axis=1), dec)


def test_cohort_privatize_needs_one_seed_per_row(prop_tables):
    mech = InterpolatedMechanism(prop_tables[0])
    u = np.zeros((3, 5))
    for seeds in ([1, 2], [1, 2, 3, 4], 7):
        with pytest.raises(ValueError, match="seed"):
            privatize_vector(mech, u, seeds)
    with pytest.raises(ValueError, match="seed"):
        privatize_vector(mech, u[0], [1])


def test_cohort_privatize_takes_only_integer_seeds():
    # float seeds were truncated, so [1.9, 2.2] drew the streams of [1, 2],
    # and strings were hashed by crc32; the vector form rejects both
    mech = InterpolatedMechanism(get_table(2, 4, 2.0))
    u = np.linspace(-0.4, 0.4, 30).reshape(3, 10)
    for seeds in ([1.9, 2.2, 3.0], ["a", "b", "c"], [1, 2, 3.0], np.array([1.0, 2.0, 3.0])):
        with pytest.raises(ValueError, match="integer seed"):
            privatize_vector(mech, u, seeds)
    # Python ints of any size and integer arrays keep their streams
    for seeds, digest in [
        ([-3, 2**63 + 5, 2**64 + 7], "325b56247dd92162f98e413f693ae3f1c86fc93e2a1df0b0a3f6a39a33e58578"),
        (np.array([5, -1, 2**40]), "1c9b640660921a4f21aa48621c404d36a29cc3de4432fbe0379a653c41ea906c"),
        (np.array([5, 2**63, 2**64 - 1], dtype=np.uint64),
         "e1c41e136d1aa5824663f6b952c434354494e6be0ead8f3be81c32eb0bff5345"),
    ]:
        idx, dec = privatize_vector(mech, u, seeds)
        assert hashlib.sha256(idx.astype("<i8").tobytes() + dec.astype("<f8").tobytes()).hexdigest() == digest


def _train_fl_per_client(cfg, weights_seen):
    """train_fl's imvu loop with one privatize_vector call per client; records
    the weights each client's gradient is taken at."""
    x, y = generate_synthetic(cfg.n_train, cfg.dims, 2, cfg.separation, cfg.seed)
    y_signed = np.where(y == 0, -1.0, 1.0)
    client_slices = np.array_split(np.arange(cfg.n_train), cfg.n_train // cfg.client_samples)
    weights, velocity = np.zeros(cfg.dims), np.zeros(cfg.dims)
    cohort_rng = substream(cfg.seed, "cohort")
    accuracy = np.empty(cfg.rounds)
    for t in range(cfg.rounds):
        chosen = cohort_rng.choice(len(client_slices), size=min(cfg.cohort, len(client_slices)),
                                   replace=False)
        messages = np.empty((chosen.size, cfg.dims))
        for slot, ci in enumerate(chosen):
            rows = client_slices[ci]
            weights_seen.append(weights.copy())
            grad = fl.client_update(weights, x[rows], y_signed[rows])
            seed = int(substream(cfg.seed, "privatize", t, int(ci)).integers(2**62))
            _, messages[slot] = privatize_vector(cfg.mech, grad, seed)
        velocity = cfg.momentum * velocity + messages.mean(axis=0)
        weights = weights - cfg.lr * cfg.server_lr_scale * velocity
        accuracy[t] = float(np.mean((x @ weights) * y_signed > 0))
    return accuracy


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_train_fl_cohort_call_matches_per_client_loop(norm, monkeypatch):
    table = get_table(2, 4, 1.0, symmetrize=True)
    mech = attach_accounting(InterpolatedMechanism(table, clip=ClipConfig(norm, 1.0)))
    cfg = FlConfig(rounds=8, cohort=25, dims=12, lr=0.3, clip=ClipConfig(norm, 1.0),
                   mechanism="imvu", mech=mech, seed=3, n_train=200)
    expected_weights = []
    expected = _train_fl_per_client(cfg, expected_weights)

    seen = []
    update = fl.client_update

    def recording(weights, x, y):
        # one call may serve a stack of clients
        seen.extend([weights.copy()] * len(x))
        return update(weights, x, y)

    monkeypatch.setattr(fl, "client_update", recording)
    result = train_fl(cfg)
    assert np.array_equal(result.accuracy, expected)
    assert np.array_equal(np.array(seen), np.array(expected_weights))


def test_dme_cohort_call_matches_per_client_loop(table_factory):
    mech = InterpolatedMechanism(table_factory(4, 4, 1.0))
    n, d, trials = 3, 2 * COORD_CHUNK + 5, 2
    rng = np.random.default_rng(17)
    errors = []
    for _ in range(trials):
        u = gaussian_inputs(0.3)(rng, n, d)
        out = np.empty_like(u)
        for k in range(n):
            _, out[k] = privatize_vector(mech, u[k], int(rng.integers(0, 2**63 - 1)))
        errors.append(float(np.mean((out.mean(axis=0) - u.mean(axis=0)) ** 2)))
    mse, bits = dme_mse(n, d, gaussian_inputs(0.3), "imvu", mech,
                        np.random.default_rng(17), trials=trials)
    assert mse == float(np.mean(errors))
    assert bits == 2.0


# magnitudes from 1e-3 to 1e3; the largest saturate the margins, where exp overflows
MAGNITUDES = st.sampled_from([1e-3, 0.1, 1.0, 30.0, 1e3])


def _gradient_formula(weights, x, y):
    """One client's (k, d) samples: logistic-loss gradient averaged over the samples."""
    coeff = -y / (1.0 + np.exp(y * (x @ weights)))
    return (coeff[:, None] * x).mean(axis=0)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_stacked_client_update_matches_per_client_calls(data):
    m, k = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 23))
    d = data.draw(st.integers(1, 69))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    weights = rng.normal(size=d) * data.draw(MAGNITUDES)
    x = rng.normal(size=(m, k, d)) * data.draw(MAGNITUDES)
    y = rng.choice([-1.0, 1.0], size=(m, k))
    with np.errstate(over="ignore"):
        stacked = fl.client_update(weights, x, y)
        clients = [fl.client_update(weights, x[i], y[i]) for i in range(m)]
        samples = [fl.client_update(weights, x[i, 0], y[i, 0]) for i in range(m)]
        formula = [_gradient_formula(weights, x[i], y[i]) for i in range(m)]
    assert stacked.shape == (m, d)
    assert np.array_equal(stacked, np.stack(clients))
    assert np.array_equal(stacked, np.stack(formula))
    if k == 1:
        # the one-sample form is the one-client form of a single sample
        assert np.array_equal(stacked, np.stack(samples))


def _ball_rows(data, n, d):
    """Rows from zero to far beyond the unit ball, each at its own scale."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    scales = data.draw(st.lists(st.sampled_from([0.0, 1e-3, 0.1, 1.0, 10.0, 1e3]),
                                min_size=n, max_size=n))
    return rng.normal(size=(n, d)) * np.array(scales)[:, None]


def _overflow_rows(data, u, norm):
    """Replace up to two rows by finite rows whose norm overflows."""
    overflow = np.array([1e300, 1.0]) if norm == "l2" else np.array([1e308, 1e308])
    for k in data.draw(st.sets(st.integers(0, len(u) - 1), max_size=2)):
        u[k] = 0.0
        u[k, :2] = overflow


def _clip_formula(row, norm, radius):
    """The projection of one row, its norm taken by ``np.linalg.norm``; a
    finite row whose norm overflows is rescaled by max|u| first."""
    order = 1 if norm == "l1" else 2
    size = np.linalg.norm(row, order)
    if size <= radius:
        return row
    if not np.isfinite(size):
        row = row / np.max(np.abs(row))
        size = np.linalg.norm(row, order)
    return row * (radius / size)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_clip_rows_matches_per_row_clip(data):
    """``clip`` of an (n, d) array is ``clip`` of each row, bit for bit."""
    norm = data.draw(st.sampled_from(["l1", "l2"]))
    n = data.draw(st.integers(1, 8))
    d = data.draw(st.one_of(st.integers(2, 70), st.integers(1000, 20_000)))
    u = _ball_rows(data, n, d)
    _overflow_rows(data, u, norm)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(u, 1 if norm == "l1" else 2, axis=1)
        # a radius equal to a row's norm puts that row exactly on the ball
        radius = data.draw(st.sampled_from([float(r) for r in norms if 0.0 < r < np.inf]
                                           + [0.5, 1.0, 3.0]))
        expected = np.stack([_clip_formula(row, norm, radius) for row in u])
    cfg = ClipConfig(norm, radius)
    assert np.array_equal(clip(u, cfg), expected)
    assert np.array_equal(np.stack([clip(row, cfg) for row in u]), expected)


@pytest.mark.parametrize("norm", ["l1", "l2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_clip_rows_rejects_a_non_finite_row(norm, bad):
    u = np.full((3, 4), 0.25)
    u[1, 2] = bad
    with np.errstate(all="raise"), pytest.raises(ValueError, match="inputs must be finite"):
        clip(u, ClipConfig(norm, 1.0))
    with np.errstate(all="raise"), pytest.raises(ValueError, match="inputs must be finite"):
        clip(u[1], ClipConfig(norm, 1.0))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_cohort_baseline_call_matches_row_calls(data):
    kind = data.draw(st.sampled_from(["laplace", "gaussian", "signsgd"]))
    norm = "l1" if kind == "laplace" else "l2"
    n, d = data.draw(st.integers(1, 8)), data.draw(st.integers(2, 70))
    u = _ball_rows(data, n, d)
    _overflow_rows(data, u, norm)
    radius = data.draw(st.sampled_from([1e-3, 0.5, 1.0, 3.0]))
    noise = data.draw(st.floats(1e-3, 100.0))
    cfg = BaselineConfig(kind, ClipConfig(norm, radius), noise)
    seed = data.draw(st.integers(0, 2**32))
    cohort_rng, row_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    cohort = privatize_baseline(u, cfg, cohort_rng)
    rows = np.stack([privatize_baseline(row, cfg, row_rng) for row in u])
    assert np.array_equal(cohort, rows)
    assert cohort_rng.bit_generator.state == row_rng.bit_generator.state
