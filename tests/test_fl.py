"""Federated training harness: data, gradients, loop determinism, accounting."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from imvu import (
    ClipConfig,
    FlConfig,
    InterpolatedMechanism,
    attach_accounting,
    client_update,
    generate_synthetic,
    imvu_ledger,
    train_fl,
)
from imvu.baselines import privatizer, round_ledger

from conftest import get_table


def _imvu_mech(eps=2.0, norm="l1"):
    table = get_table(2, 2, eps, symmetrize=True)
    mech = InterpolatedMechanism(table, beta=1.0, clip=ClipConfig(norm, 1.0))
    return attach_accounting(mech)


def _cfg(**kw):
    base = dict(
        rounds=5,
        cohort=30,
        dims=10,
        lr=0.3,
        clip=ClipConfig("l1", 1.0),
        mechanism="identity",
        seed=0,
        n_train=120,
        separation=4.0,
    )
    base.update(kw)
    return FlConfig(**base)


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


def test_synthetic_deterministic():
    a = generate_synthetic(100, 6, 3.0, seed=42)
    b = generate_synthetic(100, 6, 3.0, seed=42)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    c = generate_synthetic(100, 6, 3.0, seed=43)
    assert not np.array_equal(a[0], c[0])


def test_synthetic_balanced_classes():
    # two classes labelled -1.0 and +1.0; class -1 takes the odd sample
    for n in (2, 3, 90, 91):
        _, y = generate_synthetic(n, 4, 2.0, seed=1)
        assert y.dtype == float and set(y.tolist()) == {-1.0, 1.0}
        assert [int(np.sum(y == -1.0)), int(np.sum(y == 1.0))] == [n - n // 2, n // 2]


def test_synthetic_zero_separation_near_chance():
    result = train_fl(_cfg(separation=0.0, rounds=15))
    assert result.final_accuracy <= 0.66  # binary chance plus slack


def test_synthetic_large_separation_separable():
    result = train_fl(_cfg(separation=6.0, rounds=25, n_train=200, cohort=50))
    assert result.final_accuracy >= 0.95


@pytest.mark.parametrize("n,d,separation,seed,digest", [
    (3, 1, -1.0, 2, "2d0c20af971dddaaf66991016940e2fe45680c60f7983d0b76402536597c6712"),
    (600, 20, 4.0, 0, "13df5230e7d63fa9d7930691151929f13e2dc4285a1b68186f7e599eb6c45296"),
])
def test_synthetic_bytes(n, d, separation, seed, digest):
    # the x and the signed labels of the k-class generator at k = 2, whose
    # draw order (centers, class -1, class +1, permutation) this one keeps
    x, y = generate_synthetic(n, d, separation, seed)
    assert hashlib.sha256(x.astype("<f8").tobytes() + y.astype("<f8").tobytes()).hexdigest() == digest


def test_synthetic_input_validation():
    with pytest.raises(ValueError):
        generate_synthetic(1, 4, 1.0, seed=0)


@pytest.mark.parametrize("n,d,separation,name", [
    (True, 4, 1.0, "n"), (10.0, 4, 1.0, "n"), (10, 0, 1.0, "d"), (10, 2.0, 1.0, "d"),
    (10, 2, np.nan, "separation"), (10, 2, np.inf, "separation"),
    (10, 2, True, "separation"), (10, 2, "4", "separation"),
])
def test_synthetic_names_an_input_that_is_not_its_number(n, d, separation, name):
    # NaN used to draw NaN inputs, and a bool to draw at separation 1.0
    with pytest.raises(ValueError, match=f"^{name} must be"):
        generate_synthetic(n, d, separation, seed=0)


# ---------------------------------------------------------------------------
# client gradient
# ---------------------------------------------------------------------------


def test_client_update_matches_finite_differences():
    rng = np.random.default_rng(7)
    w = rng.normal(size=6) * 0.5
    x = rng.normal(size=(3, 6))
    y = np.array([-1.0, 1.0, 1.0])

    def loss(weights):
        margins = y * (x @ weights)
        return float(np.mean(np.log1p(np.exp(-margins))))

    grad = client_update(w, x, y)
    h = 1e-6
    for k in range(6):
        e = np.zeros(6)
        e[k] = h
        fd = (loss(w + e) - loss(w - e)) / (2 * h)
        assert grad[k] == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_client_update_residual_form():
    # single sample: gradient is (sigmoid(w.x) - 1{y=+1}) x
    rng = np.random.default_rng(8)
    w = rng.normal(size=4)
    x = rng.normal(size=4)
    for y in (-1.0, 1.0):
        grad = client_update(w, x, y)
        prob = 1.0 / (1.0 + np.exp(-(x @ w)))
        residual = prob - (1.0 if y > 0 else 0.0)
        np.testing.assert_allclose(grad, residual * x, atol=1e-12)


def test_client_update_saturated_sample_near_zero():
    x = np.ones(4)
    w = 50.0 * np.ones(4)  # confidently correct for y=+1
    grad = client_update(w, x, 1.0)
    assert np.linalg.norm(grad) <= 1e-12


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_train_deterministic():
    r1 = train_fl(_cfg(rounds=8))
    r2 = train_fl(_cfg(rounds=8))
    np.testing.assert_array_equal(r1.accuracy, r2.accuracy)
    np.testing.assert_array_equal(r1.spent_eps, r2.spent_eps)


def test_train_identity_spends_no_budget():
    result = train_fl(_cfg(rounds=3))
    assert np.all(np.isinf(result.spent_eps))
    assert result.ledger is None


def test_train_imvu_pure_budget_trajectory():
    mech = _imvu_mech()
    cfg = _cfg(mechanism="imvu", mech=mech, rounds=7)
    result = train_fl(cfg)
    per_round = imvu_ledger(mech, "pure", mech.beta).per_round
    np.testing.assert_array_equal(result.spent_eps, per_round * np.arange(1, 8))


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_train_imvu_on_a_bare_mechanism_matches_the_attached_run(norm):
    # the ledger certifies the constant a bare mechanism lacks, to the same bits
    attached = _imvu_mech(norm=norm)
    bare = replace(attached, eps_prime=None, fisher_m=None)
    bare_run, attached_run = (train_fl(_cfg(mechanism="imvu", mech=mech,
                                            clip=ClipConfig(norm, 1.0)))
                              for mech in (bare, attached))
    np.testing.assert_array_equal(bare_run.ledger.per_round, attached_run.ledger.per_round)
    np.testing.assert_array_equal(bare_run.spent_eps, attached_run.spent_eps)
    np.testing.assert_array_equal(bare_run.accuracy, attached_run.accuracy)


def test_train_imvu_l2_uses_fisher_route():
    mech = _imvu_mech(norm="l2")
    result = train_fl(_cfg(mechanism="imvu", mech=mech, clip=ClipConfig("l2", 1.0)))
    assert result.ledger.mode == "rdp"
    assert np.all(np.diff(result.spent_eps) >= 0)


def test_train_baseline_modes():
    gaussian = train_fl(_cfg(mechanism="gaussian", clip=ClipConfig("l2", 1.0), noise=1.0))
    assert gaussian.ledger.mode == "rdp"
    laplace = train_fl(_cfg(mechanism="laplace", noise=2.0))
    assert laplace.ledger.mode == "pure"
    np.testing.assert_allclose(laplace.spent_eps, 2.0 * np.arange(1, 6))


def test_signsgd_ledger_equals_gaussian():
    # post-processing invariance: identical sigma means identical cost
    cfg_g = _cfg(mechanism="gaussian", clip=ClipConfig("l2", 1.0), noise=1.5)
    cfg_s = _cfg(mechanism="signsgd", clip=ClipConfig("l2", 1.0), noise=1.5)
    ledger_g, ledger_s = (
        round_ledger(privatizer(c.mechanism, c.clip, noise=c.noise), c.delta, c.alphas)
        for c in (cfg_g, cfg_s))
    np.testing.assert_array_equal(ledger_g.per_round, ledger_s.per_round)


@pytest.mark.parametrize("kind", ["imvu", "identity"])
def test_train_asks_the_ledger_once_per_round(monkeypatch, kind):
    # the fl-cohort benchmark stamps its rounds by wrapping fl.spent_epsilon
    from imvu import fl

    calls, original = [], fl.spent_epsilon

    def recorded(ledger, t):
        calls.append((ledger, t, original(ledger, t)))
        return calls[-1][2]

    monkeypatch.setattr(fl, "spent_epsilon", recorded)
    mech = _imvu_mech(norm="l2") if kind == "imvu" else None
    result = train_fl(_cfg(mechanism=kind, mech=mech, clip=ClipConfig("l2", 1.0), rounds=6))
    if kind == "identity":
        assert calls == []
        return
    assert [t for _, t, _ in calls] == list(range(1, 7))
    assert all(ledger is result.ledger for ledger, _, _ in calls)
    np.testing.assert_array_equal([v for _, _, v in calls], result.spent_eps)


@pytest.mark.parametrize("kind", ["imvu", "identity", "laplace", "gaussian", "signsgd"])
def test_train_takes_a_round_of_gradients_in_one_call(monkeypatch, kind):
    # client c holds training sample c, and a round's cohort is one stack of
    # one-sample clients, asked for before the round's ledger entry
    from imvu import fl
    from imvu.rng import substream

    calls, update, spent = [], fl.client_update, fl.spent_epsilon

    def recorded_update(weights, x, y):
        calls.append(("client_update", x.copy(), y.copy()))
        return update(weights, x, y)

    def recorded_spent(ledger, t):
        calls.append(("spent_epsilon", t))
        return spent(ledger, t)

    monkeypatch.setattr(fl, "client_update", recorded_update)
    monkeypatch.setattr(fl, "spent_epsilon", recorded_spent)
    mech = _imvu_mech(norm="l2") if kind == "imvu" else None
    noise = None if kind in ("imvu", "identity") else 1.0
    clip = ClipConfig("l1" if kind == "laplace" else "l2", 1.0)
    cfg = _cfg(mechanism=kind, mech=mech, noise=noise, clip=clip, rounds=4, n_train=50)
    train_fl(cfg)
    names = [c[0] for c in calls]
    per_round = ["client_update"] + (["spent_epsilon"] if kind != "identity" else [])
    assert names == per_round * cfg.rounds
    x, y = generate_synthetic(cfg.n_train, cfg.dims, cfg.separation, cfg.seed)
    cohort_rng = substream(cfg.seed, "cohort")
    for _, xs, ys in (c for c in calls if c[0] == "client_update"):
        chosen = cohort_rng.choice(cfg.n_train, size=cfg.cohort, replace=False)
        np.testing.assert_array_equal(xs, x[chosen, None])
        np.testing.assert_array_equal(ys, y[chosen, None])


def test_server_update_is_mean_message_times_lr():
    # reconstruct round one by hand: velocity starts at zero, so the first
    # step must be exactly lr * mean(clipped client gradients)
    from imvu.mechanism import clip as clip_fn
    from imvu.rng import substream

    cfg = _cfg(rounds=1, lr=0.25)
    result = train_fl(cfg)

    x, y = generate_synthetic(cfg.n_train, cfg.dims, cfg.separation, cfg.seed)
    cohort_rng = substream(cfg.seed, "cohort")
    chosen = cohort_rng.choice(cfg.n_train, size=cfg.cohort, replace=False)
    w0 = np.zeros(cfg.dims)
    messages = [
        clip_fn(client_update(w0, x[c], y[c]), cfg.clip) for c in chosen
    ]
    w1 = -cfg.lr * np.mean(messages, axis=0)
    accuracy = float(np.mean((x @ w1) * y > 0))
    assert result.accuracy[0] == accuracy


@pytest.mark.parametrize("mechanism", ["identity", "imvu", "laplace", "gaussian", "signsgd"])
def test_train_rejects_a_non_finite_gradient(mechanism, monkeypatch):
    from imvu import fl

    update = fl.client_update

    def poisoned(weights, x, y):
        grads = update(weights, x, y)
        grads[-1, 0] = np.nan
        return grads

    monkeypatch.setattr(fl, "client_update", poisoned)
    if mechanism in ("laplace", "gaussian", "signsgd"):
        clip = ClipConfig("l1" if mechanism == "laplace" else "l2", 1.0)
        cfg = _cfg(mechanism=mechanism, clip=clip, noise=1.0)
    else:
        cfg = _cfg(mechanism=mechanism, mech=_imvu_mech() if mechanism == "imvu" else None)
    with pytest.raises(ValueError, match="inputs must be finite"):
        train_fl(cfg)


def test_train_config_validation():
    with pytest.raises(ValueError):
        _cfg(rounds=0)
    with pytest.raises(ValueError):
        _cfg(momentum=1.0)
    # a str delta failed its range comparison with a TypeError
    for delta in (0.0, 1.0, "0.1", True, np.nan):
        with pytest.raises(ValueError, match=r"^delta must lie in \(0, 1\)"):
            _cfg(delta=delta)
    with pytest.raises(ValueError, match="unknown mechanism"):
        _cfg(mechanism="quantum")
    with pytest.raises(ValueError, match="noise"):
        _cfg(mechanism="gaussian", clip=ClipConfig("l2", 1.0))  # no noise
    with pytest.raises(ValueError, match="requires an l2 clip"):
        _cfg(mechanism="gaussian", clip=ClipConfig("l1", 1.0), noise=1.0)
    with pytest.raises(ValueError, match="InterpolatedMechanism"):
        _cfg(mechanism="imvu")  # no mechanism
    # privatizer itself, as the CLI calls it
    clip = ClipConfig("l1", 1.0)
    with pytest.raises(ValueError, match="unknown mechanism"):
        privatizer("quantum", clip)
    with pytest.raises(ValueError, match="noise"):
        privatizer("laplace", clip)
    with pytest.raises(ValueError, match="InterpolatedMechanism"):
        privatizer("imvu", clip)


def test_train_imvu_rejects_a_clip_other_than_its_mechanism():
    # the mechanism clips at l2 radius 1; the run must not train at that
    # radius while its config says l1 radius 0.01
    mech = _imvu_mech(norm="l2")
    for clip in (ClipConfig("l1", 0.01), ClipConfig("l2", 0.5), ClipConfig("l1", 1.0)):
        with pytest.raises(ValueError, match="clips with"):
            _cfg(mechanism="imvu", mech=mech, clip=clip)
    assert train_fl(_cfg(mechanism="imvu", mech=mech, clip=ClipConfig("l2", 1.0))).ledger


@pytest.mark.parametrize("field, value", [
    ("lr", 0.0), ("lr", np.nan), ("lr", np.inf), ("lr", -0.3),
    ("separation", np.nan), ("separation", np.inf), ("n_train", 1),
    # counts that are not integers failed only in train_fl, with a TypeError
    ("rounds", 2.5), ("rounds", True), ("cohort", 2.5), ("dims", 2.5), ("n_train", 20.5),
    # a bool was read as 1 or 0, and a string failed inside numpy with a TypeError
    ("lr", True), ("lr", "0.3"), ("momentum", False),
    ("momentum", "0.5"),
    # separation=True trained the run of 1.0, and a str failed inside numpy with a TypeError
    ("separation", True), ("separation", "4"), ("separation", 10**400),
])
def test_config_names_a_step_or_separation_out_of_range(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        _cfg(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", 1.0), ("seed", "1"), ("data_seed", 2.0), ("data_seed", np.float64(3)),
    ("seed", True), ("data_seed", False),
])
def test_config_rejects_a_non_integer_seed(field, value):
    # a float seed was truncated: seed=1.5 replayed the run of seed 1, as seed=True did
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        _cfg(**{field: value})
    assert _cfg(seed=np.int64(1), data_seed=np.uint32(2)).seed == 1
    assert _cfg(rounds=np.int64(2), cohort=np.int32(3), dims=np.uint8(4),
                n_train=np.int64(9)).rounds == 2


@pytest.mark.parametrize("mechanism", ["identity", "laplace", "gaussian", "signsgd", "imvu"])
def test_train_derives_client_streams_for_imvu_only(mechanism, monkeypatch):
    # imvu derives a run's seeds and coordinate streams in one block of
    # rounds; the other kinds draw no seed at all
    from imvu import fl

    calls = []

    def counted(name):
        original = getattr(fl, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for name in ("substream_seeds", "coordinate_states"):
        monkeypatch.setattr(fl, name, counted(name))
    clip = ClipConfig("l1" if mechanism in ("identity", "laplace") else "l2", 1.0)
    train_fl(_cfg(mechanism=mechanism, clip=clip,
                  mech=_imvu_mech(norm="l2") if mechanism == "imvu" else None,
                  noise=None if mechanism in ("identity", "imvu") else 1.0))
    assert calls == (["substream_seeds", "coordinate_states"] if mechanism == "imvu" else [])
