"""Random streams: golden output bytes and the batched SeedSequence -> PCG64 derivation.

The golden digests were recorded from the per-stream numpy implementation
(one ``SeedSequence`` and ``Generator`` per client message and per
``COORD_CHUNK`` block).  Any change to how streams are derived must leave
them unchanged.  ``WEIGHTS_GOLDEN`` and ``DME_GOLDEN`` pin message bytes: the
weights ``train_fl`` hands to ``client_update`` in every round (a CSV of
accuracies misses a last-bit change), and the decoded cohort of every
mechanism kind.  ``IDENTITY_GOLDEN`` and the identity and baseline
``WEIGHTS_GOLDEN`` entries were first recorded from the per-client gradient,
clip and baseline loops on clients of three samples; since every client
holds one sample, they are what the batched code that passed those gives for
one-sample clients.  The identity ``DME_GOLDEN`` entries were recorded with the
kind-string dispatch that ``privatize_clients`` replaced.  The table is built
by hand so the digests do not depend on the designer or the certifiers.
"""

import hashlib
import io
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imvu import (
    BaselineConfig,
    ClipConfig,
    FlConfig,
    InterpolatedMechanism,
    MechanismTable,
    dme_mse,
    fl,
    train_fl,
)
from imvu import rng
from imvu.dme import privatize_clients
from imvu.mechanism import _bracket, _sample, clip, privatize_vector, scale_input
from imvu.rng import (
    _COORD_TAG,
    _JUMPS,
    _PCG_MULT,
    COORD_CHUNK,
    _as_entropy,
    _jump_table,
    coordinate_states,
    coordinate_uniforms,
    pcg64_states,
    stream_uniforms,
    substream,
    substream_seeds,
)

GOLDEN_SEEDS = (0, 2**32 - 1, 2**32, 2**62 + 5, -3)


def _hand_mech(norm="l1") -> InterpolatedMechanism:
    # rows are mirror images, alphabet -1..2 makes both grid rows unbiased
    probs = np.array([[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]])
    table = MechanismTable(np.array([-1.0, 0.0, 1.0, 2.0]), np.log(probs), design_eps=1.4)
    return InterpolatedMechanism(table, beta=1.5, clip=ClipConfig(norm, 1.0),
                                 eps_prime=0.25, fisher_m=0.75)


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


def _cohort_digest(seed: int) -> str:
    d = 2 * COORD_CHUNK + 37
    u = np.random.default_rng(11).normal(scale=0.02, size=(3, d))
    mech = _hand_mech()
    seeds = [seed, seed + 1, seed - 1]
    full, _ = privatize_vector(mech, u, seeds)
    parts = [privatize_vector(mech, u, seeds, coord_range=r)[0]
             for r in ((0, COORD_CHUNK), (COORD_CHUNK, d), (COORD_CHUNK, 2 * COORD_CHUNK))]
    vec, _ = privatize_vector(mech, u[1], seed + 1, coord_range=(2 * COORD_CHUNK, d))
    return _sha(full, *parts, vec)


def _csv_digest(cfg: FlConfig) -> str:
    buf = io.StringIO()
    train_fl(cfg).to_csv(buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _train_cfg(seed: int, norm: str) -> FlConfig:
    return FlConfig(rounds=6, cohort=20, dims=12, lr=0.3, clip=ClipConfig(norm, 1.0),
                    mechanism="imvu", mech=_hand_mech(norm), seed=seed, n_train=120)


# radii at which some one-sample gradients are clipped and some pass
RADIUS = {"l1": 2.0, "l2": 1.5}


def _identity_cfg(norm: str) -> FlConfig:
    # (the CSV holds accuracies only; close classes make them move round by round)
    return FlConfig(rounds=12, cohort=30, dims=9, lr=0.3, clip=ClipConfig(norm, RADIUS[norm]),
                    mechanism="identity", seed=5, n_train=125, separation=1.0)


BASELINE_NORM = {"laplace": "l1", "gaussian": "l2", "signsgd": "l2"}


def _baseline_cfg(kind: str, seed: int) -> FlConfig:
    norm = BASELINE_NORM[kind]
    return FlConfig(rounds=6, cohort=30, dims=9, lr=0.3 * (0.1 if kind == "signsgd" else 1.0),
                    clip=ClipConfig(norm, RADIUS[norm]), mechanism=kind,
                    noise={"laplace": 20.0}.get(kind, 0.3), seed=seed,
                    n_train=125, separation=1.0)


def _weights_cfg(kind: str, seed: int, norm: str) -> FlConfig:
    if kind == "imvu":
        return _train_cfg(seed, norm)
    if kind == "identity":
        return _identity_cfg(norm)
    return _baseline_cfg(kind, seed)


def _weights_digest(cfg: FlConfig, monkeypatch) -> str:
    """sha256 of the weights ``train_fl`` hands to ``client_update``, one copy
    per client of every round, then of the CSV."""
    h = hashlib.sha256()
    update = fl.client_update

    def recording(weights, x, y):
        # one call may serve a stack of clients
        for _ in range(len(x)):
            h.update(np.ascontiguousarray(weights, dtype=float).tobytes())
        return update(weights, x, y)

    monkeypatch.setattr(fl, "client_update", recording)
    buf = io.StringIO()
    train_fl(cfg).to_csv(buf)
    h.update(buf.getvalue().encode())
    return h.hexdigest()


def _spread_inputs(rng, n, d):
    # rows from well inside to far outside the unit ball
    return rng.normal(0.0, 0.3, size=(n, d)) * np.geomspace(0.01, 3.0, n)[:, None]


def _dme_digest(kind: str, norm: str) -> str:
    """sha256 of ``dme_mse``'s (mse, bits), then of one decoded cohort."""
    if kind == "imvu":
        cfg = _hand_mech(norm)
    elif kind == "identity":
        cfg = ClipConfig(norm, 1.0)
    else:
        cfg = BaselineConfig(kind, ClipConfig(norm, 1.0), {"laplace": 8.0}.get(kind, 0.2))
    mse, bits = dme_mse(7, 13, _spread_inputs, kind, cfg, np.random.default_rng(9), trials=3)
    rng = np.random.default_rng(10)
    decoded = privatize_clients(cfg, _spread_inputs(rng, 7, 13), rng)
    h = hashlib.sha256(repr((mse, bits)).encode())
    h.update(np.ascontiguousarray(decoded).tobytes())
    return h.hexdigest()


COHORT_GOLDEN = {
    0: "0545f95c8635b29a25f413c6f8deb6f2390655825a01ef81829fe05051d9e928",
    2**32 - 1: "32836ad041ef442d3605b5b97f29967506fb622f08c8e3a75e7b340094434047",
    2**32: "42f0d920005ef0eacb1183d09af0de2568d96fd20a45112db01d98fa6d59f442",
    2**62 + 5: "d25519be6b45b5873a572e1d26d39938c18b86718a12ac86e93aaae44636db96",
    -3: "b20ea4fab57cb719d299f9e46cc2265a409e78cdba8538d11ad9055dcdaf6ae3",
}

TRAIN_GOLDEN = {
    (0, "l1"): "1724897fd2200623944f6970587be960fa8ab651436c1879c9f328569b8b1f57",
    (0, "l2"): "6b87e068c15c837b81413125984ca5299c057ae36cd3b1a4a83729a451d0b2b8",
    (2**32, "l1"): "f057409a3576b44a712b207aeacf294cc93a2f98f9d9352461ab5854f0f3016d",
    (2**32, "l2"): "1a34e0ad57cd690897dec83b5e02725e95813872c0952f9c95c6317b2699d4cd",
    (-3, "l1"): "8d36d3f74665face7edf3c67f673b4591936b0a4c1bda7e560b28188a0d9afcd",
    (-3, "l2"): "7f383eaca46b4c60325d232973dcc912b5db9ce3853a0e33fb2f5d9b0a8947b4",
}

IDENTITY_GOLDEN = {
    "l1": "188bc06c2ac54653e5ae06cd22fa00db0a6980ef24a90fb74f38f4af7152660b",
    "l2": "843d04aebc433b288d09572e4fbfcad1ece7941f299d0c7d792d8c49efa545c5",
}


WEIGHTS_GOLDEN = {
    ("imvu", 0, "l1"): "c9d3d88aee3fc7d4fd2a18eaa9e6b2fd4e477566305375cda3156dc8e10774c7",
    ("imvu", 0, "l2"): "dcbeb96989fc3277351d8a0eb5f7e43aaefa2e878ed473d78fe13bb2988b6a01",
    ("imvu", 2**32, "l1"): "f281fbb3a426ae671c789ca8e4ab881eaaaec0722fe302f2b82417886addafc3",
    ("imvu", 2**32, "l2"): "767dc30a916f92505209517c3fd8a10d8020f0126af0cffaa7e9b22eb25c1c81",
    ("imvu", -3, "l1"): "6ee2ec36d384fcd283dccfa09575af1bb3b6a610fa3437a296d2c762c93eda2b",
    ("imvu", -3, "l2"): "41d7561bf8ecb5e7df35fce1295e73aed4e58480651bb774cca97dc364a34d05",
    ("identity", 5, "l1"): "e9eed47f6994f77b1fea3068f989ef17fb2b881375e358739a5caeccf51c723f",
    ("identity", 5, "l2"): "90c8f87400ee87ab296224d0eb19002c2f245ae9694097f158877c3645281398",
    ("laplace", 0, "l1"): "a274a014a64365a5465f7888a1107cb7db9aba53cc96ddc530375208297f5a7b",
    ("laplace", -3, "l1"): "fe13e359a19b1e35f501d53b69b9430e5c18a64f6afb069072324110cb742479",
    ("gaussian", 0, "l2"): "a0a200dd3253c1244f36cee57db60b53e24490d6aa41f1830b51a27fe529bd51",
    ("gaussian", -3, "l2"): "63d4249a0bed74f119c1413ca6be041debc1f5d4c629c5b2b4c45ff94d6c2fed",
    ("signsgd", 0, "l2"): "1583f02d30d98cf90f6f6eae74f615fe4b2594f79f8bb715fc9f819a4d411ab8",
    ("signsgd", -3, "l2"): "9d320642356c73dacfd93117c08027c9b71ab6f5777028b3319daa3681a05bf7",
}

DME_GOLDEN = {
    ("identity", "l1"): "2f080985b6595478e79a55d1b5a6da03ac1233b9fa326849bd5c0ceb7034b188",
    ("identity", "l2"): "3a8ad76b467705d83d56e40f513c5b7d1eab9e7425e50b2fd361b1e737394516",
    ("imvu", "l1"): "9ec51c9a8d25e4765e656cdf25b1b015043772b58217222298b78a815091b146",
    ("imvu", "l2"): "ae93d209e31606a1eab48626e8989fe4942752014893a98f002d401b39e66a87",
    ("laplace", "l1"): "7f418707d75e96289bb897037ef485938eb308188e7cb8ea171a92e7b58d2595",
    ("gaussian", "l2"): "c8cf600e117d995fcfbaf6ecdad6ea98952e5d95715406c46e17f50d431ac9de",
    ("signsgd", "l2"): "7f72abe3414b5cdc3d4413509fff03c369382960a080bf153ae340186357c91f",
}


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_privatize_indices_golden(seed):
    assert _cohort_digest(seed) == COHORT_GOLDEN[seed]


@pytest.mark.parametrize("seed,norm", sorted(TRAIN_GOLDEN))
def test_train_fl_csv_golden(seed, norm):
    assert _csv_digest(_train_cfg(seed, norm)) == TRAIN_GOLDEN[(seed, norm)]


@pytest.mark.parametrize("norm", sorted(IDENTITY_GOLDEN))
def test_train_fl_identity_golden(norm):
    assert _csv_digest(_identity_cfg(norm)) == IDENTITY_GOLDEN[norm]


@pytest.mark.parametrize("kind,seed,norm", sorted(WEIGHTS_GOLDEN))
def test_train_fl_client_weights_golden(kind, seed, norm, monkeypatch):
    assert _weights_digest(_weights_cfg(kind, seed, norm), monkeypatch) == \
        WEIGHTS_GOLDEN[(kind, seed, norm)]


@pytest.mark.parametrize("kind,norm", sorted(DME_GOLDEN))
def test_dme_decoded_golden(kind, norm):
    assert _dme_digest(kind, norm) == DME_GOLDEN[(kind, norm)]


# ---------------------------------------------------------------------------
# the batched derivation against numpy's SeedSequence -> PCG64
# ---------------------------------------------------------------------------

ORACLE_SETTINGS = settings(max_examples=80, deadline=None)

# entropy parts around numpy's one-word / two-word split, negative ints
# (taken modulo 2**64) and str labels (their crc32)
parts = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -3]),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(-(2**63), -1),
    st.text(max_size=8),
)


def _numpy_state(entropy) -> tuple[int, int]:
    state = np.random.PCG64(np.random.SeedSequence(entropy)).state["state"]
    return state["state"], state["inc"]


def _as_pairs(states: np.ndarray) -> list[tuple[int, int]]:
    """``pcg64_states`` rows as the (state, inc) 128-bit ints numpy reports."""
    return [(s_hi << 64 | s_lo, i_hi << 64 | i_lo) for s_hi, s_lo, i_hi, i_lo in states.tolist()]


@st.composite
def entropy_columns(draw):
    """Up to 6 columns of up to 64 streams: each column is one part every
    stream shares, or one part per stream."""
    n = draw(st.integers(1, 64))
    return [draw(st.one_of(parts.map(lambda p: [p]), st.lists(parts, min_size=n, max_size=n)))
            for _ in range(draw(st.integers(1, 6)))]


@ORACLE_SETTINGS
@given(columns=entropy_columns())
@example(columns=[[7]])
@example(columns=[[_COORD_TAG], [1, 2**40, 2**32 - 1], [0]])
def test_pcg64_states_match_numpy(columns):
    # a batch of shared parts only is one stream; the second pin mixes
    # entries of one 32-bit word and of two in one batch
    n = max(len(col) for col in columns)
    entropy = [[_as_entropy(col[k % len(col)]) for col in columns] for k in range(n)]
    batch = [np.array([_as_entropy(p) for p in col], dtype=np.uint64) if len(col) > 1
             else _as_entropy(col[0]) for col in columns]
    states = pcg64_states(batch)
    assert states.dtype == np.uint64 and states.shape == (n, 4)
    assert _as_pairs(states) == [_numpy_state(e) for e in entropy]


@ORACLE_SETTINGS
@given(seed=parts, label=parts, path=st.lists(st.integers(-(2**63), 2**63 - 1),
                                              min_size=1, max_size=64))
@example(seed=0, label="privatize", path=list(range(-8, 8)))
def test_substream_seeds_match_generator_integers(seed, label, path):
    expected = [int(substream(seed, label, p).integers(2**62)) for p in path]
    seeds = substream_seeds(seed, label, np.array(path, dtype=np.int64))
    assert seeds.dtype == np.uint64 and seeds.tolist() == expected


def test_stream_labels_are_str_or_integer():
    # a float label was truncated: substream(1.9, ...) replayed substream(1, ...),
    # and substream(True, ...) did so as well
    for label in (1.9, 1.0, np.float64(2.0), None, b"x", True, False):
        with pytest.raises(ValueError, match="str or an integer"):
            _as_entropy(label)
        with pytest.raises(ValueError, match="str or an integer"):
            substream(label, "x")
        with pytest.raises(ValueError, match="str or an integer"):
            substream_seeds(7, "x", label)
    for column in (np.array([1.5, 2.0]), np.array([1.0, 2.0]), np.array([True, False])):
        with pytest.raises(ValueError, match="str or an integer"):
            substream_seeds(7, "x", column)
        with pytest.raises(ValueError, match="str or an integer"):
            coordinate_states(column, 0, 5)
    # integer arrays of every width, and object arrays of Python ints, keep their streams
    expected = [int(substream(7, "x", k).integers(2**62)) for k in (1, 2, 2**64 - 1)]
    for column in (np.array([1, 2, -1]), np.array([1, 2, 2**64 - 1], dtype=np.uint64),
                   np.array([1, 2, 2**64 - 1], dtype=object)):
        assert substream_seeds(7, "x", column).tolist() == expected
    assert substream_seeds(7, "x", np.array([1, 2], dtype=np.uint8)).tolist() == expected[:2]


# Streams that take the limb arithmetic to its edge cases (checked below):
# (0,) carries out of the low limb both in the add of its seeding, initstate
# + inc, and in the multiply-add, M t + inc; (3,) carries in neither; the
# first output of (41,) has XSL-RR rotation 0.
EDGE_STREAMS = [(0,), (3,), (41,)]
LIMB_BATCH = EDGE_STREAMS + [(k,) for k in range(100, 113)]


def _draw_path(states: np.ndarray, skip: int, width: int) -> str:
    """The path ``stream_uniforms`` takes for this block, seen by whether it
    runs the limb arithmetic: "limbs", or "raw" for ``random_raw``."""
    calls = []
    advance = rng._advance
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng, "_advance", lambda *a: calls.append(a) or advance(*a))
        stream_uniforms(states, skip, width)
    return "limbs" if calls else "raw"


def test_edge_streams_reach_the_limb_edge_cases():
    low = 2**64 - 1

    def seeding(entropy):
        w = np.random.SeedSequence(entropy).generate_state(4, np.uint64).tolist()
        state, inc = w[0] << 64 | w[1], ((w[2] << 64 | w[3]) << 1 | 1) % 2**128
        t = (state + inc) % 2**128
        add = (state & low) + (inc & low) > low
        mul = ((t & low) * (_PCG_MULT & low) & low) + (inc & low) > low
        first = ((t * _PCG_MULT + inc) * _PCG_MULT + inc) % 2**128
        return add, mul, first >> 122

    assert [seeding(e) for e in EDGE_STREAMS] == [(True, True, 15), (False, False, 35),
                                                  (False, False, 0)]
    # the pins below draw in limbs, or by random_raw past the cached jumps:
    # the last cached jump constant, one step past it, and a far block
    batch = pcg64_states([np.array([e for e, in LIMB_BATCH], dtype=np.uint64)])
    blocks = [(0, 8), (0, 120), (_JUMPS - 3, 3), (_JUMPS - 2, 3), (COORD_CHUNK - 3, 3)]
    assert [_draw_path(batch, *b) for b in blocks] == ["limbs"] * 3 + ["raw"] * 2
    assert _draw_path(batch[:len(EDGE_STREAMS)], 0, 8) == "limbs"


def _carry_states() -> list[tuple[int, int]]:
    """(state, inc) pairs whose first step, M s + inc, needs the carry out of
    the lowest 32-bit column of the low limbs: it alone takes the next
    column past 2**32, so dropping it changes the high limb."""
    low32, m_lo = 2**32 - 1, _PCG_MULT % 2**64
    a0, a1 = m_lo & low32, m_lo >> 32
    pairs = []
    for s in [1, 3, 2**64 - 1, 2**127 + 12345] + [(2**61 - 1) * k for k in range(1, 13)]:
        s0, s1 = s & low32, (s >> 32) & low32
        # inc's low half 2**32 - 1 makes the lowest column carry (a0 s0 is
        # not 0 mod 2**32), and its next half fills the middle column
        middle = (a0 * s0 >> 32) + (a0 * s1 & low32) + (a1 * s0 & low32)
        pairs.append((s, 1 << 64 | (-1 - middle) % 2**32 << 32 | low32))
    return pairs


def test_stream_uniforms_carry_the_lowest_column():
    pairs = _carry_states()
    for s, inc in pairs:
        low = (s % 2**64 & 2**32 - 1) * (_PCG_MULT % 2**64 & 2**32 - 1) % 2**32
        assert low + (inc & 2**32 - 1) >= 2**32
    states = np.array([(s >> 64, s % 2**64, i >> 64, i % 2**64) for s, i in pairs],
                      dtype=np.uint64)
    assert _draw_path(states, 0, 8) == "limbs"
    expected = []
    for s, inc in pairs:
        bits = np.random.PCG64()
        bits.state = {"bit_generator": "PCG64", "state": {"state": s, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        expected.append(np.random.Generator(bits).random(8))
    assert np.array_equal(stream_uniforms(states, 0, 8), np.array(expected))


@ORACLE_SETTINGS
@given(entropy=st.tuples(st.integers(1, 4), st.integers(1, 64)).flatmap(
           lambda kn: st.lists(st.lists(parts, min_size=kn[0], max_size=kn[0]),
                               min_size=kn[1], max_size=kn[1])),
       skip=st.one_of(st.integers(0, _JUMPS), st.integers(0, COORD_CHUNK)),
       width=st.integers(0, 120))
@example(entropy=LIMB_BATCH, skip=0, width=8)
@example(entropy=LIMB_BATCH, skip=_JUMPS - 3, width=3)
@example(entropy=LIMB_BATCH, skip=_JUMPS - 2, width=3)
@example(entropy=LIMB_BATCH, skip=COORD_CHUNK, width=3)
@example(entropy=LIMB_BATCH, skip=0, width=120)
@example(entropy=EDGE_STREAMS, skip=0, width=8)
def test_stream_uniforms_match_generator_random(entropy, skip, width):
    # up to 64 streams of up to 120 outputs, often near the start of the
    # stream: both sides of the cached jumps' end
    skip = min(skip, COORD_CHUNK - width)
    entropy = [tuple(_as_entropy(p) for p in e) for e in entropy]
    # one batch: the tuples are of one length
    states = pcg64_states([np.array(col, dtype=np.uint64) for col in zip(*entropy)])
    assert _as_pairs(states) == [_numpy_state(e) for e in entropy]
    drawn = stream_uniforms(states, skip, width)
    expected = [np.random.default_rng(np.random.SeedSequence(e)).random(skip + width)[skip:]
                for e in entropy]
    assert np.array_equal(drawn, np.array(expected).reshape(len(entropy), width))


@ORACLE_SETTINGS
@given(seed=st.integers(-(2**63), 2**64 - 1), data=st.data())
def test_coordinate_uniforms_match_one_generator_per_chunk(seed, data):
    dim = data.draw(st.integers(1, 3 * COORD_CHUNK + 5))
    start = data.draw(st.integers(0, dim))
    stop = data.draw(st.integers(start, dim))
    expected = np.concatenate([np.zeros(0)] + [
        np.random.default_rng(np.random.SeedSequence((_COORD_TAG, _as_entropy(seed), c0)))
        .random(min(COORD_CHUNK, dim - c0))[max(start, c0) - c0:stop - c0]
        for c0 in range(start - start % COORD_CHUNK, stop, COORD_CHUNK)])
    assert np.array_equal(coordinate_uniforms(seed, start, stop, dim), expected)


@pytest.mark.parametrize("coord_range", [None, (COORD_CHUNK, 2 * COORD_CHUNK + 37)])
def test_cohort_rows_sample_the_coordinate_walk_of_their_seed(coord_range):
    # the oracle test above checks coordinate_uniforms against numpy; this
    # ties each row of a cohort's draws to that same walk for the row's seed
    mech = _hand_mech()
    d = 2 * COORD_CHUNK + 37
    lo, hi = coord_range or (0, d)
    u = np.random.default_rng(5).normal(scale=0.02, size=(3, d))
    seeds = [9, 2**40 + 1, -4]
    indices, _ = privatize_vector(mech, u, seeds, coord_range=coord_range)
    x = scale_input(clip(u, mech.clip)[:, lo:hi], mech)
    for row, seed, got in zip(x, seeds, indices):
        i, t = _bracket(mech.table.b_in, row)
        expected = _sample(mech.table.log_probs, i, t, coordinate_uniforms(seed, lo, hi, d))
        assert np.array_equal(got, expected)


def _draws_from_six_threads_match(streams: int, width: int, path: str) -> None:
    states = pcg64_states([_COORD_TAG, np.arange(2**40, 2**40 + streams, dtype=np.uint64), 0])
    assert _draw_path(states, 5, width) == path
    expected = stream_uniforms(states, 5, width)
    mismatches = []

    def worker():
        for _ in range(150):
            if not np.array_equal(stream_uniforms(states, 5, width), expected):
                mismatches.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not mismatches


def test_stream_uniforms_from_many_threads_match_one_thread():
    # the draws share one bit generator; a set-then-draw pair split by a
    # thread switch would hand one thread another's stream
    _draws_from_six_threads_match(6, 300, "raw")


def test_limb_stream_uniforms_from_many_threads_match_one_thread():
    # limb draws take no lock: they share only the read-only jump constants
    assert not _jump_table().flags.writeable
    _draws_from_six_threads_match(60, 20, "limbs")
