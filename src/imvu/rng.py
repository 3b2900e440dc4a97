"""Deterministic random-stream derivation shared by every randomized pipeline.

Every stream is numpy's ``PCG64`` seeded through ``SeedSequence`` from an
entropy tuple of labels.  ``substream`` builds one such generator by name.
The per-client and per-coordinate-chunk streams of a federated round come in
batches, so ``pcg64_states`` derives a whole batch at once, bit for bit as
numpy seeds each stream.  Stream states stay in this module: callers draw
coordinate uniforms through the one walk, ``coordinate_blocks``.
"""

from __future__ import annotations

import functools
import zlib

import numpy as np

# Coordinates per independent substream in vector privatization.  Workers may
# only split work on chunk boundaries, which keeps the drawn values identical
# for any worker count.
COORD_CHUNK = 4096

# Domain-separation tags so a named substream can never collide with a
# coordinate substream derived from the same root seed.
_NAME_TAG = 0x6E616D65
_COORD_TAG = 0x636F6F72

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# numpy's SeedSequence (O'Neill's seed_seq_fe): pool words and hash constants.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)

# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# One bit generator for every draw: each draw sets the whole state first, so
# no caller sees another's, and holding the generator's (reentrant) lock over
# the set-then-draw pair keeps threads apart.  Building a generator per call
# would cost as much as deriving a stream.
_DRAW = np.random.PCG64(0)


def _as_entropy(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    return int(part) & _MASK64


def substream(seed: int, *path) -> np.random.Generator:
    """Generator derived from a root seed and a path of labels (str or int)."""
    entropy = (_NAME_TAG, _as_entropy(seed)) + tuple(_as_entropy(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(entropy))


@functools.lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The n + 1 successive values of a seed_seq_fe hash constant."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    out = np.array(out, dtype=np.uint32)
    out.flags.writeable = False   # cached and shared by every call
    return out


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """seed_seq_fe's hashmix: ``xor`` holds the hash constant of each step,
    ``mult`` the constant after the step, which multiplies."""
    v = values ^ xor
    v *= mult
    v ^= v >> _SHIFT
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """seed_seq_fe's mix of pool words x with hashed words y (scaled in place)."""
    y *= _MIX_R
    r = x * _MIX_L
    r -= y
    r ^= r >> _SHIFT
    return r


def _pair_consts() -> list[tuple[np.ndarray, np.ndarray]]:
    """Per source slot, the hash constants of the all-pairs round laid out by
    destination slot (0 at the source slot itself, whose result is dropped)."""
    a = _hash_consts(_INIT_A, _MULT_A, 4 * _POOL).tolist()
    out, k = [], _POOL
    for s in range(_POOL):
        xor, mult = [0] * _POOL, [0] * _POOL
        for d in range(_POOL):
            if d != s:
                xor[d], mult[d] = a[k], a[k + 1]
                k += 1
        out.append((np.array(xor, np.uint32), np.array(mult, np.uint32)))
    return out


_PAIR_CONSTS = _pair_consts()


def _generate_state(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(8)`` for each row of uint32
    entropy words: one stream per row, all rows of the same word count."""
    n, w = words.shape
    if w < _POOL:   # a short entropy array hashes like one padded with zeros
        words = np.concatenate([words, np.zeros((n, _POOL - w), np.uint32)], axis=1)
        w = _POOL
    a = _hash_consts(_INIT_A, _MULT_A, _POOL * w)   # 4w hashmix steps
    pool = _hashmix(words[:, :_POOL], a[:_POOL], a[1:_POOL + 1])
    # all-pairs round: source slot s mixes into the three others in ascending
    # order; all four slots are computed and slot s is put back
    for s, (xor, mult) in enumerate(_PAIR_CONSTS):
        mixed = _mix(pool, _hashmix(pool[:, s, None], xor, mult))
        mixed[:, s] = pool[:, s]
        pool = mixed
    # each entropy word past the pool mixes into every slot; word j's steps
    # start at 4j, after the 4 initial and 12 all-pairs steps
    for j in range(_POOL, w):
        k = _POOL * j
        pool = _mix(pool, _hashmix(words[:, j, None], a[k:k + _POOL], a[k + 1:k + _POOL + 1]))
    # generate_state(8) cycles through the pool twice
    b = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
    return _hashmix(np.concatenate((pool, pool), axis=1), b[:-1], b[1:])


def _pcg64_seed(s0: int, s1: int, s2: int, s3: int) -> tuple[int, int]:
    """PCG64's srandom from the seed words: (state, inc) after seeding."""
    inc = (((s2 << 64 | s3) << 1) | 1) & _MASK128
    return ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128, inc


def pcg64_states(columns) -> list[tuple[int, int]]:
    """``np.random.PCG64(np.random.SeedSequence(entropy)).state`` for n streams at once.

    ``columns`` holds the entropy tuples column by column: a uint64 array of
    length n, or one int in [0, 2**64) that every stream shares.  Returns each
    stream's ``(state, inc)``.  SeedSequence takes an int below 2**32 as one
    32-bit word and a larger one as two, so the streams are hashed in groups
    of equal word count.
    """
    n = max(col.size if isinstance(col, np.ndarray) else 1 for col in columns)
    entropy = np.empty((n, len(columns)), dtype="<u8")
    for k, col in enumerate(columns):
        entropy[:, k] = col
    words = entropy.view("<u4")          # (low, high) word of each entry
    wide = words[:, 1::2] != 0           # entries that take two words
    if (wide == wide[0]).all():          # the usual batch: one word count
        return _seed_states(words, wide[0])
    states = [None] * n
    for pattern in np.unique(wide, axis=0):
        rows = np.flatnonzero((wide == pattern).all(axis=1))
        for r, state in zip(rows.tolist(), _seed_states(words[rows], pattern)):
            states[r] = state
    return states


def _seed_states(words: np.ndarray, wide: np.ndarray) -> list[tuple[int, int]]:
    """Seeded PCG64 states of streams whose entries split into words alike:
    ``words`` holds each entry's (low, high) pair, ``wide`` marks the entries
    whose high word counts."""
    keep = np.ones((wide.size, 2), dtype=bool)
    keep[:, 1] = wide
    seeds = _generate_state(words[:, keep.ravel()])
    # 32-bit words pair up little-endian into 64-bit ones
    seeds = np.ascontiguousarray(seeds, dtype="<u4").view("<u8")
    return [_pcg64_seed(*s) for s in seeds.tolist()]


def _pcg64_next(state: int, inc: int) -> int:
    """The first 64-bit output of PCG64 (XSL-RR) from (state, inc)."""
    state = (state * _PCG_MULT + inc) & _MASK128
    x = (state >> 64) ^ (state & _MASK64)
    rot = state >> 122
    return ((x >> rot) | (x << (64 - rot))) & _MASK64


def substream_seeds(seed: int, *path) -> list[int]:
    """``int(substream(seed, *path).integers(2**62))`` for a batch of paths.

    Each entry of ``path`` is a label (str or int) or an integer array that
    gives one label per stream.  ``integers(2**62)`` is the first output
    shifted right by 2: Lemire's bounded draw never rejects a power-of-two
    range.
    """
    columns = [_NAME_TAG, _as_entropy(seed)]
    columns += [p.astype(np.uint64) if isinstance(p, np.ndarray) else _as_entropy(p)
                for p in path]
    return [_pcg64_next(*state) >> 2 for state in pcg64_states(columns)]


def stream_uniforms(states, skip: int, width: int) -> np.ndarray:
    """``Generator.random`` draws ``skip`` to ``skip + width`` of each PCG64
    stream in ``states``, one row per stream: (raw >> 11) * 2**-53 per output."""
    raw = np.empty((len(states), width), dtype=np.uint64)
    with _DRAW.lock:
        for row, (state, inc) in enumerate(states):
            _DRAW.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                           "has_uint32": 0, "uinteger": 0}
            raw[row] = _DRAW.random_raw(skip + width)[skip:]
    raw >>= np.uint64(11)
    return raw * 2.0**-53


def coordinate_blocks(seeds, lo: int, hi: int):
    """The coordinate walk: for each ``COORD_CHUNK`` block [c0, c1) of [lo, hi)
    in order, yields ``(c0, c1, draws)`` with one row of uniforms per seed.

    Coordinate k of seed s draws from the stream of (s, k's chunk) alone, so
    any chunk-aligned split of a range reproduces the draws of the whole.  The
    states of every (seed, chunk) stream are derived in one batch.
    """
    if lo >= hi:
        return
    bases, n = range(lo - lo % COORD_CHUNK, hi, COORD_CHUNK), len(seeds)
    seed_col = np.array([_as_entropy(s) for s in seeds], dtype=np.uint64)
    states = pcg64_states([_COORD_TAG, np.tile(seed_col, len(bases)),
                           np.repeat(np.array(bases, dtype=np.uint64), n)])
    for k, base in enumerate(bases):
        c0, c1 = max(lo, base), min(hi, base + COORD_CHUNK)
        yield c0, c1, stream_uniforms(states[k * n:(k + 1) * n], c0 - base, c1 - c0)


def coordinate_uniforms(seed: int, start: int, stop: int, dim: int) -> np.ndarray:
    """Uniform draws for coordinates [start, stop) of a dim-length vector:
    ``coordinate_blocks`` for the one seed, concatenated."""
    if not 0 <= start <= stop <= dim:
        raise ValueError(f"coordinate range [{start}, {stop}) out of bounds for dim {dim}")
    blocks = [draws[0] for _, _, draws in coordinate_blocks([seed], start, stop)]
    return np.concatenate(blocks) if blocks else np.empty(0)
