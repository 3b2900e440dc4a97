"""Deterministic random-stream derivation shared by every randomized pipeline.

Every stream is numpy's ``PCG64`` seeded through ``SeedSequence`` from an
entropy tuple of labels, each a str or an integer.  ``substream`` builds one
such generator by name.  The per-client and per-coordinate-chunk streams of
a federated round come in batches, and ``pcg64_states``, ``substream_seeds``
and ``stream_uniforms`` take a whole batch, bit for bit as numpy runs each
stream; a batch may span many rounds, since no label depends on the model.
Stream states stay in this module and the arrays it returns:
``coordinate_states`` derives the states of a batch of coordinate streams,
and callers draw coordinate uniforms from them through the one walk,
``coordinate_blocks``.

A batch runs in uint64 limbs: each 128-bit value is a pair of uint64
arrays, and every stream moves through one pass of array arithmetic.
SeedSequence's 32-bit hash runs on all rows at once; PCG64's seeding,
state = (initstate + inc) M + inc, is one LCG step from initstate + inc.
PCG64 is an LCG, so k steps take a state s with increment
inc to A_k s + C_k inc (mod 2**128), with A_k = M**k and
C_k = 1 + M + ... + M**(k-1) (Brown, "Random number generation with
arbitrary strides", 1994).  With A_k and C_k cached for every k up to
``_JUMPS``, a stream's first output, and every output of a block that ends
within ``_JUMPS`` steps of its stream's start, is one such jump followed by
PCG64's XSL-RR output function.  Only a block that ends past the cached
jumps leaves limbs: ``random_raw`` on the shared ``_DRAW`` draws it, one
stream at a time.
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

# The bit generator of every block that ends past the cached jumps (the
# 4096-wide coordinate blocks of a wide vector): each draw sets the whole
# state first, so no caller sees another's, and holding the generator's
# (reentrant) lock over the set-then-draw pair keeps threads apart.  Only
# this path takes the lock; limb draws share nothing that is written.
# Setting one generator's state costs less than building one per stream.
_DRAW = np.random.PCG64(0)


def _as_entropy(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    # a float would be truncated into an integer's stream, and a bool read as 0 or 1
    if isinstance(part, bool) or not isinstance(part, (int, np.integer)):
        raise ValueError(f"a stream label is a str or an integer, not {type(part).__name__}")
    return int(part) & _MASK64


def _label_column(labels) -> np.ndarray:
    """The uint64 entropy of a column of labels, one per stream: an integer
    array as is (modulo 2**64), anything else label by label."""
    if isinstance(labels, np.ndarray) and labels.dtype.kind in "iu":
        return labels.astype(np.uint64)
    return np.array([_as_entropy(p) for p in labels], dtype=np.uint64)


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
    """Per source slot, the hash constants of the all-pairs round as (4, 1)
    columns by destination slot (0 at the source slot itself, whose result is
    dropped)."""
    a = _hash_consts(_INIT_A, _MULT_A, 4 * _POOL).tolist()
    out, k = [], _POOL
    for s in range(_POOL):
        xor, mult = [0] * _POOL, [0] * _POOL
        for d in range(_POOL):
            if d != s:
                xor[d], mult[d] = a[k], a[k + 1]
                k += 1
        out.append((np.array(xor, np.uint32)[:, None], np.array(mult, np.uint32)[:, None]))
    return out


_PAIR_CONSTS = _pair_consts()


def _generate_state(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(8)`` for each column of uint32
    entropy words, as (8, n) words: one stream per column, all of the same
    word count.

    The pool is slot-major, (4, n), and each hash constant a (4, 1) column,
    so every ufunc runs one inner loop over the n streams."""
    w, n = words.shape
    if w < _POOL:   # a short entropy array hashes like one padded with zeros
        words = np.concatenate([words, np.zeros((_POOL - w, n), np.uint32)])
        w = _POOL
    a = _hash_consts(_INIT_A, _MULT_A, _POOL * w)[:, None]   # 4w hashmix steps
    pool = _hashmix(words[:_POOL], a[:_POOL], a[1:_POOL + 1])
    # all-pairs round: source slot s mixes into the three others in ascending
    # order; all four slots are computed and slot s is put back
    for s, (xor, mult) in enumerate(_PAIR_CONSTS):
        mixed = _mix(pool, _hashmix(pool[s], xor, mult))
        mixed[s] = pool[s]
        pool = mixed
    # each entropy word past the pool mixes into every slot; word j's steps
    # start at 4j, after the 4 initial and 12 all-pairs steps
    for j in range(_POOL, w):
        k = _POOL * j
        pool = _mix(pool, _hashmix(words[j], a[k:k + _POOL], a[k + 1:k + _POOL + 1]))
    # generate_state(8) cycles through the pool twice
    b = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)[:, None]
    return _hashmix(np.concatenate((pool, pool)), b[:-1], b[1:])


def _entropy_rows(columns) -> np.ndarray:
    """The (n, k) uint64 entropy tuples of ``columns`` (see ``pcg64_states``)."""
    n = max(col.size if isinstance(col, np.ndarray) else 1 for col in columns)
    entropy = np.empty((n, len(columns)), dtype="<u8")
    for k, col in enumerate(columns):
        entropy[:, k] = col
    return entropy


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for each row of
    ``entropy``, hashed for all rows at once.  SeedSequence takes an int
    below 2**32 as one 32-bit word and a larger one as two, so the streams
    are hashed in groups of equal word count."""
    words = entropy.view("<u4")          # (low, high) word of each entry
    wide = words[:, 1::2] != 0           # entries that take two words
    if (wide == wide[0]).all():          # the usual batch: one word count
        return _group_seed_words(words, wide[0])
    seeds = np.empty((len(entropy), 4), dtype=np.uint64)
    for pattern in np.unique(wide, axis=0):
        rows = np.flatnonzero((wide == pattern).all(axis=1))
        seeds[rows] = _group_seed_words(words[rows], pattern)
    return seeds


def _group_seed_words(words: np.ndarray, wide: np.ndarray) -> np.ndarray:
    """Seed words of streams whose entries split into words alike: ``words``
    holds each entry's (low, high) pair, ``wide`` marks the entries whose
    high word counts."""
    keep = np.ones((wide.size, 2), dtype=bool)
    keep[:, 1] = wide
    seeds = _generate_state(words.T[keep.ravel()])
    # 32-bit words pair up little-endian into 64-bit ones
    return np.ascontiguousarray(seeds.T, dtype="<u4").view("<u8")


# Streams hashed and advanced together: the temporaries of ``_seed_words``
# and ``_advance`` (about 290 B a stream) grow with a slice, not a batch.
_SLICE_STREAMS = 4096


def _stepped_states(columns, steps: int) -> np.ndarray:
    """``pcg64_states`` rows of the streams of ``columns``, each ``steps`` LCG
    steps past its pre-seed state, hashed and advanced ``_SLICE_STREAMS``
    streams at a time."""
    entropy = _entropy_rows(columns)
    states = np.empty((len(entropy), 4), dtype=np.uint64)
    for a in range(0, len(entropy), _SLICE_STREAMS):
        pre = _pre_seed(_seed_words(entropy[a:a + _SLICE_STREAMS]))
        hi, lo = _advance(pre, steps, 1)
        pre[:, 0], pre[:, 1] = hi[:, 0], lo[:, 0]
        states[a:a + _SLICE_STREAMS] = pre
    return states


def pcg64_states(columns) -> np.ndarray:
    """``np.random.PCG64(np.random.SeedSequence(entropy)).state`` for n streams at once.

    ``columns`` holds the entropy tuples column by column: a uint64 array of
    length n, or one int in [0, 2**64) that every stream shares.  Returns an
    (n, 4) uint64 array, one row per stream: the high and low 64 bits of its
    state, then of its inc.
    """
    # the seeded state is one step past the pre-seed state
    return _stepped_states(columns, 1)


def substream_seeds(seed: int, *path) -> np.ndarray:
    """``int(substream(seed, *path).integers(2**62))`` for a batch of paths,
    as a uint64 array.

    Each entry of ``path`` is a label (str or int) or an array that gives
    one label per stream.  ``integers(2**62)`` is the first output shifted
    right by 2: Lemire's bounded draw never rejects a power-of-two range.
    """
    columns = [_NAME_TAG, _as_entropy(seed)]
    columns += [_label_column(p) if isinstance(p, np.ndarray) else _as_entropy(p)
                for p in path]
    # the first output's state is two steps past the pre-seed state
    states = _stepped_states(columns, 2)
    first = _xsl_rr(states[:, 0], states[:, 1])
    first >>= np.uint64(2)
    return first


def stream_uniforms(states: np.ndarray, skip: int, width: int) -> np.ndarray:
    """``Generator.random`` draws ``skip`` to ``skip + width`` of each PCG64
    stream in ``states`` (``pcg64_states`` rows), one row per stream:
    (raw >> 11) * 2**-53 per output, in limbs unless the block ends past
    the cached jumps."""
    if skip + width <= _JUMPS:
        raw = _xsl_rr(*_advance(states, skip + 1, width))
    else:
        raw = np.empty((len(states), width), dtype=np.uint64)
        with _DRAW.lock:
            for row, (s_hi, s_lo, i_hi, i_lo) in enumerate(states.tolist()):
                _DRAW.state = {"bit_generator": "PCG64",
                               "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
                               "has_uint32": 0, "uinteger": 0}
                raw[row] = _DRAW.random_raw(skip + width)[skip:]
    raw >>= np.uint64(11)
    return raw * 2.0**-53


# ---------------------------------------------------------------------------
# PCG64 in uint64 limbs
# ---------------------------------------------------------------------------

# Steps the cached jump constants reach: the hard limit of a limb draw, which
# ends at most this many outputs into its stream.
_JUMPS = 128

_LOW = np.uint64(_MASK32)
_32 = np.uint64(32)

# _advance sums 14 uint64 products, each of one limb of a jump constant
# (A, C) and one limb of a state (s, inc), both laid out by _limbs.  These
# are the two factors' rows, product by product: a0 s0, c0 i0 | a0 s1,
# a1 s0, c0 i1, c1 i0 | a1 s1, c1 i1 | a_lo s_hi, a_hi s_lo, c_lo i_hi,
# c_hi i_lo | a_lo s_lo, c_lo i_lo, where 0 and 1 name the low and the high
# 32-bit half of a low limb.
_JUMP_ROWS = np.array([4, 5, 4, 6, 5, 7, 6, 7, 1, 0, 3, 2, 1, 3])
_STATE_ROWS = np.array([4, 5, 6, 4, 7, 5, 6, 7, 0, 1, 2, 3, 1, 3])


def _limbs(pairs: np.ndarray) -> np.ndarray:
    """Limb rows of 128-bit pairs (x, y), given as the rows x hi, x lo, y hi,
    y lo: those four, then the low 32-bit halves of x lo and y lo, then
    their high halves."""
    out = np.empty((8,) + pairs.shape[1:], dtype=np.uint64)
    out[:4] = pairs
    np.bitwise_and(out[1:4:2], _LOW, out=out[4:6])
    np.right_shift(out[1:4:2], _32, out=out[6:8])
    return out


@functools.cache
def _jump_table() -> np.ndarray:
    """Column k, for k in [0, _JUMPS], holds the limbs of A_k = M**k and
    C_k = 1 + M + ... + M**(k-1) (mod 2**128, M the LCG multiplier) that
    ``_advance`` multiplies: k steps take a state s with increment inc to
    A_k s + C_k inc."""
    jumps = np.empty((4, _JUMPS + 1), dtype=np.uint64)
    a, c = 1, 0
    for k in range(_JUMPS + 1):
        jumps[:, k] = a >> 64, a & _MASK64, c >> 64, c & _MASK64
        a, c = a * _PCG_MULT & _MASK128, (c * _PCG_MULT + 1) & _MASK128
    out = _limbs(jumps)[_JUMP_ROWS]
    out.flags.writeable = False   # cached and shared by every call
    return out


def _pre_seed(seeds: np.ndarray) -> np.ndarray:
    """``pcg64_states`` rows one LCG step before PCG64's seeded state.

    srandom sets inc = 2 seq + 1 and steps once from initstate + inc, where
    initstate and seq are the first and last two seed words."""
    pre = np.empty_like(seeds)
    inc_hi, inc_lo = pre[:, 2], pre[:, 3]
    np.left_shift(seeds[:, 2], np.uint64(1), out=inc_hi)
    inc_hi |= seeds[:, 3] >> np.uint64(63)
    np.left_shift(seeds[:, 3], np.uint64(1), out=inc_lo)
    inc_lo |= np.uint64(1)
    np.add(inc_lo, seeds[:, 1], out=pre[:, 1])
    np.add(inc_hi, seeds[:, 0], out=pre[:, 0])
    pre[:, 0] += pre[:, 1] < inc_lo          # carry out of the low limb
    return pre


def _advance(states: np.ndarray, first: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The (high, low) limbs of each stream's state ``first`` to
    ``first + width - 1`` LCG steps on, one (streams, width) array each.

    k steps take s to A_k s + C_k inc (mod 2**128).  A product with a high
    limb, and the product of the high halves of two low limbs, only adds to
    the high limb, modulo 2**64.  The other products of 32-bit halves of the
    low limbs are summed by 32-bit columns, which gives the carries out of
    the low limb exactly.
    """
    jumps = _jump_table()[:, None, first:first + width]
    prod = jumps * _limbs(states.T)[_STATE_ROWS][:, :, None]
    low = prod[:6] & _LOW
    prod[:6] >>= _32
    hi = np.add.reduce(prod[2:12], axis=0)
    low[1] += low[0]                         # the lowest column's carry
    low[1] >>= _32
    np.add(prod[0], prod[1], out=low[0])
    mid = np.add.reduce(low, axis=0)         # bits 32..63 and their carry
    mid >>= _32
    hi += mid
    return hi, prod[12] + prod[13]


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's output of each state: hi ^ lo rotated right by hi >> 58."""
    rot = hi >> np.uint64(58)
    np.bitwise_xor(hi, lo, out=lo)
    out = lo >> rot
    np.subtract(np.uint64(64), rot, out=rot)
    rot &= np.uint64(63)
    lo <<= rot
    out |= lo
    return out


def _chunk_bases(lo: int, hi: int) -> range:
    """The first coordinate of each ``COORD_CHUNK`` chunk that [lo, hi) meets."""
    return range(lo - lo % COORD_CHUNK, hi, COORD_CHUNK) if lo < hi else range(0)


def coordinate_states(seeds, lo: int, hi: int) -> np.ndarray:
    """The states of every (chunk, seed) coordinate stream of [lo, hi), derived
    in one batch: a (chunks, len(seeds), 4) uint64 array of ``pcg64_states``
    rows, one plane per ``COORD_CHUNK`` chunk that [lo, hi) meets.

    ``seeds`` are integer labels, or an integer array such as
    ``substream_seeds`` returns.  Coordinate k of seed s draws from the
    stream of (s, k's chunk) alone, so the states of many cohorts, or many
    rounds, can be derived at once and sliced along the seed axis.
    """
    seed_col, bases = _label_column(seeds), _chunk_bases(lo, hi)
    if not bases:
        return np.empty((0, seed_col.size, 4), dtype=np.uint64)
    states = pcg64_states([_COORD_TAG, np.tile(seed_col, len(bases)),
                           np.repeat(np.array(bases, dtype=np.uint64), seed_col.size)])
    return states.reshape(len(bases), seed_col.size, 4)


def coordinate_blocks(states: np.ndarray, lo: int, hi: int):
    """The coordinate walk: for each ``COORD_CHUNK`` block [c0, c1) of [lo, hi)
    in order, yields ``(c0, c1, draws)`` with one row of uniforms per seed.

    ``states`` are ``coordinate_states(seeds, lo, hi)``, or a slice of them
    along the seed axis.  Any chunk-aligned split of a range reproduces the
    draws of the whole.
    """
    bases = _chunk_bases(lo, hi)
    if not (isinstance(states, np.ndarray) and states.dtype == np.uint64
            and states.ndim == 3 and states.shape[::2] == (len(bases), 4)):
        raise ValueError(f"coordinate states of [{lo}, {hi}) are a uint64 array of shape "
                         f"({len(bases)}, seeds, 4)")
    for base, plane in zip(bases, states):
        c0, c1 = max(lo, base), min(hi, base + COORD_CHUNK)
        yield c0, c1, stream_uniforms(plane, c0 - base, c1 - c0)


def coordinate_uniforms(seed: int, start: int, stop: int, dim: int) -> np.ndarray:
    """Uniform draws for coordinates [start, stop) of a dim-length vector:
    ``coordinate_blocks`` for the one seed, concatenated."""
    if not 0 <= start <= stop <= dim:
        raise ValueError(f"coordinate range [{start}, {stop}) out of bounds for dim {dim}")
    states = coordinate_states([seed], start, stop)
    blocks = [draws[0] for _, _, draws in coordinate_blocks(states, start, stop)]
    return np.concatenate(blocks) if blocks else np.empty(0)
