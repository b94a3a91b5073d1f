"""Deterministic RNG stream derivation for seeded trials.

Every random draw comes from substream(seed, *address): a scan at an address
draws its trial or block i from substream(seed, *address, i), so a result
depends only on its address, never on what was drawn before it, and a
report's address replays any of its draws.

np.random.SeedSequence pads its entropy with zero words up to four 32-bit
words (a seed from 2**32 up takes two), so addresses that differ only in
trailing zeros within those four words are one stream: substream(s, k),
substream(s, k, 0) and substream(s, k, 0, 0) coincide for s < 2**32, while
a fifth word, even a zero, makes a different stream.

PCG64 is seeded with the four 64-bit words SeedSequence.generate_state(4,
np.uint64) would return, computed from the sequence's pool in one array
expression (_Seeded), since generate_state mixes them in a Python loop over
numpy scalars.  The generator and its draws are numpy's own; only a
substream's rng.bit_generator.seed_seq differs: it holds those words and
nothing else, so it cannot spawn.

substreams derives those words for a whole family of addresses in one numpy
pass of SeedSequence's mixing, at a larger fixed cost than substream.  sample
takes its 5 * trials pair streams as one family, and the defect scan its
trials' streams from FAMILY_MIN on, the measured crossover: at d = 5 a scan
of 7 trials takes 138 us with a substream per trial and 149 us with a family,
of 8 trials 158 and 152 us, of 1,000 trials 14.7 and 3.0 ms (2-core x86-64
VM; BENCH_defect_family.json).  Every other caller takes substream.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable, Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

BLOCK = 128  # draws per block: the unit of streams and checks
FAMILY_MIN = 8  # streams from which one substreams family is cheaper than a substream each

# generate_state's hash constants INIT_B * MULT_B**j mod 2**32, j = 0..8: word j
# of the state is (pool[j % 4] ^ _HASH[j]) * _HASH[j + 1], xorshifted by 16.
# Slices, shift and dtypes are built once: per call each costs as much as an op.
_HASH = np.array([0x8B51F9DD * pow(0x58F38DED, j, 1 << 32) & 0xFFFFFFFF for j in range(9)], dtype=np.uint32)
_XOR, _MUL, _SHIFT = _HASH[:-1], _HASH[1:], np.uint32(16)
_CYCLE = np.arange(8) % 4  # eight 32-bit words cycle through the pool of four
_LE32, _LE64 = np.dtype("<u4"), np.dtype("<u8")
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)  # mix_entropy's mix(x, y) multipliers


class _Seeded(ISeedSequence):
    """The 64-bit seed words PCG64 asks a SeedSequence for, computed already."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or dtype is not np.uint64:  # PCG64's one request
            raise ValueError("holds only the four uint64 words that seeded PCG64")
        return self.words


def _words(*address: int) -> np.ndarray:
    """An address as uint32 words, each entry's least significant first; 0 is [0]."""
    words = []
    for n in map(operator.index, address):
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & 0xFFFFFFFF)
        while n := n >> 32:
            words.append(n & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


def _seed_words(state: np.ndarray) -> np.ndarray:
    """The uint64 seed words (..., 4) of pools cycled to a copy pool[_CYCLE] (..., 8)."""
    state ^= _XOR
    state *= _MUL  # uint32 arithmetic wraps mod 2**32
    state ^= state >> _SHIFT
    # generate_state's byte-order recipe; no copy of a C-ordered state on a little-endian host
    return state.astype(_LE32, order="C", copy=False).view(_LE64).astype(np.uint64, copy=False)


def substream(seed: int, *indices: int) -> np.random.Generator:
    """Return an independent generator for a (seed, *indices) address: its
    SeedSequence gets the address as one uint32 array of words, and PCG64
    its seed words from the sequence's pool (see the module docstring).
    np.random.SeedSequence is looked up at each call, so a replacement (a
    test's recording subclass) is the one that runs."""
    state = np.random.SeedSequence(_words(seed, *indices)).pool[_CYCLE]  # a copy
    return np.random.Generator(np.random.PCG64(_Seeded(_seed_words(state))))


@functools.cache
def _mix_hash(calls: int) -> np.ndarray:
    """mix_entropy's constants INIT_A * MULT_A**k mod 2**32, k = 0..calls: hashmix k xors k, multiplies by k + 1."""
    return np.array([0x43B0D7E5 * pow(0x931E8875, k, 1 << 32) & 0xFFFFFFFF for k in range(calls + 1)], dtype=np.uint32)


def substreams(seed: int, *indices: int, shape: tuple[int, ...]) -> np.ndarray:
    """The seed words (*shape, 4) of substream(seed, *indices, *idx) for every idx in np.ndindex(shape):
    each mix_entropy step in its order over all addresses, then substream's word step.  A dimension
    above 2**32, whose last index would take two words, is refused before anything is allocated."""
    if any(size > 1 << 32 for size in shape):
        raise ValueError(f"shape {shape} has a dimension above 2**32")
    prefix, n = _words(seed, *indices), math.prod(shape)
    width = prefix.size + len(shape)  # words per address; entropy is zero-padded to four, as SeedSequence pads
    grid = np.indices(shape, dtype=np.uint32).reshape(len(shape), n).T
    entropy = np.hstack([np.broadcast_to(prefix, (n, prefix.size)), grid, np.zeros((n, max(4 - width, 0)), np.uint32)])
    hash_ = _mix_hash(4 * entropy.shape[1])

    def hashmix(values: np.ndarray, k: int, m: int) -> np.ndarray:  # hashmix calls k .. k + m - 1
        h = (values ^ hash_[k : k + m]) * hash_[k + 1 : k + m + 1]
        return h ^ (h >> _SHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = _MIX_L * x - _MIX_R * y
        return r ^ (r >> _SHIFT)

    pool = hashmix(entropy[:, :4], 0, 4)
    for src, dst in enumerate([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]):  # each pool word into the other three
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src, None], 4 + 3 * src, 3))
    for j in range(4, width):  # each word past the fourth into every pool word
        pool = mix(pool, hashmix(entropy[:, j, None], 4 * j, 4))
    return _seed_words(pool[:, _CYCLE]).reshape(*shape, 4)


def generators(words: np.ndarray) -> Iterator[np.random.Generator]:
    """The generators of seed words (n, 4) from substreams, each built as it is read."""
    return (np.random.Generator(np.random.PCG64(_Seeded(w))) for w in words)


def blockwise(
    kernel: Callable[[int, np.random.Generator], np.ndarray],
    n: int,
    seed: int,
    *indices: int,
) -> np.ndarray:
    """Results of kernel(size, rng) for n draws, stacked over blocks of BLOCK.

    Block b holds the draws [b*BLOCK, (b+1)*BLOCK), so its size is BLOCK but
    for the last; it draws all its randomness from substream(seed, *indices, b)
    and returns one result row per draw.  A full block does not depend on how
    many draws follow it.  A kernel that only draws (and checks) its block
    leaves the arithmetic to run once on the stacked rows, which gives the
    same bits as running it per block wherever that arithmetic is row by row.
    """
    return np.concatenate([
        kernel(min(BLOCK, n - start), substream(seed, *indices, b)) for b, start in enumerate(range(0, n, BLOCK))
    ])
