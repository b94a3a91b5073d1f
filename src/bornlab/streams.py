"""Deterministic RNG stream derivation for seeded trials.

Every random draw comes from substream(seed, *address): a scan at an address
draws all of its rows from substream(seed, *address), one row after another,
so a result depends only on its address, never on what was drawn before it,
no row depends on how many rows follow it, and a report's address replays
any of its rows.  A defect scan of fewer than 8 trials draws trial i from
substream(seed, *address, i) instead, and sample draws part t of every pair,
pair by pair, from substream(seed, t).

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
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# generate_state's hash constants INIT_B * MULT_B**j mod 2**32, j = 0..8: word j
# of the state is (pool[j % 4] ^ _HASH[j]) * _HASH[j + 1], xorshifted by 16.
# Slices, shift and dtypes are built once: per call each costs as much as an op.
_HASH = np.array([0x8B51F9DD * pow(0x58F38DED, j, 1 << 32) & 0xFFFFFFFF for j in range(9)], dtype=np.uint32)
_XOR, _MUL, _SHIFT = _HASH[:-1], _HASH[1:], np.uint32(16)
_CYCLE = np.arange(8) % 4  # eight 32-bit words cycle through the pool of four
_LE32, _LE64 = np.dtype("<u4"), np.dtype("<u8")


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


def substream(seed: int, *indices: int) -> np.random.Generator:
    """Return an independent generator for a (seed, *indices) address: its
    SeedSequence gets the address as one uint32 array of words, and PCG64
    its seed words from the sequence's pool (see the module docstring).
    np.random.SeedSequence is looked up at each call, so a replacement (a
    test's recording subclass) is the one that runs."""
    state = np.random.SeedSequence(_words(seed, *indices)).pool[_CYCLE]  # a copy
    state ^= _XOR
    state *= _MUL  # uint32 arithmetic wraps mod 2**32
    state ^= state >> _SHIFT
    # generate_state's byte-order recipe; no copy of a C-ordered state on a little-endian host
    words = state.astype(_LE32, order="C", copy=False).view(_LE64).astype(np.uint64, copy=False)
    return np.random.Generator(np.random.PCG64(_Seeded(words)))
