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
"""

from __future__ import annotations

import operator
from typing import Callable

import numpy as np

BLOCK = 128  # draws per block: the unit of streams and checks


def substream(seed: int, *indices: int) -> np.random.Generator:
    """Return an independent generator for a (seed, *indices) address: its
    SeedSequence gets the address as one uint32 array of words."""
    words = []  # each entry in 32-bit words, least significant first; 0 is [0]
    for n in map(operator.index, (seed, *indices)):
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & 0xFFFFFFFF)
        while n := n >> 32:
            words.append(n & 0xFFFFFFFF)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.array(words, dtype=np.uint32))))


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
