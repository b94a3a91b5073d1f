"""Deterministic RNG stream derivation for seeded, parallel-safe trials.

Every trial, or every block of BLOCK draws, gets its own generator derived
from (seed, indices), so results are identical no matter how the work is
scheduled across threads.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

BLOCK = 128  # draws per block: the unit of streams, checks and thread-pool work


def substream(seed: int, *indices: int) -> np.random.Generator:
    """Return an independent generator for a (seed, trial/phase) address."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return np.random.default_rng(np.random.SeedSequence((seed, *indices)))


def subseed(seed: int, *indices: int) -> int:
    """Derive a child seed for a named phase of a larger experiment."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    words = np.random.SeedSequence((seed, *indices)).generate_state(2)
    return (int(words[0]) << 32) | int(words[1])


def map_trials(run: Callable[[int], None], n: int, threads: int = 1) -> None:
    """Call run(i) for every trial index i < n, on a pool when threads > 1.

    run writes its own slot of a preallocated result, so the outcome does
    not depend on the order in which trials finish.  The pool never has
    more workers than trials or CPUs.
    """
    workers = min(threads, n, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(n)))
    else:
        for i in range(n):
            run(i)


def blockwise(
    kernel: Callable[[np.ndarray, np.random.Generator], np.ndarray],
    n: int,
    seed: int,
    *indices: int,
    threads: int = 1,
) -> np.ndarray:
    """Results of kernel(index, rng) for n draws, stacked over blocks of BLOCK.

    Block b gets the draw indices [b*BLOCK, (b+1)*BLOCK) as an array, draws
    all its randomness from substream(seed, *indices, b) and returns one
    result row per draw.  Each block writes only its own slot, so the
    result is the same for any thread count and finishing order, and a
    full block does not depend on how many draws follow it.
    """
    blocks: list[np.ndarray | None] = [None] * -(-n // BLOCK)

    def run(b: int) -> None:
        index = np.arange(b * BLOCK, min((b + 1) * BLOCK, n))
        blocks[b] = kernel(index, substream(seed, *indices, b))

    map_trials(run, len(blocks), threads)
    return np.concatenate(blocks)
