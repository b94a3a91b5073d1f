"""Deterministic RNG stream derivation for seeded, parallel-safe trials.

Every trial of a scan gets its own generator derived from (seed, indices),
so results are identical no matter how trials are scheduled across threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np


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
    not depend on the order in which trials finish.
    """
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, range(n)))
    else:
        for i in range(n):
            run(i)
