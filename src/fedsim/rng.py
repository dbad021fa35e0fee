"""Seed derivation for reproducible runs.

Every random decision in a run is drawn from a generator derived from the
single master seed plus a fixed stream tag and the indices that identify the
decision (round, client, epoch, ...). Any component of a run can therefore be
reproduced in isolation by rebuilding its derivation path.

Stream tags:
    DATASET       synthetic data generation
    SPLIT         stratified source/test splits
    PARTITION     Dirichlet client partitioning
    INIT          model weight initialization
    PRETRAIN      pretraining epoch shuffles
    PARTICIPANTS  per-round client sampling (one tag per round)
    SELECTION     per-round random data selection (one tag per round)
    SHUFFLE       per-(round, client, epoch) mini-batch shuffles
"""

from __future__ import annotations

import numpy as np

DATASET = 1
SPLIT = 2
PARTITION = 3
INIT = 4
PRETRAIN = 5
PARTICIPANTS = 6
SELECTION = 7
SHUFFLE = 8

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def seed_sequence(*path: int) -> np.random.SeedSequence:
    """Build a SeedSequence from a derivation path of integers.

    Each integer is taken modulo 2**64 and handed to numpy as the uint32
    words numpy itself would derive from it: the low word, then the high
    word when it is not zero. That gives the same entropy pool as passing
    the integers, without numpy's per-integer conversion.
    """
    words = []
    for p in path:
        p = int(p) & _MASK64
        words.append(p & _MASK32)
        if p > _MASK32:
            words.append(p >> 32)
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def derive_rng(*path: int) -> np.random.Generator:
    """Return a fresh generator for the given derivation path."""
    return np.random.default_rng(seed_sequence(*path))


def derive_seed(*path: int) -> int:
    """Collapse a derivation path into a single 64-bit seed."""
    lo, hi = seed_sequence(*path).generate_state(2, np.uint32)
    return int(lo) | (int(hi) << 32)
