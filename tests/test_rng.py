"""Seed derivation: the uint32-word path gives numpy's own entropy pool."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import rng

_MASK64 = (1 << 64) - 1


def reference_seed_sequence(*path):
    """The construction seed_sequence replaced, kept verbatim as the oracle."""
    return np.random.SeedSequence([int(p) & _MASK64 for p in path])


EDGES = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1, 2**64, -1, -(2**32)])
PATH_INTS = st.one_of(EDGES, st.integers(-(2**70), 2**70), st.integers(0, 2**32))


@settings(max_examples=300)
@given(st.lists(PATH_INTS, max_size=6))
def test_seed_sequence_matches_the_integer_list_construction(path):
    ours, reference = rng.seed_sequence(*path), reference_seed_sequence(*path)
    assert np.array_equal(ours.generate_state(8), reference.generate_state(8))
    a, b = np.random.default_rng(ours), np.random.default_rng(reference)
    assert np.array_equal(a.permutation(50), b.permutation(50))
    assert rng.derive_seed(*path) == int.from_bytes(
        reference_seed_sequence(*path).generate_state(2, np.uint32).tobytes(), "little"
    )
