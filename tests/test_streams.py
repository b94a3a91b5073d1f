"""Stream derivation: the seed boundary."""

import pytest

from bornlab.streams import subseed, substream


@pytest.mark.parametrize(
    "derive, address",
    [(substream, (-1,)), (substream, (0, -1)), (subseed, (-1, 0))],
)
def test_negative_seed_or_index_is_rejected(derive, address):
    # np.random.SeedSequence rejects any negative entry: the one seed check
    with pytest.raises(ValueError, match="non-negative"):
        derive(*address)
