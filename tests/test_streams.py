"""Stream derivation: numpy's own streams, the seed boundary, and distinct
streams within a command."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import cli, streams
from bornlab.streams import substream

# address entries around the 32-bit word boundaries, Python ints of any size
# and numpy ints
ENTRIES = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64]),
    st.integers(0, 2**100),
    st.builds(np.int64, st.integers(0, 2**63 - 1)),
    st.builds(np.uint64, st.integers(0, 2**64 - 1)),
    st.builds(np.uint32, st.integers(0, 2**32 - 1)),
    st.builds(np.int8, st.integers(0, 127)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ENTRIES, min_size=1, max_size=6))
def test_streams_are_those_of_the_address_tuple(address):
    # the words handed to SeedSequence are the ones it derives from the tuple
    reference = np.random.default_rng(np.random.SeedSequence(tuple(address)))
    rng = substream(*address)
    assert rng.bit_generator.state == reference.bit_generator.state
    np.testing.assert_array_equal(rng.standard_normal(8), reference.standard_normal(8))


@pytest.mark.parametrize("address", [(0,), (7, 3), (2**40 + 3, 0, 5), (2**64 + 1, 2**32, 1, 2, 3)])
def test_seed_words_come_from_the_pool_alone(monkeypatch, address):
    # PCG64 is seeded from SeedSequence's pool without a generate_state call,
    # with the state generate_state(4, np.uint64) would have seeded
    reference = np.random.default_rng(np.random.SeedSequence(tuple(address))).bit_generator.state

    class PoolOnly(np.random.SeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            raise AssertionError("generate_state called")

    monkeypatch.setattr(np.random, "SeedSequence", PoolOnly)
    rng = substream(*address)
    assert rng.bit_generator.state == reference
    with pytest.raises(ValueError):
        rng.bit_generator.seed_seq.generate_state(8)  # holds PCG64's words only


@pytest.mark.parametrize("derive", [substream])
@pytest.mark.parametrize("address", [(1.0,), (0, 2.5), (3, np.float64(1.0))])
def test_a_float_entry_is_rejected(derive, address):
    with pytest.raises(TypeError):
        derive(*address)


@pytest.mark.parametrize("derive, address", [(substream, (-1,)), (substream, (0, -1))])
def test_negative_seed_or_index_is_rejected(derive, address):
    # the one address split rejects any negative entry, as np.random.SeedSequence does
    with pytest.raises(ValueError, match="non-negative"):
        derive(*address)


def command(code: int | dict, streams: int, *argv: str, name: str = "") -> pytest.param:
    """A command line, its exit code (per seed if a dict) and the number of streams it
    derives, named by its command and rule unless a name is given."""
    return pytest.param(list(argv), code, streams, id=name or argv[0] + ("-" + argv[2] if argv[1] == "--rule" else ""))


# streams per command: a defect scan of fewer than 8 trials takes one per trial, a renormalized
# rule's defect scan one for its witness, an independence check four (two points, two scans), and
# every other scan (recover and stationarity per dimension, spin1) one; verify-born runs a defect
# scan and ten independence checks per dimension, and sample takes five
COMMANDS = [
    command(0, 2 * (5 + 10 * 4), "verify-born", "--dims", "2,3", "--trials", "5"),
    command(1, 5, "falsify", "--rule", "power:1", "--dim", "3", "--trials", "5"),
    command(1, 1 + 4, "falsify", "--rule", "renorm:power:4", "--dim", "3", "--trials", "5"),
    command(1, 4, "independence", "--rule", "renorm:power:1", "--dim", "3", "--trials", "5"),
    command(0, 2, "recover", "--dims", "2,3", "--trials", "40"),
    command(0, 2, "stationarity", "--dims", "2,3", "--trials", "200"),
    command(0, 1, "spin1", "--trials", "200"),
    command(3, 5, "sample", "--dim", "3", "--shots", "10", "--trials", "3"),  # too few shots for a chi-square: inconclusive
    # inconclusive layouts, scans of hundreds of rows, a third dimension
    command(3, 1 + 4, "falsify", "--rule", "renorm:power:4", "--dim", "2", name="falsify-renorm:power:4-dim2"),
    command(3, 4, "independence", "--rule", "power:3", "--dim", "3"),
    command(0, 4, "independence", "--rule", "born", "--dim", "4", "--trials", "300"),
    command(0, 3 * (5 + 10 * 4), "verify-born", "--dims", "2,3,4", "--trials", "5", name="verify-born-dims2,3,4"),
]


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
@pytest.mark.parametrize("argv, code, count", COMMANDS)
def test_no_two_streams_of_a_command_coincide(monkeypatch, capsys, argv, code, count, seed):
    # streams.py states SeedSequence's zero padding, which puts a clash one
    # address word away: (s, k) and (s, k, 0) are one stream
    states = []

    class Recording(streams._Seeded):  # the seed words of every generator substream builds
        def __init__(self, words):
            super().__init__(words)
            states.append(tuple(int(word) for word in words))

    monkeypatch.setattr(streams, "_Seeded", Recording)
    assert cli.main(argv + ["--seed", str(seed)]) == (code[seed] if isinstance(code, dict) else code)
    capsys.readouterr()
    assert len(states) == count
    assert len(set(states)) == len(states)
