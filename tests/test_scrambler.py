import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scmodem import scrambler


def test_sequence_is_64_bits_with_balanced_m_sequence_period():
    seq = scrambler.generate_sequence()
    assert seq.size == 64
    assert int(seq[:63].sum()) == 32  # 32 ones, 31 zeros in one period


def test_appended_bit_is_zero():
    assert scrambler.generate_sequence()[63] == 0


def test_deterministic():
    assert np.array_equal(scrambler.generate_sequence(), scrambler.generate_sequence())
    assert scrambler.sequence_bytes() == scrambler.sequence_bytes()


def test_sequence_period_is_63():
    # the LFSR state walk visits all 63 nonzero states before repeating
    seq = list(scrambler.generate_sequence()[:63]) * 2
    for shift in range(1, 63):
        assert seq[shift : shift + 63] != seq[:63]


def test_max_run_length_within_period():
    # m-sequence of degree 6: no run of identical bits longer than 6,
    # checked cyclically over the 63-bit period
    bits = list(scrambler.generate_sequence()[:63]) * 2
    run = longest = 1
    for a, b in zip(bits, bits[1:]):
        run = run + 1 if a == b else 1
        longest = max(longest, run)
    assert longest <= 6


def test_scramble_all_zero_payload_yields_tiled_sequence():
    out = scrambler.scramble(bytes(256))
    assert out == scrambler.sequence_bytes() * 32


@settings(deadline=None, derandomize=True)
@given(payload=st.integers(0, 40).flatmap(lambda n: st.binary(min_size=8 * n, max_size=8 * n)))
def test_scramble_is_involution(payload):
    assert scrambler.scramble(scrambler.scramble(payload)) == payload
    assert scrambler.descramble(scrambler.scramble(payload)) == payload
    rows = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 8)
    assert np.array_equal(scrambler.scramble_block(scrambler.scramble_block(rows)), rows)


def test_rejects_non_multiple_of_8():
    with pytest.raises(ValueError):
        scrambler.scramble(bytes(255))


def test_block_matches_scalar():
    rng = np.random.default_rng(1)
    rows = rng.integers(0, 256, (4, 256), dtype=np.uint8)
    block = scrambler.scramble_block(rows)
    for i in range(4):
        assert block[i].tobytes() == scrambler.scramble(rows[i].tobytes())
