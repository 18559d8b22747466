import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scmodem.rs import (
    GENERATOR,
    K,
    N,
    PARITY,
    rs_decode,
    rs_decode_block,
    rs_encode,
    rs_encode_block,
    syndromes_block,
)

from oracles import slow_generator, slow_gf_mul, slow_poly_divmod, slow_rs_decode

# hypothesis runs a fixed sequence of examples, so tier-1 stays reproducible
PROPERTY = settings(deadline=None, derandomize=True)


def _corrupt(codeword: bytes, positions, rng: random.Random) -> bytes:
    out = bytearray(codeword)
    for p in positions:
        out[p] ^= rng.randrange(1, 256)
    return bytes(out)


def test_encode_rejects_bad_length():
    with pytest.raises(ValueError):
        rs_encode(bytes(200))
    with pytest.raises(ValueError):
        rs_decode(bytes(100))


def test_all_zero_data_gives_all_zero_parity():
    assert rs_encode(bytes(K)) == bytes(N)


def test_single_one_parity_matches_division_oracle():
    # data = [1, 0, ..., 0] is the polynomial x^238; the codeword appends the
    # remainder of x^(238+16) divided by the generator polynomial
    data = bytes([1] + [0] * (K - 1))
    num = [1] + [0] * (238 + PARITY)
    _, rem = slow_poly_divmod(num, GENERATOR)
    assert rs_encode(data) == data + bytes(rem[-PARITY:])


def test_roundtrip_random():
    rng = random.Random(0)
    for _ in range(20):
        data = bytes(rng.randrange(256) for _ in range(K))
        out = rs_decode(rs_encode(data))
        assert (out.corrected_data, out.errors_corrected, out.uncorrectable) == (data, 0, False)


def test_clean_codeword_has_zero_syndromes():
    rng = random.Random(1)
    data = bytes(rng.randrange(256) for _ in range(K))
    cw = np.frombuffer(rs_encode(data), dtype=np.uint8)
    assert syndromes_block(cw[None, :])[0].tolist() == [0] * PARITY


def test_syndrome_linearity():
    # syndromes of codeword + error equal syndromes of the error alone
    rng = random.Random(2)
    data = bytes(rng.randrange(256) for _ in range(K))
    cw = np.frombuffer(rs_encode(data), dtype=np.uint8)
    err = np.zeros(N, dtype=np.uint8)
    for p in rng.sample(range(N), 5):
        err[p] = rng.randrange(1, 256)
    assert np.array_equal(
        syndromes_block((cw ^ err)[None, :]), syndromes_block(err[None, :])
    )


@pytest.mark.parametrize("weight", range(1, 9))
def test_corrects_up_to_capacity(weight):
    rng = random.Random(10 + weight)
    for _ in range(20):
        data = bytes(rng.randrange(256) for _ in range(K))
        cw = rs_encode(data)
        bad = _corrupt(cw, rng.sample(range(N), weight), rng)
        out = rs_decode(bad)
        assert not out.uncorrectable
        assert out.errors_corrected == weight
        assert out.corrected_data == data


def test_eight_errors_at_capacity():
    rng = random.Random(99)
    data = bytes(rng.randrange(256) for _ in range(K))
    cw = rs_encode(data)
    bad = _corrupt(cw, rng.sample(range(N), 8), rng)
    out = rs_decode(bad)
    assert out.corrected_data == data and out.errors_corrected == 8


def test_exhaustive_single_error_sweep():
    # every position x every wrong value, 255 * 255 cases, in one block
    rng = random.Random(3)
    data = bytes(rng.randrange(256) for _ in range(K))
    cw = np.frombuffer(rs_encode(data), dtype=np.uint8)
    pos, delta = np.divmod(np.arange(N * 255), 255)
    bad = np.tile(cw, (N * 255, 1))
    bad[np.arange(N * 255), pos] ^= (delta + 1).astype(np.uint8)
    corrected, n_err, flagged = rs_decode_block(bad)
    assert not flagged.any()
    assert (n_err == 1).all()
    assert (corrected[:, :K] == np.frombuffer(data, dtype=np.uint8)).all()


def test_beyond_capacity_flagged_and_passed_through():
    rng = random.Random(4)
    flagged = 0
    trials = 200
    for _ in range(trials):
        data = bytes(rng.randrange(256) for _ in range(K))
        cw = rs_encode(data)
        bad = _corrupt(cw, rng.sample(range(N), 12), rng)
        out = rs_decode(bad)
        assert out.errors_corrected <= 8
        if out.uncorrectable:
            flagged += 1
            assert out.corrected_data == bad[:K]  # pass-through
    assert flagged >= int(0.99 * trials)


def test_block_encoder_matches_scalar():
    rng = np.random.default_rng(5)
    data = rng.integers(0, 256, (16, K), dtype=np.uint8)
    block = rs_encode_block(data)
    for i in range(16):
        assert block[i].tobytes() == rs_encode(data[i].tobytes())


def _error_pattern(weight: int):
    """(positions, nonzero deltas) of one word with exactly ``weight`` byte errors."""
    return st.tuples(
        st.lists(st.integers(0, N - 1), min_size=weight, max_size=weight, unique=True),
        st.lists(st.integers(1, 255), min_size=weight, max_size=weight),
    )


def _received_words(n_words: int):
    """Blocks of codewords of random data hit by 0-16 byte errors, one word in
    five moved instead to within 1-8 bytes of a neighbouring codeword (at
    distance 17), so that the decoder miscorrects it.  Hypothesis draws the
    seed; numpy draws the words, which keeps 2000 words cheap to generate."""

    def build(seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        words = rs_encode_block(rng.integers(0, 256, (n_words, K), dtype=np.uint8))
        for row in words:
            if rng.random() < 0.2:
                shift = int(rng.integers(0, N - PARITY))
                scale = int(rng.integers(1, 256))
                neighbour = row.copy()  # + scale x^(238 - shift) g(x)
                neighbour[shift : shift + PARITY + 1] ^= np.array([slow_gf_mul(scale, g) for g in GENERATOR], dtype=np.uint8)
                moved = shift + rng.choice(PARITY + 1, int(rng.integers(9, PARITY + 1)), replace=False)
                row[moved] = neighbour[moved]
            else:
                weight = int(rng.integers(0, PARITY + 1))
                row[rng.choice(N, weight, replace=False)] ^= rng.integers(1, 256, weight, dtype=np.uint8)
        return words

    return st.integers(0, 2**32 - 1).map(build)


@PROPERTY
@given(data=st.binary(min_size=K, max_size=K), pattern=st.integers(0, 8).flatmap(_error_pattern))
def test_any_error_pattern_up_to_capacity_decodes(data, pattern):
    word = np.frombuffer(rs_encode(data), dtype=np.uint8).copy()
    pos, delta = pattern
    word[pos] ^= np.array(delta, dtype=np.uint8)
    out = rs_decode(word.tobytes())
    assert (out.corrected_data, out.errors_corrected, out.uncorrectable) == (data, len(pos), False)


@settings(PROPERTY, max_examples=40)
@given(words=_received_words(50))
def test_block_decode_matches_scalar_oracle(words):
    # 40 x 50 = 2000 words; the flag, the count and the bytes, miscorrections included
    corrected, n_err, flagged = rs_decode_block(words)
    for i, word in enumerate(words):
        want = slow_rs_decode(word.tobytes())
        assert (corrected[i, :K].tobytes(), int(n_err[i]), bool(flagged[i])) == want
        assert flagged[i] or not syndromes_block(corrected[i : i + 1]).any()


@settings(PROPERTY, max_examples=20)
@given(words=_received_words(8))
def test_block_decode_equals_stacked_blocks_of_one(words):
    whole = rs_decode_block(words)
    rows = [rs_decode_block(words[i : i + 1]) for i in range(len(words))]
    for part, stacked in zip(whole, zip(*rows)):
        assert np.array_equal(part, np.concatenate(stacked))


def test_miscorrection_is_not_flagged():
    # 9 bytes toward a neighbouring codeword: the decoder lands on the neighbour
    rng = np.random.default_rng(6)
    data = rng.integers(0, 256, (1, K), dtype=np.uint8)
    word = rs_encode_block(data)[0]
    neighbour = word.copy()
    neighbour[100 : 100 + PARITY + 1] ^= np.array(GENERATOR, dtype=np.uint8)
    word[100:109] = neighbour[100:109]
    corrected, n_err, flagged = rs_decode_block(word[None, :])
    assert not flagged[0] and n_err[0] == 8
    assert np.array_equal(corrected[0], neighbour)
    assert slow_rs_decode(word.tobytes()) == (neighbour[:K].tobytes(), 8, False)


@settings(PROPERTY, max_examples=25)
@given(rows=st.lists(st.binary(min_size=K, max_size=K), min_size=1, max_size=3))
def test_block_encoder_matches_division_oracle(rows):
    gen = slow_generator()
    assert gen == GENERATOR
    block = rs_encode_block(np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(-1, K))
    for data, cw in zip(rows, block):
        _, rem = slow_poly_divmod(list(data) + [0] * PARITY, gen)
        assert cw.tobytes() == data + bytes(rem)


def test_decode_block_validates_shapes():
    with pytest.raises(ValueError):
        rs_decode_block(np.zeros((2, 254), np.uint8))
    with pytest.raises(ValueError):
        rs_decode_block(np.zeros((2, N), np.uint8), np.zeros((3, PARITY), np.uint8))
