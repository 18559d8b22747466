from fractions import Fraction

import numpy as np
import pytest

from scmodem import framing, scrambler
from scmodem.framing import (
    F1_MHZ,
    F2_MHZ,
    FRAME_BITS,
    FRAME_LEN,
    build_frame,
    build_frames_block,
    parse_frame,
)
from scmodem.rs import rs_encode
from scmodem.sync import DEFAULT_PREAMBLE

from oracles import slow_generator, slow_poly_divmod


def _random_data(seed=0):
    return np.random.default_rng(seed).integers(0, 256, 239, dtype=np.uint8).tobytes()


def test_frame_arithmetic():
    assert 4 + 239 + 16 + 1 == FRAME_LEN == 260
    assert FRAME_LEN - 4 == 256 == 32 * 8
    assert FRAME_BITS == 2080


def test_build_frame_length_and_preamble_verbatim():
    frame = build_frame(_random_data(), DEFAULT_PREAMBLE)
    assert len(frame) == 260
    assert frame[:4] == DEFAULT_PREAMBLE


def test_body_is_scrambled_codeword_plus_extra():
    data = _random_data(1)
    frame = build_frame(data, DEFAULT_PREAMBLE, extra_k=64)
    body = scrambler.descramble(frame[4:])
    assert body == rs_encode(data) + bytes([64])


def test_extra_byte_k64_serializes_to_0b01000000():
    frame = build_frame(_random_data(2), DEFAULT_PREAMBLE, extra_k=64)
    body = scrambler.descramble(frame[4:])
    assert body[-1] == 0b01000000  # d(7) = 1, all other d(i) = 0


def test_roundtrip_clean():
    data = _random_data(3)
    frame = build_frame(data, DEFAULT_PREAMBLE)
    recovered, outcome = parse_frame(frame, DEFAULT_PREAMBLE)
    assert recovered == data
    assert outcome.errors_corrected == 0 and not outcome.uncorrectable


def test_roundtrip_any_preamble_and_extra():
    rng = np.random.default_rng(4)
    for _ in range(5):
        data = rng.integers(0, 256, 239, dtype=np.uint8).tobytes()
        preamble = rng.integers(0, 256, 4, dtype=np.uint8).tobytes()
        k = int(rng.integers(0, 256))
        recovered, outcome = parse_frame(build_frame(data, preamble, k), preamble)
        assert recovered == data and outcome.errors_corrected == 0


def test_parse_with_eight_corrupted_body_bytes():
    rng = np.random.default_rng(5)
    data = _random_data(5)
    frame = bytearray(build_frame(data, DEFAULT_PREAMBLE))
    # corrupt 8 bytes within the codeword portion of the body
    for pos in rng.choice(np.arange(4, 4 + 255), 8, replace=False):
        frame[pos] ^= int(rng.integers(1, 256))
    recovered, outcome = parse_frame(bytes(frame), DEFAULT_PREAMBLE)
    assert recovered == data and outcome.errors_corrected == 8


def test_parse_with_twelve_corrupted_body_bytes_flags_uncorrectable():
    rng = np.random.default_rng(6)
    flagged = 0
    for trial in range(50):
        data = np.random.default_rng(100 + trial).integers(0, 256, 239, dtype=np.uint8).tobytes()
        frame = bytearray(build_frame(data, DEFAULT_PREAMBLE))
        for pos in rng.choice(np.arange(4, 4 + 255), 12, replace=False):
            frame[pos] ^= int(rng.integers(1, 256))
        _, outcome = parse_frame(bytes(frame), DEFAULT_PREAMBLE)
        flagged += outcome.uncorrectable
    assert flagged >= 49


def test_length_validation():
    with pytest.raises(ValueError):
        build_frame(bytes(100), DEFAULT_PREAMBLE)
    with pytest.raises(ValueError):
        build_frame(bytes(239), bytes(3))
    with pytest.raises(ValueError):
        build_frame(bytes(239), DEFAULT_PREAMBLE, extra_k=300)
    with pytest.raises(ValueError):
        parse_frame(bytes(259), DEFAULT_PREAMBLE)


def test_multiframe_stream_layout():
    # in a concatenated stream, byte 260n - 1 is the extra byte and bytes
    # 260n .. 260n + 3 the next preamble
    rng = np.random.default_rng(7)
    data = rng.integers(0, 256, (3, 239), dtype=np.uint8)
    stream = build_frames_block(data, DEFAULT_PREAMBLE, extra_k=64).reshape(-1).tobytes()
    mask = scrambler.sequence_bytes()
    for n in (1, 2):
        assert stream[260 * n - 1] == 64 ^ mask[(256 - 1) % 8]
        assert stream[260 * n : 260 * n + 4] == DEFAULT_PREAMBLE


def test_block_matches_scalar_build():
    # expected frames assembled by hand: schoolbook RS parity, the extra byte,
    # then the 8-byte scrambling sequence XORed over the body
    rng = np.random.default_rng(8)
    data = rng.integers(0, 256, (4, 239), dtype=np.uint8)
    frames = build_frames_block(data, DEFAULT_PREAMBLE, extra_k=7)
    generator = slow_generator()
    mask = scrambler.sequence_bytes() * 32
    for i in range(4):
        _, parity = slow_poly_divmod(data[i].tolist() + [0] * 16, generator)
        body = data[i].tolist() + parity + [7]
        expected = DEFAULT_PREAMBLE + bytes(b ^ m for b, m in zip(body, mask))
        assert frames[i].tobytes() == expected
        assert build_frame(data[i].tobytes(), DEFAULT_PREAMBLE, extra_k=7) == expected


def test_rate_constants_exact():
    assert F2_MHZ == Fraction(875, 8)
    assert F1_MHZ == F2_MHZ * Fraction(239, 260)
    assert F1_MHZ / F2_MHZ == Fraction(239, 260)
