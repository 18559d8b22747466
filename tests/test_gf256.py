import numpy as np

from scmodem.gf256 import GF_EXP, GF_INV, GF_LOG, GF_MUL

from oracles import slow_gf_mul

ELEMENTS = np.arange(256)


def test_multiplicative_identity():
    assert np.array_equal(GF_MUL[:, 1], ELEMENTS)
    assert np.array_equal(GF_MUL[1, :], ELEMENTS)


def test_annihilator():
    assert not GF_MUL[0, :].any()
    assert not GF_MUL[:, 0].any()


def test_x_times_x7_reduces_by_field_poly():
    # x * x^7 = x^8 -> x^4 + x^3 + x^2 + 1 under 0x11D
    assert GF_MUL[0x02, 0x80] == 0x1D


def test_mul_matches_peasant_oracle():
    # all 65 536 products
    expected = np.array([[slow_gf_mul(a, b) for b in range(256)] for a in range(256)])
    assert GF_MUL.shape == (256, 256)
    assert np.array_equal(GF_MUL, expected)


def test_addition_self_inverse():
    for a in range(256):
        assert a ^ a == 0


def test_multiplicative_group_cyclic_order_255():
    cycle = GF_EXP[:255].tolist()
    assert len(set(cycle)) == 255 and 0 not in cycle
    assert cycle[0] == 1
    for i in range(255):  # each power is alpha times the one before, and alpha^255 = 1
        assert slow_gf_mul(cycle[i], 2) == cycle[(i + 1) % 255]


def test_log_exp_roundtrip():
    assert np.array_equal(GF_EXP[GF_LOG[1:]], ELEMENTS[1:])
    assert np.array_equal(GF_LOG[GF_EXP[:255]], np.arange(255))


def test_div_and_inv():
    nonzero = ELEMENTS[1:]
    assert np.all(GF_MUL[nonzero, GF_INV[nonzero]] == 1)
    assert GF_INV[0] == 0  # a quotient by zero reads as 0
    # (a / b) * b = a for every a and nonzero b
    quotient = GF_MUL[ELEMENTS[:, None], GF_INV[nonzero][None, :]]
    assert (GF_MUL[quotient, nonzero[None, :]] == ELEMENTS[:, None]).all()
