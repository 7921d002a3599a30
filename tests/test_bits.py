import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from artifact._bits import (
    bit_strings,
    bytes_to_bits,
    count_width,
    decode_ids,
    decode_int,
    encode_ids,
    encode_int,
    id_width,
    is_bits,
)


def test_is_bits():
    assert is_bits("0101")
    assert is_bits("")
    assert not is_bits("012")
    assert not is_bits(b"01")
    assert not is_bits(None)


@pytest.mark.parametrize("tail", ["", "01" * 20])
@pytest.mark.parametrize("bad", ["0_1", " 01", "01\n", "\uff10\uff11", "0\u0661", "\ud800"])
def test_is_bits_rejects_non_bit_characters_at_every_length(bad, tail):
    assert is_bits(tail) and is_bits(tail + "01")
    assert not is_bits(tail + bad)
    assert not is_bits(bad + tail)


@pytest.mark.parametrize("value", [None, 7, b"01", b"01" * 20, bytearray(b"01"), ["0", "1"]])
def test_is_bits_rejects_non_str(value):
    assert not is_bits(value)


def test_encode_int_fixed_width():
    assert encode_int(5, 4) == "0101"
    assert encode_int(0, 3) == "000"
    assert decode_int("0101") == 5


@given(st.integers(min_value=0, max_value=2**20 - 1))
def test_int_round_trip(value):
    assert decode_int(encode_int(value, 20)) == value


def test_bit_strings_are_lexicographic_at_every_width():
    assert bit_strings(0) == [""]
    for width in range(1, 6):
        assert bit_strings(width) == ["".join(t) for t in itertools.product("01", repeat=width)]


def test_count_width():
    # width must cover every counter value in 0..n-1
    for n in range(1, 40):
        w = count_width(n)
        assert n - 1 < 2**w
        assert w >= 1


def test_id_width():
    assert id_width(2) == 1
    assert id_width(5) == 3
    assert id_width(17) == 5
    for big_n in range(1, 64):
        assert big_n - 1 < 2 ** id_width(big_n)


def test_id_round_trip():
    for big_n in (1, 2, 7, 16, 33):
        w = id_width(big_n)
        ids = tuple(range(1, big_n + 1))
        bits = encode_ids(ids, w)
        assert bits == "".join(encode_int(u - 1, w) for u in ids)
        assert decode_ids(bits, w) == ids
    assert encode_ids((), 3) == "" and decode_ids("", 3) == ()
    for bad_id in (0, 9):
        with pytest.raises(ValueError):
            encode_ids((bad_id,), 3)
    with pytest.raises(ValueError):
        decode_ids("0101", 3)


@given(st.binary(max_size=64))
def test_bytes_to_bits_is_bytewise_msb_first(data):
    bits = bytes_to_bits(data)
    assert bits == "".join(format(b, "08b") for b in data)

