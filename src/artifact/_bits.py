"""Bit-string helpers.

A wire payload is a bit string, given either as a Python string over
{'0', '1'}, most-significant bit first, or as `bytes`, which count 8 bits per
byte and read as `bytes_to_bits` spells them (the pickled records of
unbounded rounds travel this way). Integers that ride along (node ids,
degrees, counters) are framed at fixed widths so receivers can slice
deterministically.
"""

from __future__ import annotations

from typing import Iterable


def is_bits(s: object) -> bool:
    """True iff *s* is a str containing only '0'/'1' (empty string allowed)."""
    return isinstance(s, str) and not s.strip("01")


def encode_int(value: int, width: int) -> str:
    """Fixed-width big-endian encoding of a non-negative integer."""
    if value < 0:
        raise ValueError(f"cannot encode negative value {value}")
    if width < 0 or (width == 0 and value != 0):
        raise ValueError(f"value {value} does not fit in width {width}")
    if value >= (1 << width) and width > 0:
        raise ValueError(f"value {value} does not fit in width {width}")
    return format(value, f"0{width}b") if width else ""


def decode_int(bits: str) -> int:
    if bits == "":
        return 0
    return int(bits, 2)


def bit_strings(width: int) -> list[str]:
    """Every bit string of the given width, in lexicographic order."""
    if width == 0:
        return [""]
    return [format(v, f"0{width}b") for v in range(1 << width)]


def count_width(n: int) -> int:
    """Width for counter values in [0, n-1] (degrees, incidence counts)."""
    return max(1, (n - 1).bit_length())


def id_width(big_n: int) -> int:
    """Wire width for node ids drawn from [1, big_n] (encoded as id-1)."""
    if big_n < 1:
        raise ValueError("id space must contain at least one id")
    return max(1, (big_n - 1).bit_length())


def encode_ids(ids: Iterable[int], w: int) -> str:
    """Frame node ids from [1, 2**w] as consecutive w-bit fields of id-1."""
    fmt = f"0{w}b"
    out = []
    for u in ids:
        if not 1 <= u <= 1 << w:
            raise ValueError(f"id {u} does not fit in width {w}")
        out.append(format(u - 1, fmt))
    return "".join(out)


def decode_ids(bits: str, w: int) -> tuple[int, ...]:
    """Inverse of encode_ids; the length of *bits* must be a multiple of w."""
    if len(bits) % w:
        raise ValueError(f"{len(bits)} bits do not split into {w}-bit ids")
    return tuple(int(bits[t : t + w], 2) + 1 for t in range(0, len(bits), w))


def bytes_to_bits(data: bytes) -> str:
    """The bit string that *data* counts as on the wire: each byte MSB first."""
    if not data:
        return ""
    return format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")

