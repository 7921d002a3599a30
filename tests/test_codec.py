import pytest
from hypothesis import given
from hypothesis import strategies as st

from artifact._codec import bytes_to_obj, obj_to_bytes

scalars = st.none() | st.booleans() | st.integers() | st.text(max_size=8)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(scalars, inner, max_size=4),
    max_leaves=20,
)


def test_round_trip_is_bytes():
    value = {"deg": 2, "vec": "0110", "shape": ("spine", 1), "b": None}
    data = obj_to_bytes(value)
    assert type(data) is bytes and data
    assert bytes_to_obj(data) == value


def test_sharing_does_not_change_the_bits():
    s = "ab" * 3
    t = "".join(["ab"] * 3)
    assert s == t and s is not t
    assert obj_to_bytes((s, s)) == obj_to_bytes((s, t))
    row = [1, "B", None]
    assert obj_to_bytes([row, row]) == obj_to_bytes([row, list(row)])


@given(values)
def test_encoding_survives_a_round_trip(value):
    data = obj_to_bytes(value)
    assert obj_to_bytes(bytes_to_obj(data)) == data


def test_cyclic_value_raises():
    loop = []
    loop.append(loop)
    with pytest.raises(ValueError):
        obj_to_bytes(loop)
    node = {"me": 1}
    node["self"] = node
    with pytest.raises(ValueError):
        obj_to_bytes(node)
