"""Tests for the bit-exact array codec shared by artifacts and checkpoints."""

import numpy as np
import pytest

from repro.utils.arrays import decode_array, encode_array


def test_zero_d_array_keeps_its_shape():
    payload = encode_array(np.array(3, dtype=np.int64))
    assert payload["shape"] == []
    out = decode_array(payload)
    assert out.shape == () and out.dtype == np.int64 and int(out) == 3


def test_decoded_array_is_a_writable_copy():
    out = decode_array(encode_array(np.arange(4.0)))
    out[0] = 9.0
    assert out.flags.writeable and out[0] == 9.0


@pytest.mark.parametrize("payload", [
    {"dtype": "float64", "shape": [2]},                            # no data
    {"dtype": "float64", "shape": [2], "data": "AAAAAAAA8D8="},     # 1 value, not 2
    {"dtype": "not-a-dtype", "shape": [1], "data": "AAAAAAAA8D8="},
    {"dtype": "float64", "shape": [1], "data": "A"},                # bad base64
])
def test_malformed_payload_raises_value_error(payload):
    with pytest.raises(ValueError, match="malformed array payload"):
        decode_array(payload)
