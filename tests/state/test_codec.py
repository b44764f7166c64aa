"""Unit tests for RLP and hex-prefix encodings."""

from __future__ import annotations

import pytest

from repro.errors import TrieError
from repro.state.mpt import (
    bytes_to_nibbles,
    hp_decode,
    hp_encode,
    nibbles_to_bytes,
    rlp_decode,
    rlp_encode,
)


class TestRLP:
    @pytest.mark.parametrize(
        "item",
        [
            b"",
            b"a",
            b"\x7f",
            b"\x80",
            b"hello world",
            b"x" * 55,
            b"x" * 56,
            b"x" * 1000,
            [],
            [b"a", b"b"],
            [b"", [b"nested", [b"deep"]], b"tail"],
            [b"x" * 100, [b"y" * 200]],
        ],
    )
    def test_roundtrip(self, item):
        assert rlp_decode(rlp_encode(item)) == item

    def test_known_encodings(self):
        # Classic RLP vectors.
        assert rlp_encode(b"dog") == b"\x83dog"
        assert rlp_encode([b"cat", b"dog"]) == b"\xc8\x83cat\x83dog"
        assert rlp_encode(b"") == b"\x80"
        assert rlp_encode([]) == b"\xc0"
        assert rlp_encode(b"\x0f") == b"\x0f"

    def test_long_string_header(self):
        payload = b"a" * 56
        encoded = rlp_encode(payload)
        assert encoded[0] == 0xB8
        assert encoded[1] == 56

    def test_trailing_bytes_rejected(self):
        with pytest.raises(TrieError):
            rlp_decode(rlp_encode(b"ok") + b"junk")

    def test_truncated_rejected(self):
        with pytest.raises(TrieError):
            rlp_decode(rlp_encode(b"hello world!")[:-1])

    def test_unsupported_type_rejected(self):
        with pytest.raises(TrieError):
            rlp_encode(42)  # ints must be pre-encoded

    def test_empty_input_rejected(self):
        with pytest.raises(TrieError):
            rlp_decode(b"")


class TestNibbles:
    def test_roundtrip(self):
        data = bytes(range(0, 255, 7))
        assert nibbles_to_bytes(bytes_to_nibbles(data)) == data

    def test_split_values(self):
        assert bytes_to_nibbles(b"\xab\x01") == bytes([0xA, 0xB, 0x0, 0x1])

    def test_odd_nibbles_rejected(self):
        with pytest.raises(TrieError):
            nibbles_to_bytes(bytes([1, 2, 3]))

    def test_out_of_range_nibble_rejected(self):
        with pytest.raises(TrieError):
            nibbles_to_bytes(bytes([1, 16]))


class TestHexPrefix:
    @pytest.mark.parametrize("is_leaf", [True, False])
    @pytest.mark.parametrize(
        "path", [(), (1,), (1, 2), (15, 0, 3), (5,) * 9]
    )
    def test_roundtrip(self, path, is_leaf):
        path = bytes(path)
        decoded_path, decoded_leaf = hp_decode(hp_encode(path, is_leaf))
        assert decoded_path == path
        assert decoded_leaf == is_leaf

    def test_empty_input_rejected(self):
        with pytest.raises(TrieError):
            hp_decode(b"")

    def test_flags_encoded_in_first_nibble(self):
        assert hp_encode(b"", False)[0] >> 4 == 0
        assert hp_encode(b"\x01", False)[0] >> 4 == 1
        assert hp_encode(b"", True)[0] >> 4 == 2
        assert hp_encode(b"\x01", True)[0] >> 4 == 3
