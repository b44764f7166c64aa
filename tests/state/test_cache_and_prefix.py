"""Tests for the trie's prefix iteration."""

from __future__ import annotations

from repro.state.mpt import MerklePatriciaTrie


class TestPrefixIteration:
    def build(self):
        trie = MerklePatriciaTrie()
        entries = {}
        for i in range(20):
            for namespace in (b"sav:", b"chk:", b"alw:"):
                key = namespace + f"{i:04d}".encode()
                trie.put(key, f"{namespace.decode()}{i}".encode())
                entries[key] = f"{namespace.decode()}{i}".encode()
        return trie, entries

    def test_prefix_matches_filtered_items(self):
        trie, entries = self.build()
        for prefix in (b"sav:", b"chk:", b"alw:"):
            expected = sorted(
                (k, v) for k, v in entries.items() if k.startswith(prefix)
            )
            assert list(trie.items_with_prefix(prefix)) == expected

    def test_exact_key_prefix(self):
        trie, entries = self.build()
        result = list(trie.items_with_prefix(b"sav:0007"))
        assert result == [(b"sav:0007", b"sav:7")]

    def test_absent_prefix_is_empty(self):
        trie, _ = self.build()
        assert list(trie.items_with_prefix(b"zzz:")) == []

    def test_empty_prefix_is_full_scan(self):
        trie, entries = self.build()
        assert list(trie.items_with_prefix(b"")) == sorted(entries.items())

    def test_empty_trie(self):
        assert list(MerklePatriciaTrie().items_with_prefix(b"any")) == []

    def test_prefix_property(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=40, deadline=None)
        @given(
            entries=st.dictionaries(
                st.binary(min_size=1, max_size=6),
                st.binary(min_size=1, max_size=6),
                max_size=25,
            ),
            prefix=st.binary(max_size=3),
        )
        def check(entries, prefix):
            trie = MerklePatriciaTrie()
            for key, value in entries.items():
                trie.put(key, value)
            expected = sorted(
                (k, v) for k, v in entries.items() if k.startswith(prefix)
            )
            assert list(trie.items_with_prefix(prefix)) == expected

        check()
