"""Unit tests for the cluster's link model."""

from __future__ import annotations

import pytest

from repro.errors import NetworkError
from repro.net import LinkModel


class TestLinkModel:
    def test_delay_positive_and_bounded(self):
        link = LinkModel(base_delay=0.002, jitter=0.001, seed=1)
        for _ in range(100):
            delay = link.delay()
            assert 0.002 <= delay <= 0.0031

    def test_bigger_messages_take_longer(self):
        link = LinkModel(jitter=0.0, seed=1)
        assert link.delay(1_000_000) > link.delay(1_000)

    def test_block_delay_scales_with_size(self):
        link = LinkModel(jitter=0.0)
        assert link.block_delay(200) > link.block_delay(20)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(NetworkError):
            LinkModel(base_delay=-1)
        with pytest.raises(NetworkError):
            LinkModel(bandwidth_bps=0)
