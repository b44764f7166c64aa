"""Pinning test for the tracer's ring lock: spans finishing on several
threads at once all land in the ring, and ``len`` / ``spans`` read a
consistent snapshot while they do.
"""

from __future__ import annotations

import threading

from repro.obs.tracer import Tracer

WORKERS = 4
SPANS_PER_WORKER = 400


class TestConcurrentAppend:
    def test_concurrent_append_and_len(self):
        tracer = Tracer()

        def worker():
            for _ in range(SPANS_PER_WORKER):
                with tracer.span("tick"):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(WORKERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(tracer) == WORKERS * SPANS_PER_WORKER
        assert len(tracer.spans()) == WORKERS * SPANS_PER_WORKER
