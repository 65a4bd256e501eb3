"""Tests for the finalization counter."""

import threading

from hypothesis import given
from hypothesis import strategies as st

from repro.atomics import AtomicCounter


class TestAtomicCounter:
    def test_fetch_add_returns_previous(self):
        counter = AtomicCounter(0)
        assert counter.fetch_add(3) == 0
        assert counter.fetch_add(-1) == 3
        assert counter.load() == 2

    def test_add_and_fetch_returns_new(self):
        counter = AtomicCounter(0)
        assert counter.add_and_fetch(2) == 2
        assert counter.add_and_fetch(-2) == 0

    def test_may_go_negative(self):
        """§2.3: decrements can land before the coordinator's increment."""
        counter = AtomicCounter(0)
        assert counter.add_and_fetch(-1) == -1
        assert counter.add_and_fetch(-1) == -2
        assert counter.add_and_fetch(3) == 1
        assert counter.add_and_fetch(-1) == 0

    def test_op_count(self):
        counter = AtomicCounter()
        counter.fetch_add(1)
        counter.add_and_fetch(1)
        assert counter.op_count == 2

    @given(st.lists(st.integers(min_value=-5, max_value=5), max_size=50))
    def test_exactly_one_zero_crossing_protocol(self, decrements):
        """Simulate the finalization protocol: the worker whose update
        brings the counter to exactly zero is unique, regardless of the
        interleaving of coordinator increment and worker decrements."""
        count = len(decrements)
        counter = AtomicCounter(0)
        zero_hits = 0
        # Workers decrement in arbitrary positions relative to the
        # coordinator's increment (inserted in the middle).
        half = count // 2
        for _ in range(half):
            if counter.add_and_fetch(-1) == 0:
                zero_hits += 1
        if counter.add_and_fetch(count) == 0:
            zero_hits += 1
        for _ in range(count - half):
            if counter.add_and_fetch(-1) == 0:
                zero_hits += 1
        assert counter.load() == 0
        assert zero_hits == 1


class TestAtomicCounterThreaded:
    """Once armed, the fetch-add must be a *genuine* atomic: these tests
    hammer it from real OS threads, the regime the ThreadedBackend arms
    it for."""

    def test_no_lost_updates(self):
        counter = AtomicCounter(0)
        counter.enable_concurrency()
        n_threads, per_thread = 8, 5_000

        def hammer():
            for _ in range(per_thread):
                counter.fetch_add(1)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.load() == n_threads * per_thread
        assert counter.op_count == n_threads * per_thread

    def test_exactly_one_zero_crossing_under_threads(self):
        """The finalization race, for real: worker threads decrement
        while the coordinator thread adds the marked count — exactly one
        thread ever observes zero, over many repetitions."""
        n_workers = 6
        for _ in range(200):
            counter = AtomicCounter(0)
            zero_hits = AtomicCounter(0)
            counter.enable_concurrency()
            zero_hits.enable_concurrency()
            barrier = threading.Barrier(n_workers + 1)

            def decrement():
                barrier.wait()
                if counter.add_and_fetch(-1) == 0:
                    zero_hits.fetch_add(1)

            def coordinate():
                barrier.wait()
                if counter.add_and_fetch(n_workers) == 0:
                    zero_hits.fetch_add(1)

            threads = [
                threading.Thread(target=decrement) for _ in range(n_workers)
            ]
            threads.append(threading.Thread(target=coordinate))
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert counter.load() == 0
            assert zero_hits.load() == 1
