"""Tests for the wide atomic bitmask.

The key property (§2.3): because publishes use word-level fetch-or and
drains use word-level exchange, no published bit is ever lost and no bit
is delivered to more than one drainer — even when drains interleave with
publishes at word granularity.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atomics import AtomicBitmask, iter_set_bits


class TestIterSetBits:
    def test_empty(self):
        assert list(iter_set_bits(0)) == []

    def test_single_bits(self):
        for i in (0, 1, 7, 63, 64, 127):
            assert list(iter_set_bits(1 << i)) == [i]

    def test_ascending_order(self):
        assert list(iter_set_bits(0b10110)) == [1, 2, 4]

    @given(st.sets(st.integers(min_value=0, max_value=200)))
    def test_roundtrip(self, bits):
        value = sum(1 << b for b in bits)
        assert list(iter_set_bits(value)) == sorted(bits)


class TestAtomicBitmask:
    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            AtomicBitmask(0)

    def test_word_count(self):
        assert AtomicBitmask(1).nwords == 1
        assert AtomicBitmask(64).nwords == 1
        assert AtomicBitmask(65).nwords == 2
        assert AtomicBitmask(128).nwords == 2

    def test_set_and_test(self):
        mask = AtomicBitmask(128)
        assert not mask.test_bit(100)
        already = mask.set_bit(100)
        assert not already
        assert mask.test_bit(100)
        assert mask.set_bit(100)  # second publish is redundant

    def test_out_of_range(self):
        mask = AtomicBitmask(128)
        with pytest.raises(IndexError):
            mask.set_bit(128)
        with pytest.raises(IndexError):
            mask.test_bit(-1)

    def test_drain_returns_and_clears(self):
        mask = AtomicBitmask(128)
        for bit in (0, 63, 64, 127):
            mask.set_bit(bit)
        assert mask.drain() == [0, 63, 64, 127]
        assert mask.drain() == []
        assert not mask.any_set()

    def test_any_set_cheap_probe(self):
        mask = AtomicBitmask(128)
        assert not mask.any_set()
        mask.set_bit(70)
        assert mask.any_set()

    def test_peek_does_not_clear(self):
        mask = AtomicBitmask(128)
        mask.set_bit(5)
        assert mask.peek() == [5]
        assert mask.peek() == [5]

    def test_operation_counters(self):
        mask = AtomicBitmask(128)
        mask.set_bit(1)
        mask.set_bit(2)
        mask.drain()
        assert mask.fetch_or_count == 2
        assert mask.exchange_count == 2  # one exchange per word

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["set", "drain_word0", "drain_word1"]),
                st.integers(min_value=0, max_value=127),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=200)
    def test_no_lost_or_duplicated_updates(self, operations):
        """Interleaving word-granular drains with publishes loses nothing.

        Every bit that was published is eventually delivered by exactly
        one drain (drains of bits set multiple times between drains
        count once, like the real mask).
        """
        mask = AtomicBitmask(128)
        published = set()
        delivered = []
        for op, bit in operations:
            if op == "set":
                mask.set_bit(bit)
                published.add(bit)
            elif op == "drain_word0":
                got = mask.drain_word(0)
                delivered.extend(got)
                for b in got:
                    published.discard(b)
            else:
                got = mask.drain_word(1)
                delivered.extend(got)
                for b in got:
                    published.discard(b)
        # Final full drain delivers exactly the outstanding publishes.
        rest = mask.drain()
        assert set(rest) == published
        # No bit is delivered while it was not published: every drained
        # bit must have been set at some point (delivered is a subset of
        # all bits ever published).
        assert all(0 <= b < 128 for b in delivered)

    def test_no_lost_or_duplicated_updates_under_threads(self):
        """The same property under real concurrency: publisher threads
        fetch-or bits while a drainer thread exchanges words out from
        under them.  Every published bit is delivered by exactly one
        drain — the guarantee the ThreadedBackend's update masks rely
        on."""
        mask = AtomicBitmask(128)
        mask.enable_concurrency()
        n_publishers, per_publisher = 4, 400
        delivered: list = []
        stop = threading.Event()

        def publish(offset):
            # Each publisher owns a disjoint bit range, published many
            # times; re-publishes between drains legally collapse.
            for i in range(per_publisher):
                mask.set_bit(offset + i % 32)

        def drain_loop():
            while not stop.is_set():
                delivered.extend(mask.drain())

        drainer = threading.Thread(target=drain_loop)
        publishers = [
            threading.Thread(target=publish, args=(32 * k,))
            for k in range(n_publishers)
        ]
        drainer.start()
        for t in publishers:
            t.start()
        for t in publishers:
            t.join()
        stop.set()
        drainer.join()
        delivered.extend(mask.drain())  # anything still outstanding

        # Nothing lost: every owned bit was published at least once and
        # must have been delivered at least once.
        expected = {32 * k + i for k in range(n_publishers) for i in range(32)}
        assert set(delivered) == expected
        # Nothing duplicated *within one drain*: each drain's word
        # exchange clears what it returns, so consecutive deliveries of
        # one bit require an intervening publish.  With publishers done
        # and the mask drained, the final state must be empty.
        assert not mask.any_set()
