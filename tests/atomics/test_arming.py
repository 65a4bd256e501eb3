"""Arming an atomic changes whether it locks, never what it computes.

Each primitive starts lock-free and ``enable_concurrency()`` installs its
locks.  An unarmed and an armed copy driven through the same random
operation sequence must return the same value from every call and end in
the same state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atomics import AtomicBitmask, AtomicCounter, TaggedPointer

NBITS = 130  # three words: the last one partial

mask_ops = st.lists(
    st.one_of(
        st.tuples(st.just("set_bit"), st.integers(0, NBITS - 1)),
        st.tuples(st.just("fetch_or"), st.integers(0, 2), st.integers(0, 2**64 - 1)),
        st.tuples(st.just("exchange"), st.integers(0, 2)),
        st.tuples(st.just("drain_word"), st.integers(0, 2)),
        st.tuples(st.just("drain")),
        st.tuples(st.just("drain_bits")),
    ),
    max_size=50,
)
counter_ops = st.lists(
    st.tuples(st.sampled_from(("fetch_add", "add_and_fetch")), st.integers(-5, 5)),
    max_size=50,
)
PAYLOADS = ("a", "b", None)
pointer_ops = st.lists(
    st.one_of(
        st.tuples(st.just("store"), st.sampled_from(PAYLOADS)),
        st.tuples(st.just("tag_invalid"), st.sampled_from(PAYLOADS)),
        st.tuples(st.just("clear")),
        st.tuples(st.just("load")),
    ),
    max_size=50,
)


def replay(target, ops):
    return [getattr(target, name)(*args) for name, *args in ops]


def pair(make):
    unarmed, armed = make(), make()
    armed.enable_concurrency()
    return unarmed, armed


@given(mask_ops)
@settings(max_examples=200)
def test_armed_and_unarmed_masks_agree(ops):
    unarmed, armed = pair(lambda: AtomicBitmask(NBITS))
    assert unarmed._word_locks is None and len(armed._word_locks) == 3
    assert replay(unarmed, ops) == replay(armed, ops)
    assert unarmed._words == armed._words
    assert (unarmed.fetch_or_count, unarmed.exchange_count) == (
        armed.fetch_or_count,
        armed.exchange_count,
    )


@given(st.integers(-3, 3), counter_ops)
@settings(max_examples=200)
def test_armed_and_unarmed_counters_agree(start, ops):
    unarmed, armed = pair(lambda: AtomicCounter(start))
    assert unarmed._lock is None and armed._lock is not None
    assert replay(unarmed, ops) == replay(armed, ops)
    assert (unarmed.load(), unarmed.op_count) == (armed.load(), armed.op_count)


@given(pointer_ops)
@settings(max_examples=200)
def test_armed_and_unarmed_pointers_agree(ops):
    unarmed, armed = pair(TaggedPointer)
    assert unarmed._lock is None and armed._lock is not None
    assert replay(unarmed, ops) == replay(armed, ops)
    assert unarmed.load() == armed.load()


def test_arming_twice_keeps_the_first_locks():
    mask, counter, pointer = AtomicBitmask(70), AtomicCounter(), TaggedPointer()
    for atomic in (mask, counter, pointer):
        atomic.enable_concurrency()
    locks = (list(mask._word_locks), counter._lock, pointer._lock)
    for atomic in (mask, counter, pointer):
        atomic.enable_concurrency()
    assert locks == (list(mask._word_locks), counter._lock, pointer._lock)
