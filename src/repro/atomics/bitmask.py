"""Wide atomic bitmasks built from 64-bit words.

The paper (Section 2.3) supports an arbitrary number of scheduler slots by
composing each update mask out of two atomic eight-byte integers.  A
complete mask operation is *not* atomic; only the individual word
operations are.  That is sufficient because the protocol only relies on
two word-level primitives:

* ``fetch_or(word, bits)`` — publish new set bits without disturbing
  concurrent publishers, and
* ``exchange(word, 0)`` — drain all outstanding bits exactly once.

No bit published through ``fetch_or`` can ever be lost: it stays in the
word until some ``exchange`` returns it, and ``exchange`` returns it to
exactly one caller.

Concurrency: a mask starts lock-free, which is all the sequential
simulation needs.  :meth:`AtomicBitmask.enable_concurrency` makes the
word-level primitives *real* atomics — each word is then guarded by its
own lock, exactly the relaxation the paper allows (word granularity, no
whole-mask atomicity).  The :class:`ThreadedBackend
<repro.runtime.threaded.ThreadedBackend>` arms its schedulers' masks
before its threads start and contends them from genuine OS threads;
relaxed reads (:meth:`AtomicBitmask.any_set`, :meth:`AtomicBitmask.peek`)
stay lock-free either way, matching the cheap emptiness probe of §2.3.
"""

from __future__ import annotations

import threading
from typing import Iterator, List, Optional

#: Number of bits per mask word, mirroring a C++ ``std::atomic<uint64_t>``.
WORD_BITS = 64


def iter_set_bits(value: int) -> Iterator[int]:
    """Yield the indices of all set bits in ``value`` in ascending order.

    The paper extracts set bits by repeatedly counting leading zeros and
    shifting (``clz`` / ``shl``).  Python integers expose the equivalent
    through ``bit_length``; we iterate from the lowest bit which is the
    natural order for slot processing.

    >>> list(iter_set_bits(0b1010))
    [1, 3]
    """
    while value:
        low = value & -value
        yield low.bit_length() - 1
        value ^= low


class AtomicBitmask:
    """A bitmask of ``nbits`` bits stored in ceil(nbits / 64) atomic words.

    Supported operations mirror the scheduler protocol:

    * :meth:`fetch_or` / :meth:`exchange` — the two word primitives.
    * :meth:`set_bit` — atomic ``fetch_or`` on the owning word.
    * :meth:`drain` / :meth:`drain_bits` — atomic ``exchange`` with zero
      per word; return the bits that were set, as indices or as one
      integer.  Each set bit is returned to exactly one drainer.
    * :meth:`peek` / :meth:`test_bit` — relaxed reads used by tests.

    The class counts word-level operations so that the overhead accounting
    for Figure 10 can charge a per-operation cost.
    """

    def __init__(self, nbits: int) -> None:
        if nbits <= 0:
            raise ValueError("bitmask must have at least one bit")
        self._nbits = nbits
        nwords = (nbits + WORD_BITS - 1) // WORD_BITS
        self._words: List[int] = [0] * nwords
        #: One lock per word once :meth:`enable_concurrency` ran: the
        #: paper's word-level atomics.  A complete mask operation spanning
        #: several words is deliberately *not* atomic (the protocol
        #: tolerates that relaxation).
        self._word_locks: Optional[List[threading.Lock]] = None
        self.fetch_or_count = 0
        self.exchange_count = 0

    def enable_concurrency(self) -> None:
        """Install the word locks; call before a second thread touches the mask."""
        if self._word_locks is None:
            self._word_locks = [threading.Lock() for _ in self._words]

    @property
    def nbits(self) -> int:
        """Number of addressable bits."""
        return self._nbits

    @property
    def nwords(self) -> int:
        """Number of 64-bit words backing the mask."""
        return len(self._words)

    def _check_index(self, bit: int) -> None:
        if not 0 <= bit < self._nbits:
            raise IndexError(f"bit {bit} out of range [0, {self._nbits})")

    def fetch_or(self, word: int, bits: int) -> int:
        """Atomically OR ``bits`` into ``word``; return the word's old value."""
        words = self._words
        locks = self._word_locks
        if locks is None:
            old = words[word]
            words[word] = old | bits
            self.fetch_or_count += 1
            return old
        with locks[word]:
            old = words[word]
            words[word] = old | bits
            self.fetch_or_count += 1
        return old

    def exchange(self, word: int) -> int:
        """Atomically exchange ``word`` with zero; return its old value."""
        words = self._words
        locks = self._word_locks
        if locks is None:
            old = words[word]
            words[word] = 0
            self.exchange_count += 1
            return old
        with locks[word]:
            old = words[word]
            words[word] = 0
            self.exchange_count += 1
        return old

    def set_bit(self, bit: int) -> bool:
        """Atomically set ``bit`` via ``fetch_or``; return the previous value.

        Returns ``True`` if the bit was already set (the publish was
        redundant), ``False`` if this call transitioned it from 0 to 1.
        """
        self._check_index(bit)
        word, offset = divmod(bit, WORD_BITS)
        mask = 1 << offset
        return bool(self.fetch_or(word, mask) & mask)

    def drain(self) -> List[int]:
        """Atomically exchange every word with zero; return drained bit indices.

        The exchange happens word by word — exactly the relaxation the
        paper allows.  A publisher racing between the two word exchanges
        will simply be drained on the next call; its bit is never lost.
        """
        return [bit for index in range(len(self._words)) for bit in self.drain_word(index)]

    def drain_bits(self) -> int:
        """Exchange every set word with zero; return the bits as one integer.

        Bit ``i`` of the result is mask bit ``i``.  A word the relaxed
        read sees empty is not exchanged: a publisher racing with that
        read is drained by the next call, so its bit is never lost.
        """
        drained = 0
        for word_index, word in enumerate(self._words):
            if word:
                drained |= self.exchange(word_index) << (word_index * WORD_BITS)
        return drained

    def drain_word(self, word_index: int) -> List[int]:
        """Exchange a single word with zero (for interleaving tests)."""
        old = self.exchange(word_index)
        base = word_index * WORD_BITS
        return [base + b for b in iter_set_bits(old)]

    def test_bit(self, bit: int) -> bool:
        """Relaxed read of a single bit."""
        self._check_index(bit)
        word, offset = divmod(bit, WORD_BITS)
        return bool(self._words[word] & (1 << offset))

    def peek(self) -> List[int]:
        """Relaxed read of all currently set bit indices (no draining)."""
        result: List[int] = []
        for word_index, word in enumerate(self._words):
            base = word_index * WORD_BITS
            result.extend(base + b for b in iter_set_bits(word))
        return result

    def any_set(self) -> bool:
        """Relaxed check whether any bit is set (cheap emptiness probe).

        The scheduler uses this before draining: if no writes happened
        since the last drain the synchronization step is nearly free and
        causes no cache invalidation (Section 2.3).
        """
        return any(self._words)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        bits = ",".join(str(b) for b in self.peek())
        return f"AtomicBitmask(nbits={self._nbits}, set=[{bits}])"
