"""Ticket bookkeeping: aliases, retry state and per-ticket metadata.

The :class:`~repro.server.AnalyticsServer` (and, one level up, the
:class:`~repro.cluster.ClusterRouter`) issue integer *tickets* for
submitted queries.  A ticket's life is more complicated than one
backend job id:

* a retried query gets a fresh backend ticket per attempt, and the
  caller's original ticket must follow the alias chain to the latest
  attempt;
* a query handed off to another shard keeps its cluster ticket but
  changes its :class:`ShardAddress`;
* admission policies need the submission priority, tenant and SLA
  class of every pending ticket to pick shedding victims and enforce
  per-tenant quotas.

:class:`TicketRegistry` centralises that bookkeeping behind one small
API.  It is the mapping step of each layer's one resolver, ``_locate``:
the server's returns ``backend._locate(resolve(ticket))``, the router's reads
:meth:`~TicketRegistry.address_of` and chains into the shard's, so a
cluster ticket reaches the ``(backend, job)`` of its latest attempt in
one call (see "One ticket path" in ``docs/architecture.md``).  Beside the
per-ticket metadata it keeps the *pending ledger* of its namespace —
which tickets are still pending, how many per tenant, which per
``(priority, sla)`` class, which retry chains can still fire — updated
only where a job changes state, so quota checks, shed decisions, retry
sweeps and router settlement cost O(pending), never O(ever issued).
The registry is told, it never asks: it holds no backend reference, its
owner calls :meth:`~TicketRegistry.register` when a ticket is issued
and :meth:`~TicketRegistry.settle` when its job stops being pending,
which keeps it usable at both the shard and the cluster layer.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple


class ShardAddress(NamedTuple):
    """Where a cluster ticket currently lives: ``(shard, ticket)``."""

    shard: int
    ticket: int


@dataclass
class TicketState:
    """Everything the issuing layer knows about one ticket."""

    priority: int = 0
    tenant: Optional[str] = None
    sla: Optional[str] = None
    #: Cluster layer only: the shard ticket this cluster ticket maps to.
    address: Optional[ShardAddress] = None
    #: Retry policy of the *original* ticket of a chain:
    #: ``{"spec", "at", "left", "attempt", "backoff"}``; ``None`` for
    #: tickets submitted without retries (and for replacement attempts).
    retry: Optional[dict] = None


class TicketRegistry:
    """Alias chains plus per-ticket metadata for one ticket namespace.

    One registry instance covers one ticket space: the server keeps one
    over backend job ids, the cluster router keeps another over cluster
    tickets.  ``resolve`` follows retry/handoff aliases to the ticket
    that currently represents the query; metadata lookups resolve
    through the chain so a replacement attempt inherits the original's
    priority, tenant and SLA class.
    """

    def __init__(self) -> None:
        #: superseded ticket -> its replacement; chains.
        self._aliases: Dict[int, int] = {}
        #: Per-ticket metadata, in registration order.
        self._states: Dict[int, TicketState] = {}
        #: The pending ledger (dicts as insertion-ordered sets): pending
        #: tickets, their count per tenant, their ``(priority, sla)``
        #: buckets (dropped when empty) and the armed retry chains.
        self._pending: Dict[int, None] = {}
        self._tenant_pending: Dict[Optional[str], int] = {}
        self._classes: Dict[Tuple[int, Optional[str]], Dict[int, None]] = {}
        self._armed: Dict[int, None] = {}
        #: Leaf lock over the ledger: a threaded backend settles jobs on
        #: worker threads while submitters register.  Calls nothing.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Registration and aliasing
    # ------------------------------------------------------------------
    def register(
        self,
        ticket: int,
        *,
        priority: int = 0,
        tenant: Optional[str] = None,
        sla: Optional[str] = None,
        address: Optional[ShardAddress] = None,
    ) -> TicketState:
        """Record a freshly issued, pending ticket; returns its state."""
        ticket = int(ticket)
        state = TicketState(
            priority=priority, tenant=tenant, sla=sla, address=address
        )
        with self._lock:
            self._states[ticket] = state
            self._pending[ticket] = None
            self._tenant_pending[tenant] = self._tenant_pending.get(tenant, 0) + 1
            self._classes.setdefault((priority, sla), {})[ticket] = None
        return state

    def settle(self, ticket: int) -> None:
        """The ticket's job stopped being pending; idempotent.

        Also a no-op for a ticket not registered yet: on real threads a
        job can finish before its submitter registers it, which is why
        the owner re-checks the job right after :meth:`register`.
        """
        with self._lock:
            if ticket not in self._pending:
                return
            del self._pending[ticket]
            state = self._states[ticket]
            self._tenant_pending[state.tenant] -= 1
            key = (state.priority, state.sla)
            del self._classes[key][ticket]
            if not self._classes[key]:
                del self._classes[key]

    def alias(self, old: int, new: int) -> None:
        """Point a superseded ticket at its replacement.

        The replacement inherits the old ticket's metadata (priority,
        tenant, SLA) unless it was registered with its own; retry state
        stays keyed on the *original* ticket of the chain.
        """
        old, new = int(old), int(new)
        self._aliases[old] = new
        if new not in self._states:
            previous = self._states.get(old)
            self.register(
                new,
                priority=previous.priority if previous else 0,
                tenant=previous.tenant if previous else None,
                sla=previous.sla if previous else None,
            )

    def resolve(self, ticket: int) -> int:
        """Follow a ticket through its replacements to the latest one."""
        ticket = int(ticket)
        while ticket in self._aliases:
            ticket = self._aliases[ticket]
        return ticket

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self) -> Iterator[int]:
        """All registered tickets, oldest first (deterministic)."""
        return iter(self._states)

    # ------------------------------------------------------------------
    # The pending ledger's readers
    # ------------------------------------------------------------------
    def pending(self) -> List[int]:
        """Tickets whose job is still pending, oldest first (a snapshot)."""
        with self._lock:
            return list(self._pending)

    def tenant_pending(self, tenant: Optional[str]) -> int:
        """How many pending tickets are charged to ``tenant``."""
        return self._tenant_pending.get(tenant, 0)

    def pending_classes(self) -> List[Tuple[int, Optional[str], int]]:
        """``(priority, sla, newest pending ticket)`` per non-empty class."""
        with self._lock:
            return [
                (priority, sla, next(reversed(bucket)))
                for (priority, sla), bucket in self._classes.items()
            ]

    # ------------------------------------------------------------------
    # Metadata (a replacement inherits its chain's when aliased)
    # ------------------------------------------------------------------
    def priority_of(self, ticket: int, default: int = 0) -> int:
        state = self._states.get(int(ticket))
        return state.priority if state is not None else default

    def tenant_of(self, ticket: int) -> Optional[str]:
        state = self._states.get(int(ticket))
        return state.tenant if state is not None else None

    def sla_of(self, ticket: int) -> Optional[str]:
        state = self._states.get(int(ticket))
        return state.sla if state is not None else None

    # ------------------------------------------------------------------
    # Addresses (cluster layer)
    # ------------------------------------------------------------------
    def address_of(self, ticket: int) -> Optional[ShardAddress]:
        """The current shard address of a (resolved) cluster ticket."""
        state = self._states.get(self.resolve(ticket))
        return state.address if state is not None else None

    def readdress(self, ticket: int, address: ShardAddress) -> None:
        """Move a cluster ticket to a new shard (drain/handoff)."""
        state = self._states.get(self.resolve(ticket))
        if state is None:
            raise KeyError(f"unknown ticket {ticket}")
        state.address = address

    # ------------------------------------------------------------------
    # Retry state (keyed on the chain's original ticket)
    # ------------------------------------------------------------------
    def arm_retry(
        self,
        ticket: int,
        *,
        spec,
        at,
        retries: int,
        backoff: float,
    ) -> None:
        """Attach a retry policy to a freshly submitted ticket."""
        state = self._states[int(ticket)]
        state.retry = {
            "spec": spec,
            "at": at,
            "left": retries,
            "attempt": 0,
            "backoff": backoff,
        }
        self._armed[int(ticket)] = None

    def retry_state(self, ticket: int) -> Optional[dict]:
        state = self._states.get(int(ticket))
        return state.retry if state is not None else None

    def disarm_retry(self, ticket: int) -> None:
        """Stop further retries of a chain (cancellation)."""
        state = self._states.get(int(ticket))
        if state is not None:
            state.retry = None
            self.retire_retry(ticket)

    def retire_retry(self, ticket: int) -> None:
        """The chain can never fire again; its retry state stays readable."""
        self._armed.pop(int(ticket), None)

    def retryable_tickets(self) -> List[int]:
        """Original tickets whose retry chain can still fire, oldest first."""
        return list(self._armed)
