"""The scans the pending ledger replaced, kept as the test reference.

These are the bodies of ``AdmissionPolicy._is_pending`` /
``tenant_pending`` and ``SheddingAdmission._sheddable`` /
``shed_victim`` as they stood before the
:class:`~repro.runtime.tickets.TicketRegistry` kept a pending ledger:
every answer is recomputed from the backend's records, failure and
cancellation marks by walking every ticket ever issued.  Slow by
design — ``tests/runtime/test_pending_ledger.py`` compares the ledger's
incrementally maintained answers against them with ``==``.
"""

from typing import Optional


def is_pending(backend, ticket: int) -> bool:
    return (
        ticket not in backend.records
        and ticket not in backend.failures
        and not backend.progress(ticket)["cancelled"]
    )


def tenant_pending(backend, tickets, tenant) -> int:
    """Pending queries currently charged to ``tenant``."""
    count = 0
    for ticket in tickets:
        if tickets.tenant_of(ticket) != tenant:
            continue
        if ticket < backend.submitted_count and is_pending(backend, ticket):
            count += 1
    return count


def sheddable(policy, tickets, ticket: int) -> bool:
    sla_name = tickets.sla_of(ticket)
    if sla_name is None:
        return True
    sla = policy.sla_classes.get(sla_name)
    return sla is None or sla.sheddable


def shed_victim(policy, backend, tickets, priority: int) -> Optional[int]:
    """The pending ticket to shed: lowest priority, newest on ties."""
    best: Optional[int] = None
    best_priority = priority
    for ticket in range(backend.submitted_count):
        if not is_pending(backend, ticket):
            continue
        if not sheddable(policy, tickets, ticket):
            continue
        ticket_priority = tickets.priority_of(ticket, 0)
        if ticket_priority < best_priority or (
            best is not None
            and ticket_priority == tickets.priority_of(best, 0)
            and ticket > best
        ):
            best = ticket
            best_priority = ticket_priority
    return best
