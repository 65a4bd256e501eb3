"""Pluggable admission control: reject/block/shed, quotas, SLA classes.

PR 7 extracts the :class:`~repro.server.AnalyticsServer`'s inline
admission logic into policy objects so a cluster of shards can share
(and specialise) it.  Three pieces:

* :class:`SlaClass` — a *deliberately unfair* service class ("Unfair by
  design", arXiv 2605.02377): latency-critical queries get a large
  scheduling priority and §3.2 user-priority weight and are never shed;
  bulk analytics run at baseline weight and are first against the wall
  under overload.  Classes are first-class admission policy, not a
  per-query knob the caller has to remember.
* :class:`TenantQuota` bookkeeping — per-tenant bounds on pending
  queries, enforced *before* global capacity so one tenant cannot
  occupy a whole shard.  Violations raise the machine-distinguishable
  :class:`~repro.errors.TenantQuotaError`.
* :class:`AdmissionPolicy` and its three concrete modes, matching the
  server's historical ``admission="reject" | "block" | "shed"`` strings
  bit-for-bit in behaviour and message text.

A policy object is stateless with respect to the server: every decision
reads the live backend counters and the pending ledger the server's
:class:`~repro.runtime.tickets.TicketRegistry` maintains (per-tenant
counts, ``(priority, sla)`` classes), so a decision costs the same on a
server's first query and its millionth, and one policy instance could
in principle be shared by many shards.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.errors import AdmissionError, ReproError, TenantQuotaError
from repro.runtime.backend import BackendState, ExecutionBackend
from repro.runtime.tickets import TicketRegistry


@dataclass(frozen=True)
class SlaClass:
    """One admission class: how unfairly its queries are treated.

    ``priority`` feeds the server's shedding order (higher survives),
    ``weight`` is applied as the §3.2 user-priority scaling inside the
    scheduler (a weight-4 query's decayed priority floors four times
    higher), and ``sheddable=False`` exempts the class from overload
    eviction entirely.
    """

    name: str
    priority: int = 0
    weight: float = 1.0
    sheddable: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("an SLA class needs a non-empty name")
        if self.weight <= 0.0:
            raise ReproError(
                f"SLA class {self.name!r}: weight must be positive"
            )


#: The canonical unfair pair: interactive dashboards vs. bulk analytics.
LATENCY_CRITICAL = SlaClass("latency", priority=100, weight=4.0, sheddable=False)
BULK = SlaClass("bulk", priority=0, weight=1.0, sheddable=True)

#: Name -> class for the classes every server understands by default.
DEFAULT_SLA_CLASSES: Dict[str, SlaClass] = {
    cls.name: cls for cls in (LATENCY_CRITICAL, BULK)
}


@dataclass(frozen=True)
class AdmissionRequest:
    """What a submission looks like to an admission policy."""

    priority: int = 0
    tenant: Optional[str] = None
    sla: Optional[SlaClass] = None

    @property
    def effective_priority(self) -> int:
        """Class base priority plus the caller's within-class offset."""
        base = self.sla.priority if self.sla is not None else 0
        return base + self.priority


class AdmissionPolicy(abc.ABC):
    """Decides whether one more query may enter a shard.

    Policies are consulted by ``AnalyticsServer.submit`` *before* the
    backend sees the spec.  They may admit silently, raise
    :class:`~repro.errors.AdmissionError` /
    :class:`~repro.errors.TenantQuotaError`, fail a pending victim to
    make room, or (realtime backends only) block the caller.
    """

    #: The historical ``admission=...`` string this policy implements.
    name: str = "abstract"
    #: Whether the policy needs real concurrent completions to make
    #: progress.  The server rejects such policies *at construction*
    #: on virtual-time backends, where blocking would deadlock.
    requires_realtime: bool = False

    def __init__(
        self,
        max_pending: Optional[int] = None,
        tenant_quotas: Optional[Mapping[str, int]] = None,
        default_tenant_quota: Optional[int] = None,
    ) -> None:
        if max_pending is not None and max_pending < 1:
            raise ReproError("max_pending must be at least 1")
        quotas = dict(tenant_quotas or {})
        for tenant, quota in quotas.items():
            if quota < 1:
                raise ReproError(
                    f"tenant {tenant!r}: quota must be at least 1"
                )
        if default_tenant_quota is not None and default_tenant_quota < 1:
            raise ReproError("default_tenant_quota must be at least 1")
        self.max_pending = max_pending
        self.tenant_quotas = quotas
        self.default_tenant_quota = default_tenant_quota

    # ------------------------------------------------------------------
    # The decision
    # ------------------------------------------------------------------
    def admit(
        self,
        backend: ExecutionBackend,
        tickets: TicketRegistry,
        request: AdmissionRequest,
    ) -> None:
        """Admit ``request`` or raise; may shed a victim to make room."""
        self._check_tenant_quota(backend, tickets, request)
        limit = self.max_pending
        if limit is None or backend.pending_count < limit:
            return
        self._on_full(backend, tickets, request)

    @abc.abstractmethod
    def _on_full(
        self,
        backend: ExecutionBackend,
        tickets: TicketRegistry,
        request: AdmissionRequest,
    ) -> None:
        """Handle a submission that found the shard at capacity."""

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def tenant_pending(
        self,
        backend: ExecutionBackend,
        tickets: TicketRegistry,
        tenant: str,
    ) -> int:
        """Pending queries currently charged to ``tenant``."""
        return tickets.tenant_pending(tenant)

    def _check_tenant_quota(
        self,
        backend: ExecutionBackend,
        tickets: TicketRegistry,
        request: AdmissionRequest,
    ) -> None:
        if request.tenant is None:
            return
        quota = self.tenant_quotas.get(
            request.tenant, self.default_tenant_quota
        )
        if quota is None:
            return
        pending = self.tenant_pending(backend, tickets, request.tenant)
        if pending >= quota:
            raise TenantQuotaError(
                f"tenant {request.tenant!r} is over quota: {pending} "
                f"queries pending (quota {quota}); throttle this tenant "
                f"or drain()"
            )


class RejectingAdmission(AdmissionPolicy):
    """Explicit backpressure: a full shard raises ``AdmissionError``."""

    name = "reject"

    def _on_full(self, backend, tickets, request):
        raise AdmissionError(
            f"server full: {backend.pending_count} queries "
            f"pending (max_pending={self.max_pending}); retry later or "
            f"drain()"
        )


class BlockingAdmission(AdmissionPolicy):
    """Wait for capacity — realtime backends only.

    In virtual time nothing completes between submissions, so blocking
    would deadlock; the server enforces ``requires_realtime`` eagerly
    at construction (see the PR 7 satellite fix) instead of hanging at
    submit time.
    """

    name = "block"
    requires_realtime = True

    def _on_full(self, backend, tickets, request):
        # Sleeps on the backend's condition, which every settle and the
        # shutdown notify: a freed slot wakes the submitter, no timer.
        backend._await(
            lambda: backend.pending_count < self.max_pending
            or backend.state is BackendState.CLOSED
        )
        if backend.state is BackendState.CLOSED:
            raise ReproError("server shut down while blocked on admission")


class SheddingAdmission(AdmissionPolicy):
    """Degrade under overload: evict the lowest-priority pending query.

    Only *strictly* lower priorities qualify (two same-priority queries
    must not evict each other in a loop), ties resolve to the newest
    victim, and queries in a non-sheddable SLA class (latency-critical)
    are never considered.
    """

    name = "shed"

    def __init__(
        self,
        max_pending: Optional[int] = None,
        tenant_quotas: Optional[Mapping[str, int]] = None,
        default_tenant_quota: Optional[int] = None,
        sla_classes: Optional[Mapping[str, SlaClass]] = None,
    ) -> None:
        super().__init__(max_pending, tenant_quotas, default_tenant_quota)
        self.sla_classes = dict(sla_classes or DEFAULT_SLA_CLASSES)

    def _sheddable(self, sla_name: Optional[str]) -> bool:
        sla = self.sla_classes.get(sla_name)
        return sla is None or sla.sheddable

    def shed_victim(
        self,
        backend: ExecutionBackend,
        tickets: TicketRegistry,
        priority: int,
    ) -> Optional[int]:
        """The pending ticket to shed: lowest priority, newest on ties."""
        candidates = [
            (victim_priority, -newest)
            for victim_priority, sla_name, newest in tickets.pending_classes()
            if victim_priority < priority and self._sheddable(sla_name)
        ]
        return -min(candidates)[1] if candidates else None

    def _on_full(self, backend, tickets, request):
        priority = request.effective_priority
        victim = self.shed_victim(backend, tickets, priority)
        if victim is None:
            raise AdmissionError(
                f"server full: {backend.pending_count} queries "
                f"pending (max_pending={self.max_pending}) and none has "
                f"lower priority than {priority}; retry later or drain()"
            )
        backend.fail(
            victim,
            AdmissionError(
                f"query job {victim} shed under overload to admit a "
                f"priority-{priority} query"
            ),
        )


#: ``admission=`` string -> policy class, the server's construction map.
ADMISSION_POLICIES = {
    "reject": RejectingAdmission,
    "block": BlockingAdmission,
    "shed": SheddingAdmission,
}


def make_admission_policy(
    mode: str,
    *,
    max_pending: Optional[int] = None,
    tenant_quotas: Optional[Mapping[str, int]] = None,
    default_tenant_quota: Optional[int] = None,
    sla_classes: Optional[Mapping[str, SlaClass]] = None,
) -> AdmissionPolicy:
    """Build an admission policy from its historical string name."""
    cls = ADMISSION_POLICIES.get(mode)
    if cls is None:
        raise ReproError(
            f"unknown admission policy {mode!r}; choose from "
            f"{sorted(ADMISSION_POLICIES)}"
        )
    if cls is SheddingAdmission:
        return SheddingAdmission(
            max_pending,
            tenant_quotas,
            default_tenant_quota,
            sla_classes=sla_classes,
        )
    return cls(max_pending, tenant_quotas, default_tenant_quota)
