"""The cluster layer: a router fronting N analytics shards.

:class:`ClusterRouter` owns a fleet of
:class:`~repro.server.AnalyticsServer` shards and presents the same
submit/drain/result surface one server does, plus the cluster-only
operations — placement and shard draining:

* **Placement** — every :meth:`submit` picks a shard through a
  :class:`~repro.cluster.placement.PlacementPolicy`; the default
  :class:`~repro.cluster.placement.PredictivePlacement` routes to the
  shard with the smallest predicted completion time, calibrated online
  from the shards' own latency records.
* **Cluster tickets** — the router issues its own ticket namespace and
  maps each ticket to a live ``(shard, shard_ticket)``
  :class:`~repro.runtime.tickets.ShardAddress`.  Shard-level retries
  stay invisible: the address points at the *original* shard ticket.
  The router's resolver, :meth:`_locate`, reads the address and chains
  into the shard's, which follows the shard's alias chain, so a cluster
  ticket resolves to the ``(backend, job)`` of its latest attempt in
  one call.  :meth:`submit` returns a
  :class:`~repro.runtime.handle.QueryHandle` bound to the router, which
  answers through the same chain.
* **Drain/handoff** — :meth:`drain_shard` moves every unfinished query
  off a shard (cancel at the source, resubmit at a placement-chosen
  target, re-address the cluster ticket) and optionally decommissions
  it.  No ticket is ever lost: finished queries keep their records on
  the retired shard, moved ones complete elsewhere.

Tenant quotas are enforced *cluster-wide* here (before placement, so a
rejected query never perturbs the placement state), while per-shard
``max_pending``/``admission`` backpressure stays a shard concern.  On
the simulated backend with ``environment="model"`` (the default) a
router run is bit-identical across repeats and hash seeds — the
determinism the routing benchmarks and CI smoke are built on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.specs import QuerySpec
from repro.engine.datagen import TpchDatabase, generate_tpch
from repro.errors import ReproError, TenantQuotaError, UnknownTicketError
from repro.metrics.latency import LatencyRecord
from repro.runtime.admission import AdmissionPolicy, SlaClass
from repro.runtime.handle import QueryHandle
from repro.runtime.tickets import ShardAddress, TicketRegistry
from repro.server import AnalyticsServer
from repro.cluster.placement import PlacementPolicy, make_placement_policy
from repro.workloads.phased import sla_of, tenant_of


class ClusterRouter:
    """Route queries across a fleet of analytics shards.

    ``environment="model"`` (the default) gives bit-identical cluster
    runs on the simulated backend; ``environment="engine"`` generates
    one TPC-H database (or takes ``database=``) and shares it read-only
    across all shards, which may then use any backend.  Shard ``i`` runs
    with ``seed + i`` so shards are decorrelated but the fleet as a
    whole is a pure function of ``seed``.
    """

    def __init__(
        self,
        n_shards: int = 4,
        scale_factor: float = 1.0,
        scheduler: str = "tuning",
        n_workers: int = 4,
        t_max: float = 0.002,
        seed: int = 0,
        backend: str = "simulated",
        max_pending: Optional[int] = None,
        admission: Union[str, AdmissionPolicy] = "reject",
        retry_budget: int = 16,
        *,
        environment: str = "model",
        placement: Union[str, PlacementPolicy] = "predictive",
        tenant_quotas: Optional[Dict[str, int]] = None,
        default_tenant_quota: Optional[int] = None,
        sla_classes: Optional[dict] = None,
        database: Optional[TpchDatabase] = None,
        sharing: bool = False,
        sharing_cache_entries: int = 64,
        sharing_attach_buffer: int = 16,
    ) -> None:
        if n_shards < 1:
            raise ReproError("a cluster needs at least one shard")
        quotas = dict(tenant_quotas or {})
        for tenant, quota in quotas.items():
            if quota < 1:
                raise ReproError(f"tenant {tenant!r}: quota must be at least 1")
        if default_tenant_quota is not None and default_tenant_quota < 1:
            raise ReproError("default_tenant_quota must be at least 1")
        self.tenant_quotas = quotas
        self.default_tenant_quota = default_tenant_quota
        if environment == "engine" and database is None:
            # One database for the whole fleet: shards serve the same
            # data (scale-out for concurrency, not partitioning).
            database = generate_tpch(scale_factor, seed=seed)
        self.shards: List[AnalyticsServer] = [
            AnalyticsServer(
                scale_factor=scale_factor,
                scheduler=scheduler,
                n_workers=n_workers,
                t_max=t_max,
                seed=seed + index,
                database=database,
                backend=backend,
                max_pending=max_pending,
                admission=admission,
                retry_budget=retry_budget,
                environment=environment,
                sla_classes=sla_classes,
                sharing=sharing,
                sharing_cache_entries=sharing_cache_entries,
                sharing_attach_buffer=sharing_attach_buffer,
            )
            for index in range(n_shards)
        ]
        self._sharing = bool(sharing)
        if sharing and isinstance(placement, str) and placement == "predictive":
            # With sharing on, the default predictor also steers
            # same-fragment queries toward the shard already scanning
            # that fragment, so they fold instead of running twice.
            # Explicit policy instances are taken as configured.
            from repro.cluster.placement import PredictivePlacement

            placement = PredictivePlacement(sharing_affinity=0.5)
        self._placement = make_placement_policy(placement)
        self._placement.bind(n_shards, n_workers)
        #: Shards eligible for new placements (drained shards drop out).
        self._active: List[bool] = [True] * n_shards
        #: Shards whose server is still running (decommissioned drop out).
        self._alive: List[bool] = [True] * n_shards
        self._tickets = TicketRegistry()
        self._next_ticket = 0
        #: Pending cluster ticket -> submission bookkeeping for
        #: handoff/settle; ``_settle``, its last reader, drops it.
        self._entries: Dict[int, dict] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def placement(self) -> PlacementPolicy:
        """The placement policy (exposed for tests and monitoring)."""
        return self._placement

    @property
    def tickets(self) -> TicketRegistry:
        """Cluster ticket bookkeeping (addresses, tenants, SLA)."""
        return self._tickets

    @property
    def sharing(self) -> bool:
        """Whether the shards run with work sharing enabled."""
        return self._sharing

    @property
    def sharing_stats(self):
        """Cluster-wide work-sharing counters (summed over shards)."""
        from repro.sharing import SharingStats

        total = SharingStats()
        for shard in self.shards:
            total = total.merge(shard.sharing_stats)
        return total

    def active_shards(self) -> List[int]:
        """Indices of shards eligible for new placements, ascending."""
        return [i for i, active in enumerate(self._active) if active]

    @property
    def pending_count(self) -> int:
        return sum(
            shard.pending_count
            for shard, alive in zip(self.shards, self._alive)
            if alive
        )

    @property
    def completed_count(self) -> int:
        return sum(shard.completed_count for shard in self.shards)

    def tenant_pending(self, tenant: str) -> int:
        """Pending queries charged to ``tenant`` across the cluster."""
        return sum(
            shard.tenant_pending(tenant)
            for shard, alive in zip(self.shards, self._alive)
            if alive
        )

    @property
    def available_queries(self) -> Tuple[str, ...]:
        return self.shards[0].available_queries

    def query_spec(self, name: str) -> QuerySpec:
        """The spec :meth:`submit` would route for ``name``."""
        return self.shards[0].query_spec(name)

    def address_of(self, ticket: int) -> ShardAddress:
        """The ``(shard, shard_ticket)`` a cluster ticket resolves to."""
        address = self._tickets.address_of(ticket)
        if address is None:
            raise UnknownTicketError(f"unknown cluster ticket {int(ticket)}")
        return address

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        for shard, alive in zip(self.shards, self._alive):
            if alive:
                shard.start()

    def shutdown(self) -> None:
        for shard, alive in zip(self.shards, self._alive):
            if alive:
                shard.shutdown()

    def drain(self) -> List[LatencyRecord]:
        """Run every shard to quiescence; new records in shard order.

        Like :meth:`AnalyticsServer.drain` the returned list contains
        the records of every *attempt*; use :meth:`record` on a cluster
        ticket for its final outcome.  Completions are fed back into the
        placement predictor (calibration) before returning.
        """
        records: List[LatencyRecord] = []
        for index, shard in enumerate(self.shards):
            if self._alive[index]:
                records.extend(shard.drain())
        self._settle()
        # Virtual time restarts at zero next epoch; time-based backlog
        # state in the placement model must restart with it.
        self._placement.epoch_reset()
        return records

    run = drain

    # ------------------------------------------------------------------
    # Submission and routing
    # ------------------------------------------------------------------
    def submit(
        self,
        name: str,
        at: Optional[float] = None,
        *,
        deadline: Optional[float] = None,
        retries: int = 0,
        backoff: Optional[float] = None,
        priority: int = 0,
        tenant: Optional[str] = None,
        sla: Optional[Union[str, SlaClass]] = None,
        shard: Optional[int] = None,
    ) -> QueryHandle:
        """Route one query by name; returns its :class:`QueryHandle`.

        All :meth:`AnalyticsServer.submit` keywords apply per shard
        (``backoff=None`` takes the shard's ``runtime.retry_backoff``);
        ``shard=`` pins the query to an explicit shard, otherwise the
        placement policy chooses.
        """
        return self.submit_spec(
            self.query_spec(name),
            at=at,
            deadline=deadline,
            retries=retries,
            backoff=backoff,
            priority=priority,
            tenant=tenant,
            sla=sla,
            shard=shard,
        )

    def submit_spec(
        self,
        spec: QuerySpec,
        at: Optional[float] = None,
        *,
        deadline: Optional[float] = None,
        retries: int = 0,
        backoff: Optional[float] = None,
        priority: int = 0,
        tenant: Optional[str] = None,
        sla: Optional[Union[str, SlaClass]] = None,
        shard: Optional[int] = None,
    ) -> QueryHandle:
        """Route a pre-built :class:`QuerySpec` (model environment)."""
        self._check_tenant_quota(tenant)
        at_time = 0.0 if at is None else float(at)
        weight = self._weight_of(spec, sla)
        if shard is None:
            shard = self._placement.choose(
                spec, self.active_shards(), at_time, weight
            )
        elif not (0 <= shard < len(self.shards)) or not self._alive[shard]:
            raise ReproError(
                f"shard {shard} is not available; active shards: "
                f"{self.active_shards()}"
            )
        server = self.shards[shard]
        shard_handle = server.submit_spec(
            spec,
            at=at,
            deadline=deadline,
            retries=retries,
            backoff=backoff,
            priority=priority,
            tenant=tenant,
            sla=sla,
        )
        charge = self._placement.on_submit(shard, spec, at_time, weight)
        ticket = self._next_ticket
        self._next_ticket += 1
        sla_name = sla.name if isinstance(sla, SlaClass) else sla
        self._tickets.register(
            ticket,
            priority=priority,
            tenant=tenant,
            sla=sla_name,
            address=ShardAddress(shard, int(shard_handle)),
        )
        self._entries[ticket] = {
            "spec": spec,
            "at": at,
            "deadline": deadline,
            "retries": retries,
            "backoff": backoff,
            "priority": priority,
            "tenant": tenant,
            "sla": sla,
            "weight": weight,
            "charge": charge,
        }
        return QueryHandle.attach(ticket, self)

    def _weight_of(
        self, spec: QuerySpec, sla: Optional[Union[str, SlaClass]]
    ) -> float:
        """The §3.2 scheduling weight the query will run with."""
        if spec.user_priority is not None:
            return float(spec.user_priority)
        if isinstance(sla, SlaClass):
            return sla.weight
        if sla is not None:
            sla_class = self.shards[0].sla_classes.get(sla)
            if sla_class is not None:
                return sla_class.weight
        return 1.0

    def submit_workload(
        self,
        workload: Sequence[Tuple[float, QuerySpec]],
        *,
        retries: int = 0,
        backoff: Optional[float] = None,
    ) -> List[QueryHandle]:
        """Route a ``[(arrival, spec)]`` workload (e.g. a phased
        multi-tenant stream): each query's tenant and SLA class are read
        off its ``tenant:<name>`` / ``sla:<name>`` tags, so §3.2
        fairness workloads run against the cluster unchanged."""
        handles = []
        for arrival, spec in workload:
            handles.append(
                self.submit_spec(
                    spec,
                    at=arrival,
                    retries=retries,
                    backoff=backoff,
                    tenant=tenant_of(spec),
                    sla=sla_of(spec),
                )
            )
        return handles

    def _check_tenant_quota(self, tenant: Optional[str]) -> None:
        if tenant is None:
            return
        quota = self.tenant_quotas.get(tenant, self.default_tenant_quota)
        if quota is None:
            return
        pending = self.tenant_pending(tenant)
        if pending >= quota:
            raise TenantQuotaError(
                f"tenant {tenant!r} is over cluster quota: {pending} "
                f"queries pending (quota {quota}); throttle this tenant "
                f"or drain()"
            )

    # ------------------------------------------------------------------
    # Shard draining / handoff
    # ------------------------------------------------------------------
    def drain_shard(self, shard: int, *, decommission: bool = True) -> int:
        """Move every unfinished query off ``shard``; returns the count.

        Each moved query is cancelled at the source (which also disarms
        its shard-level retries), resubmitted at a placement-chosen
        target with its original spec, arrival, deadline, retry policy
        (a defaulted backoff takes the target's), priority, tenant and
        SLA class, and its cluster ticket is
        re-addressed — callers holding the ticket never notice.  With
        ``decommission=True`` (default) the emptied shard is then
        drained and shut down; finished queries keep their records
        readable there.  With ``decommission=False`` the shard stays
        running but receives no new placements until
        :meth:`reactivate`.
        """
        if not (0 <= shard < len(self.shards)):
            raise ReproError(f"no such shard {shard}")
        if not self._alive[shard]:
            raise ReproError(f"shard {shard} is already decommissioned")
        self._active[shard] = False
        targets = self.active_shards()
        if not targets:
            self._active[shard] = True
            raise ReproError(
                "cannot drain the last active shard; add capacity first"
            )
        server = self.shards[shard]
        moved = 0
        for ticket in self._tickets.pending():
            entry = self._entries[ticket]
            address = self._tickets.address_of(ticket)
            if address.shard != shard:
                continue
            backend, job = server._locate(address.ticket)
            if backend.terminal(job):
                continue  # already finished here; settles normally
            at_time = 0.0 if entry["at"] is None else float(entry["at"])
            target = self._placement.choose(
                entry["spec"], targets, at_time, entry["weight"]
            )
            server.cancel(address.ticket)
            replacement = self.shards[target].submit_spec(
                entry["spec"],
                at=entry["at"],
                deadline=entry["deadline"],
                retries=entry["retries"],
                backoff=entry["backoff"],
                priority=entry["priority"],
                tenant=entry["tenant"],
                sla=entry["sla"],
            )
            entry["charge"] = self._placement.transfer(
                shard,
                target,
                entry["spec"],
                entry["charge"],
                at_time,
                entry["weight"],
            )
            self._tickets.readdress(
                ticket, ShardAddress(target, int(replacement))
            )
            moved += 1
        if decommission:
            server.drain()
            server.shutdown()
            self._alive[shard] = False
        return moved

    def reactivate(self, shard: int) -> None:
        """Resume placements onto a shard drained with
        ``decommission=False``."""
        if not (0 <= shard < len(self.shards)):
            raise ReproError(f"no such shard {shard}")
        if not self._alive[shard]:
            raise ReproError(
                f"shard {shard} was decommissioned and cannot come back"
            )
        self._active[shard] = True

    # ------------------------------------------------------------------
    # Results: one resolver, then one backend call
    # ------------------------------------------------------------------
    def _locate(self, ticket: int):
        """``(backend, job)`` of the cluster ticket's latest attempt:
        its shard address, chained into that shard's resolver."""
        address = self.address_of(ticket)
        return self.shards[address.shard]._locate(address.ticket)

    def poll(self, ticket: int) -> Optional[LatencyRecord]:
        backend, job = self._locate(ticket)
        return backend.poll(job)

    def cancel(self, ticket: int) -> bool:
        """Cancel through the owning shard, which also disarms its retries."""
        address = self.address_of(ticket)
        return self.shards[address.shard].cancel(address.ticket)

    def failure(self, ticket: int) -> Optional[BaseException]:
        backend, job = self._locate(ticket)
        return backend.failure(job)

    def result(self, ticket: int):
        backend, job = self._locate(ticket)
        return backend.result(job)

    def record(self, ticket: int) -> LatencyRecord:
        backend, job = self._locate(ticket)
        return backend.record(job)

    # ------------------------------------------------------------------
    # Settlement: feed completions back into the placement predictor
    # ------------------------------------------------------------------
    def _settle(self) -> None:
        for ticket in self._tickets.pending():
            address = self._tickets.address_of(ticket)
            record = self.shards[address.shard].poll(address.ticket)
            if record is None:
                continue
            self._tickets.settle(ticket)
            self._placement.on_complete(
                address.shard, record, self._entries.pop(ticket)["charge"]
            )
