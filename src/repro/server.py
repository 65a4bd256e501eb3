"""An online analytics shard: engine + scheduler behind a lifecycle.

:class:`AnalyticsServer` is the "downstream user" API — and, since
PR 7, the *shard* unit of :class:`~repro.cluster.ClusterRouter`: it
owns a TPC-H database and one of the paper's schedulers, and runs
submitted queries on a pluggable execution backend from
:mod:`repro.runtime`:

* ``backend="simulated"`` (default) executes in *virtual time* on the
  discrete-event simulator — deterministic, fast, bit-identical to the
  figure experiments;
* ``backend="threaded"`` executes on real OS worker threads: queries
  can be submitted while earlier ones are running, and the scheduler's
  atomics and finalization protocol run under genuine concurrency;
* ``backend="process"`` executes each ``drain()`` epoch in a warm
  worker process of the shared sweep pool — CPU-bound engine work runs
  without holding this process's GIL, and the worker regenerates (and
  memoizes) the TPC-H database from its ``(scale_factor, seed)``
  profile instead of receiving it over the pipe.

Two execution *environments* select what a query physically does:

* ``environment="engine"`` (default) runs real columnar plans against
  the generated TPC-H database — results are real, latencies are
  measured wall time;
* ``environment="model"`` (simulated backend only) runs the paper's
  cost-model pipelines (:func:`repro.workloads.profiles.tpch_query`) in
  pure virtual time — no database, no results, but **bit-identical**
  latencies across runs and hash seeds, which is what the cluster's
  determinism guarantees and the routing benchmarks are built on.
  :meth:`submit_spec` additionally accepts arbitrary pre-built
  :class:`~repro.core.specs.QuerySpec`s (e.g. a phased multi-tenant
  workload) in this mode.

Lifecycle: ``start()`` → ``submit()``/``drain()`` (any number of times)
→ ``shutdown()``.  ``run()`` is the historical batch entry point and
is equivalent to ``drain()``.  After ``shutdown()`` every mutating call
raises :class:`~repro.errors.ReproError`; completed results stay
readable.

Admission control is a pluggable policy
(:mod:`repro.runtime.admission`): ``max_pending`` bounds the number of
submitted but not yet completed queries, and ``admission`` selects what
happens at the bound — ``"reject"`` (default) raises
:class:`~repro.errors.AdmissionError`, ``"block"`` (threaded backend
only, enforced at construction) waits for capacity, and ``"shed"``
fails the lowest-priority *sheddable* pending query to admit the
newcomer.  Per-tenant quotas (``tenant_quotas=...``) bound each
tenant's pending queries separately and raise the distinguishable
:class:`~repro.errors.TenantQuotaError`; SLA classes
(:class:`~repro.runtime.admission.SlaClass`) give latency-critical
queries a scheduling-priority and §3.2 weight boost and exempt them
from shedding.  An :class:`~repro.runtime.admission.AdmissionPolicy`
instance can be passed directly for custom behaviour.

Fault tolerance: queries can carry deadlines and retry policies
(``submit(name, deadline=..., retries=..., backoff=...)``), failures
are isolated per query (a raising operator fails only its own query),
and deterministic fault plans (:mod:`repro.runtime.faults`) can be
installed for chaos testing.  See ``docs/architecture.md`` for the
failure-mode taxonomy.

Work sharing (``sharing=True``; every backend) folds identical
in-flight queries into one execution through one
:class:`~repro.sharing.FoldCoordinator`; members read the leader's
chunk list.  ``sharing_attach_buffer`` caps each fold's members;
``sharing_cache_entries`` sizes the epoch backends' fragment result
cache (the process backend keeps it in this process, so repeats hit it
across epochs).

Example::

    from repro.server import AnalyticsServer

    server = AnalyticsServer(scale_factor=0.01, scheduler="tuning")
    short = server.submit("Q6")
    long_ = server.submit("Q18")
    server.run()
    print(server.result(short))          # real query result
    print(server.record(short).latency * 1e3, "ms")

Tickets: :meth:`submit` returns a
:class:`~repro.runtime.handle.QueryHandle` bound to this server — an
``int`` ticket that doubles as a result cursor.  A retried ticket is
an alias chain in the :class:`~repro.runtime.tickets.TicketRegistry`,
and one resolver, :meth:`_locate`, maps a ticket to the ``(backend,
job)`` of its latest attempt.  Every per-ticket method (``poll``,
``wait``, ``cancel``, ``result``, ``record``) and every handle call
resolves through it, so the handle and the server always agree.  On the
threaded backend row batches can be consumed while the query runs
(``handle.fetch(n)`` or iteration), with the producer throttled by the
bounded result channel; on the virtual-time backends the same calls
replay the stream after ``drain()``.  ``server.cancel(ticket)`` (or
``handle.cancel()``) aborts an in-flight query and disarms its retries:
its stream fails with :class:`~repro.errors.QueryCancelledError` and the
scheduler winds the query down through the normal finalization
protocol, freeing its admission slot.

::

    server = AnalyticsServer(scale_factor=0.01, backend="threaded")
    server.start()
    handle = server.submit("QS")         # large streaming scan
    for batch in handle:                 # batches arrive incrementally
        consume(batch)
    server.shutdown()
"""

from __future__ import annotations

import time
from dataclasses import replace
from functools import partial
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core import SchedulerConfig, make_scheduler
from repro.core.registry import available_schedulers
from repro.core.specs import QuerySpec
from repro.engine.datagen import TpchDatabase, generate_tpch
from repro.engine.execution import EngineEnvironment, engine_query_spec
from repro.engine.queries import ENGINE_QUERIES
from repro.errors import ReproError
from repro.metrics.latency import LatencyRecord
from repro.runtime.admission import (
    AdmissionPolicy,
    AdmissionRequest,
    DEFAULT_SLA_CLASSES,
    SlaClass,
    make_admission_policy,
)
from repro.runtime.backend import BackendState, ExecutionBackend
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.handle import QueryHandle
from repro.runtime.process import ProcessBackend, engine_environment_factory
from repro.runtime.simulated import SimulatedBackend
from repro.runtime.threaded import ThreadedBackend
from repro.runtime.tickets import TicketRegistry
from repro.workloads.profiles import TPCH_QUERY_NAMES, tpch_query

#: Names accepted for the ``backend`` constructor argument.
BACKENDS = ("simulated", "threaded", "process")

#: Names accepted for the ``environment`` constructor argument.
ENVIRONMENTS = ("engine", "model")


def _environment_from_database(db: TpchDatabase) -> EngineEnvironment:
    """Picklable environment factory for hand-built databases.

    Used by the process backend when the database cannot be regenerated
    from ``(scale_factor, seed)``: the tables themselves are pickled
    into the worker once per drain.
    """
    return EngineEnvironment(db)


class AnalyticsServer:
    """Schedule real queries against a generated TPC-H database."""

    def __init__(
        self,
        scale_factor: float = 0.01,
        scheduler: str = "tuning",
        n_workers: int = 4,
        t_max: float = 0.002,
        seed: int = 0,
        database: Optional[TpchDatabase] = None,
        backend: str = "simulated",
        max_pending: Optional[int] = None,
        admission: Union[str, AdmissionPolicy] = "reject",
        retry_budget: int = 16,
        *,
        environment: str = "engine",
        tenant_quotas: Optional[dict] = None,
        default_tenant_quota: Optional[int] = None,
        sla_classes: Optional[dict] = None,
        sharing: bool = False,
        sharing_cache_entries: int = 64,
        sharing_attach_buffer: int = 16,
    ) -> None:
        if scheduler not in available_schedulers():
            raise ReproError(
                f"unknown scheduler {scheduler!r}; choose from "
                f"{available_schedulers()}"
            )
        if backend not in BACKENDS:
            raise ReproError(
                f"unknown backend {backend!r}; choose from {list(BACKENDS)}"
            )
        if environment not in ENVIRONMENTS:
            raise ReproError(
                f"unknown environment {environment!r}; choose from "
                f"{list(ENVIRONMENTS)}"
            )
        if environment == "model" and backend != "simulated":
            raise ReproError(
                "environment='model' needs the simulated backend: the "
                "cost-model pipelines only exist in virtual time — use "
                "environment='engine' for threaded/process execution"
            )
        self._sla_classes = dict(sla_classes or DEFAULT_SLA_CLASSES)
        if isinstance(admission, AdmissionPolicy):
            policy = admission
            if policy.max_pending is None and max_pending is not None:
                if max_pending < 1:
                    raise ReproError("max_pending must be at least 1")
                policy.max_pending = max_pending
        else:
            policy = make_admission_policy(
                admission,
                max_pending=max_pending,
                tenant_quotas=tenant_quotas,
                default_tenant_quota=default_tenant_quota,
                sla_classes=self._sla_classes,
            )
        if policy.requires_realtime and backend != "threaded":
            # Satellite fix (PR 7): reject eagerly at construction —
            # string *and* policy-instance form — instead of
            # deadlocking at submit time on virtual-time backends.
            raise ReproError(
                f"admission={policy.name!r} needs the threaded backend: "
                "in virtual time nothing completes between submissions, "
                "so blocking would deadlock — use admission='reject' or "
                "drain() first"
            )
        if retry_budget < 0:
            raise ReproError("retry_budget must be >= 0")
        self._sharing = bool(sharing)
        self._sharing_cache_entries = sharing_cache_entries
        self._sharing_attach_buffer = sharing_attach_buffer
        self._environment = environment
        self._scale_factor = scale_factor
        if environment == "engine":
            self.database = database or generate_tpch(scale_factor, seed=seed)
        else:
            # Model mode needs no data: specs are cost profiles.
            self.database = database
        self._engine_specs: Dict[str, QuerySpec] = {}
        self._scheduler_name = scheduler
        self._config = SchedulerConfig(
            n_workers=n_workers,
            t_max=t_max,
            # Interactive sessions are short; scale the tuning windows.
            tracking_duration=0.5,
            refresh_duration=2.0,
        )
        self._seed = seed
        self._admission_policy = policy
        self._backend_name = backend
        self._backend = self._make_backend()
        #: Server-wide cap on retry resubmissions (across all tickets);
        #: prevents a persistently failing workload from retrying forever.
        #: Tunable at runtime (``runtime.retry_budget``).
        self._retry_budget = retry_budget
        #: Default base backoff for retried submissions; used when
        #: ``submit(..., backoff=None)``.  Tunable at runtime
        #: (``runtime.retry_backoff``).
        self._retry_backoff = 0.05
        #: Retry resubmissions performed so far.
        self.retries_used = 0
        #: Ticket bookkeeping: alias chains, retry state, priorities,
        #: tenants and SLA classes (see :mod:`repro.runtime.tickets`).
        self._tickets = TicketRegistry()
        self._backend.on_terminal = self._tickets.settle
        #: Deterministic backoff jitter (decorrelates retry storms
        #: without wall-clock randomness).
        self._retry_rng = np.random.default_rng(seed)

    def _make_backend(self) -> ExecutionBackend:
        if self._backend_name == "threaded":
            return ThreadedBackend(
                make_scheduler(self._scheduler_name, self._config),
                EngineEnvironment(self.database),
                sharing=self._sharing,
                sharing_attach_buffer=self._sharing_attach_buffer,
            )
        # The epoch backends build each drain's scheduler from this
        # factory; :meth:`_update_config` swaps it for the next epoch.
        scheduler_factory = partial(
            make_scheduler, self._scheduler_name, self._config
        )
        options = dict(
            seed=self._seed,
            sharing=self._sharing,
            sharing_cache_entries=self._sharing_cache_entries,
            sharing_attach_buffer=self._sharing_attach_buffer,
        )
        if self._environment == "model":
            # Pure virtual time over the paper's cost model: the
            # simulator builds its own SimulationEnvironment, so runs
            # are bit-identical across repeats and hash seeds.
            return SimulatedBackend(scheduler_factory, **options)
        if self._backend_name == "process":
            db = self.database
            if db.generated:
                # Pure function of (scale_factor, seed): regenerate in
                # the worker (memoized there) instead of pickling the
                # relation data across on every drain.
                environment_factory = partial(
                    engine_environment_factory, db.scale_factor, db.seed
                )
            else:
                environment_factory = partial(_environment_from_database, db)
            return ProcessBackend(
                scheduler_factory, environment_factory=environment_factory, **options
            )
        return SimulatedBackend(
            scheduler_factory,
            environment_factory=lambda: EngineEnvironment(self.database),
            **options,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def available_queries(self) -> Tuple[str, ...]:
        """Names of the queries this server can run by name."""
        if self._environment == "model":
            return TPCH_QUERY_NAMES
        return ENGINE_QUERIES

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend (exposed for tests and monitoring)."""
        return self._backend

    @property
    def admission_policy(self) -> AdmissionPolicy:
        """The admission policy guarding :meth:`submit`."""
        return self._admission_policy

    @property
    def sharing(self) -> bool:
        """Whether work sharing (folds + fragment cache) is enabled."""
        return self._sharing

    @property
    def sharing_stats(self):
        """Work-sharing counters (:class:`~repro.sharing.SharingStats`).

        Zero everywhere when ``sharing=False`` — every backend keeps the
        counters, so monitoring code need not branch.
        """
        return self._backend.sharing_stats

    def invalidate_sharing_cache(self) -> None:
        """Drop every cached fragment result and advance the epoch.

        Call after mutating the database in place; a no-op when sharing
        (or the fragment cache) is off.
        """
        invalidate = getattr(
            self._backend, "invalidate_sharing_cache", None
        )
        if invalidate is not None:
            invalidate()

    @property
    def sla_classes(self) -> dict:
        """The SLA classes :meth:`submit` resolves ``sla=`` names against."""
        return dict(self._sla_classes)

    @property
    def tickets(self) -> TicketRegistry:
        """Ticket bookkeeping (aliases, priorities, tenants, SLA)."""
        return self._tickets

    @property
    def state(self) -> BackendState:
        """Lifecycle phase: NEW, RUNNING or CLOSED."""
        return self._backend.state

    @property
    def pending_count(self) -> int:
        """Queries submitted but not yet completed."""
        return self._backend.pending_count

    @property
    def completed_count(self) -> int:
        """Queries with a latency record."""
        return self._backend.completed_count

    def tenant_pending(self, tenant: str) -> int:
        """Pending queries currently charged to ``tenant``."""
        return self._admission_policy.tenant_pending(
            self._backend, self._tickets, tenant
        )

    def query_spec(self, name: str) -> QuerySpec:
        """The :class:`QuerySpec` :meth:`submit` would run for ``name``.

        Engine mode derives it from the real plan's cardinalities;
        model mode uses the TPC-H cost profile at this server's scale
        factor.  The cluster router's placement predictor uses this to
        estimate per-query work without submitting anything.
        """
        if name not in self.available_queries:
            raise ReproError(
                f"no {self._environment} plan for {name!r}; available: "
                f"{self.available_queries}"
            )
        if self._environment == "model":
            return tpch_query(name, self._scale_factor)
        # Deriving an engine spec builds the whole plan; the database is
        # immutable and the spec frozen, so one per name serves every
        # submit and placement probe.
        spec = self._engine_specs.get(name)
        if spec is None:
            spec = self._engine_specs[name] = engine_query_spec(name, self.database)
        return spec

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin executing (threaded: spawn the worker threads).

        Idempotent while running; raises after :meth:`shutdown`.
        Calling :meth:`drain`/:meth:`run` starts the server implicitly.
        """
        self._backend.start()

    def drain(self) -> List[LatencyRecord]:
        """Run every submitted query to completion; return new records.

        The server stays usable afterwards — submit more and drain
        again.  Raises after :meth:`shutdown`.

        With per-query ``retries``, drain loops until no transient
        failure is eligible for resubmission; the returned list contains
        the records of **every** attempt (failed ones included), so the
        full failure history is observable.  Use :meth:`record` on a
        ticket for its latest attempt only.
        """
        records = list(self._backend.drain())
        while self._maybe_retry():
            records.extend(self._backend.drain())
        return records

    def run(self) -> List[LatencyRecord]:
        """Historical batch entry point; equivalent to :meth:`drain`."""
        return self.drain()

    def shutdown(self) -> None:
        """Stop executing and release workers (idempotent).

        Afterwards :meth:`submit`, :meth:`drain` and :meth:`run` raise
        :class:`~repro.errors.ReproError`; completed results, records
        and latencies remain readable.
        """
        self._backend.shutdown()

    # ------------------------------------------------------------------
    # Submission
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
    ) -> QueryHandle:
        """Submit one query by name; returns its :class:`QueryHandle`.

        The handle is an ``int`` (usable everywhere a ticket is) that
        additionally exposes the streaming cursor API (``fetch(n)``,
        iteration) and this server's answers for the ticket.

        On the virtual-time backends ``at`` is the virtual arrival time
        relative to the next :meth:`drain` (default 0.0).  On the
        threaded backend queries arrive at the wall-clock moment of the
        call and may be submitted while the server is executing; ``at``
        must be omitted.

        ``deadline`` bounds the query's end-to-end latency in the
        backend's time base (seconds after arrival); a query that misses
        it fails with :class:`~repro.errors.QueryTimeoutError` through
        the scheduler's abort protocol.  Deadline misses are permanent —
        they are never retried.

        ``retries`` allows up to that many automatic resubmissions after
        *transient* failures (worker deaths, injected faults), with
        exponential ``backoff`` plus deterministic jitter between
        attempts, capped by the server-wide ``retry_budget``.  Permanent
        failures (plan errors, timeouts, cancellations, shedding) are
        never retried.  Retried tickets stay valid: :meth:`poll`,
        :meth:`wait`, :meth:`result`, :meth:`record` and the handle
        transparently follow the ticket to its latest attempt.

        ``tenant`` charges the query to a tenant's admission quota;
        ``sla`` selects a service class by name (``"latency"``,
        ``"bulk"``, or a custom :class:`SlaClass`): the class's base
        priority adds to ``priority`` for shedding decisions, its §3.2
        weight scales the query's scheduler priority, and a
        non-sheddable class is exempt from overload eviction.

        Backpressure: with ``max_pending`` set, a full server raises
        :class:`~repro.errors.AdmissionError` (``admission="reject"``),
        waits for a slot (``admission="block"``, threaded only), or
        sheds the lowest-priority pending query to make room
        (``admission="shed"`` — the newcomer is rejected instead when
        nothing pending has a strictly lower ``priority``).  A tenant
        over its own quota raises
        :class:`~repro.errors.TenantQuotaError` regardless of policy.
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
    ) -> QueryHandle:
        """Submit a pre-built :class:`QuerySpec` (model environment).

        This is how workload-layer streams (phased multi-tenant
        workloads, scenario generators) run against a server or a
        cluster shard: the specs carry their own pipelines, tags and
        user priorities.  Engine mode refuses specs it has no plan for,
        so by-name submission stays the engine-mode API.
        """
        if self._environment == "engine" and spec.name not in ENGINE_QUERIES:
            raise ReproError(
                f"no engine plan for {spec.name!r}; available: "
                f"{ENGINE_QUERIES} (use environment='model' for "
                f"cost-model specs)"
            )
        if at is not None and at < 0.0:
            raise ReproError("arrival time must be non-negative")
        if retries < 0:
            raise ReproError("retries must be >= 0")
        if backoff is None:
            backoff = self._retry_backoff
        if backoff < 0.0:
            raise ReproError("backoff must be >= 0")
        sla_class = self._resolve_sla(sla)
        request = AdmissionRequest(
            priority=priority, tenant=tenant, sla=sla_class
        )
        self._admission_policy.admit(self._backend, self._tickets, request)
        spec = self._decorate_spec(spec, deadline, tenant, sla_class)
        ticket = int(self._backend.submit(spec, at=at))
        self._tickets.register(
            ticket,
            priority=request.effective_priority,
            tenant=tenant,
            sla=sla_class.name if sla_class is not None else None,
        )
        self._recheck(ticket)
        if retries > 0:
            self._tickets.arm_retry(
                ticket, spec=spec, at=at, retries=retries, backoff=backoff
            )
        return QueryHandle.attach(ticket, self)

    def _recheck(self, ticket: int) -> None:
        """Register, then re-check: on real threads a job can finish (and
        notify an empty ledger) before its submitter registered it."""
        if self._backend.terminal(ticket):
            self._tickets.settle(ticket)

    def _resolve_sla(
        self, sla: Optional[Union[str, SlaClass]]
    ) -> Optional[SlaClass]:
        if sla is None or isinstance(sla, SlaClass):
            return sla
        sla_class = self._sla_classes.get(sla)
        if sla_class is None:
            raise ReproError(
                f"unknown SLA class {sla!r}; choose from "
                f"{sorted(self._sla_classes)}"
            )
        return sla_class

    @staticmethod
    def _decorate_spec(
        spec: QuerySpec,
        deadline: Optional[float],
        tenant: Optional[str],
        sla: Optional[SlaClass],
    ) -> QuerySpec:
        """Apply deadline, tenant tag and SLA weight/tag to a spec."""
        changes = {}
        if deadline is not None:
            changes["deadline"] = deadline
        tags = tuple(spec.tags)
        if tenant is not None and f"tenant:{tenant}" not in tags:
            tags = tags + (f"tenant:{tenant}",)
        if sla is not None:
            if f"sla:{sla.name}" not in tags:
                tags = tags + (f"sla:{sla.name}",)
            if spec.user_priority is None and sla.weight != 1.0:
                changes["user_priority"] = sla.weight
        if tags != tuple(spec.tags):
            changes["tags"] = tags
        return replace(spec, **changes) if changes else spec

    # ------------------------------------------------------------------
    # Retries
    # ------------------------------------------------------------------
    def _maybe_retry(self) -> bool:
        """Resubmit retry-eligible failed tickets; True if any were."""
        resubmitted = False
        for original in self._tickets.retryable_tickets():
            if self._retry_one(original, sleep=False) is not None:
                resubmitted = True
        return resubmitted

    def _retry_one(self, original: int, sleep: bool) -> Optional[int]:
        """Retry one original ticket if its latest attempt failed.

        Returns the replacement backend ticket, or ``None`` when no
        retry applies (not failed yet, permanent failure, attempts or
        budget exhausted).
        """
        state = self._tickets.retry_state(original)
        if state is None:
            return None
        current = self._tickets.resolve(original)
        backend = self._backend
        if current not in backend.records:
            return None
        error = backend.failure(current)
        if state["left"] <= 0 or not getattr(error, "transient", False):
            # Completed, failed permanently (plan errors, timeouts,
            # shedding) or out of attempts: the chain never fires again.
            self._tickets.retire_retry(original)
            return None
        if self.retries_used >= self._retry_budget:
            return None  # stays armed: the budget is a tunable
        delay = state["backoff"] * (2.0 ** state["attempt"])
        delay *= 1.0 + 0.25 * float(self._retry_rng.random())
        state["left"] -= 1
        state["attempt"] += 1
        self.retries_used += 1
        if sleep and delay > 0.0:
            # Real time only: on virtual-time backends the backoff is a
            # scheduling fiction (nothing else runs between epochs).
            time.sleep(delay)
        spec = state["spec"]
        if self._sharing and "noshare" not in spec.tags:
            # A failed shared execution must not refold: the retry runs
            # unshared so one poisoned fold cannot fail its members'
            # retries too.
            spec = replace(spec, tags=tuple(spec.tags) + ("noshare",))
        handle = backend.submit(spec, at=state["at"])
        replacement = int(handle)
        self._tickets.alias(current, replacement)
        self._recheck(replacement)
        return replacement

    # ------------------------------------------------------------------
    # Results: one resolver, then one backend call
    # ------------------------------------------------------------------
    def _locate(self, ticket: int) -> Tuple[ExecutionBackend, int]:
        """``(backend, job)`` of the ticket's latest attempt: the retry
        alias chain, then the backend's resolver (which raises
        :class:`~repro.errors.UnknownTicketError` for a ticket never issued)."""
        return self._backend._locate(self._tickets.resolve(ticket))

    def poll(self, ticket: int) -> Optional[LatencyRecord]:
        """The latency record if the query completed, else ``None``."""
        backend, job = self._locate(ticket)
        return backend.poll(job)

    def wait(self, ticket: int, timeout: Optional[float] = None) -> LatencyRecord:
        """Block until one query completes (threaded backend).

        The simulated and process backends complete queries in epochs —
        only inside :meth:`drain` — so an unfinished ticket raises
        instead of blocking forever.  Tickets submitted with ``retries``
        are retried here too: a transient failure resubmits (after the
        backoff) and the wait continues on the replacement attempt.
        """
        while True:
            backend, job = self._locate(ticket)
            if not isinstance(backend, ThreadedBackend):
                return backend.record(job)
            record = backend.wait(job, timeout=timeout)
            if not record.failed or self._retry_one(int(ticket), sleep=True) is None:
                return record

    def cancel(self, ticket: int) -> bool:
        """Abort one in-flight query; ``True`` if it was cancelled.

        The ticket's stream fails with
        :class:`~repro.errors.QueryCancelledError`, the scheduler winds
        the query down through the normal finalization protocol, and its
        admission slot frees for subsequent queries.  A query that
        already completed keeps its result (returns ``False``).
        Cancelling a retried ticket cancels its latest attempt and stops
        further retries.
        """
        self._tickets.disarm_retry(ticket)
        backend, job = self._locate(ticket)
        return backend.cancel(job)

    def result(self, ticket: int):
        """The fully assembled query result for a completed ticket.

        Raises :class:`~repro.errors.QueryCancelledError` for cancelled
        queries, :class:`~repro.errors.QueryFailedError` for failed ones
        (chaining the cause), and :class:`~repro.errors.ReproError` for
        unfinished tickets or tickets consumed as live streams.
        """
        backend, job = self._locate(ticket)
        return backend.result(job)

    def record(self, ticket: int) -> LatencyRecord:
        """The full latency record of a finished query (latest attempt)."""
        backend, job = self._locate(ticket)
        return backend.record(job)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def install_faults(
        self, plan: FaultPlan, *, spent=(), skip_kinds=()
    ) -> FaultInjector:
        """Install a deterministic fault plan on the backend (chaos tests).

        See :mod:`repro.runtime.faults`; install before queries run.
        """
        return self._backend.install_faults(
            plan, spent=spent, skip_kinds=skip_kinds
        )

    # ------------------------------------------------------------------
    # Self-tuning over the knob space
    # ------------------------------------------------------------------
    def _update_config(self, **changes) -> None:
        """Rebuild the config every later epoch's scheduler is built from."""
        self._config = replace(self._config, **changes)
        self._backend.set_scheduler_factory(
            partial(make_scheduler, self._scheduler_name, self._config)
        )

    def knob_space(self):
        """The live tunable surface of this server: only knobs it runs.

        Each knob reads and sets the object that runs its value, so
        :meth:`~repro.tuning.knobs.KnobSpace.apply` — and :meth:`tune` —
        takes effect mid-run.  The threaded backend keeps one scheduler
        across drains: the decay pair goes to it live, and ``t_max`` and
        the slot limit, fixed when it was built, are left out.  The epoch
        backends build a scheduler per drain, so core knobs rewrite the
        config the next one is built from.  The admission queue depth is
        registered only when the policy bounds pending queries.
        """
        from repro.tuning.knobs import (
            KNOBS, KnobSpace, config_knobs, scheduler_knobs,
        )

        backend, policy = self._backend, self._admission_policy
        if isinstance(backend, SimulatedBackend):
            knobs = config_knobs(
                lambda: self._config,
                self._update_config,
                make_scheduler(self._scheduler_name, self._config),
            )
        else:
            knobs = scheduler_knobs(backend.scheduler)
        knobs += [
            KNOBS["runtime.channel_capacity"].attribute(backend, "channel_capacity"),
            KNOBS["runtime.retry_budget"].attribute(self, "_retry_budget"),
            KNOBS["runtime.retry_backoff"].attribute(self, "_retry_backoff"),
        ]
        if policy.max_pending is not None:
            knobs.append(KNOBS["admission.max_pending"].attribute(policy, "max_pending"))
        return KnobSpace(knobs)

    def tracked_workload(self):
        """Completed queries as a §4 tracked workload: input for :meth:`tune`
        (see :func:`~repro.tuning.tracker.tracked_from_records`)."""
        from repro.tuning.tracker import tracked_from_records

        return tracked_from_records(
            self._backend.records.values(), self._config.n_workers
        )

    def tune(
        self,
        budget_seconds: Optional[float] = 0.05,
        *,
        history=None,
        compress_to: Optional[int] = None,
    ):
        """One cost-bounded tuning cycle over this server's knob space.

        Searches :meth:`knob_space` on the workload observed so far
        (:meth:`tracked_workload`) under ``budget_seconds`` of simulated
        tuning time, applies the winning vector — which broadcasts it
        through the backend mid-run — and returns the
        :class:`~repro.tuning.optimizer.KnobSearchResult`.  Pass one
        in-memory :class:`~repro.tuning.history.TuningHistory` to every
        call to carry the candidate-ranking surrogate across cycles.
        """
        from repro.tuning.optimizer import search_knob_space

        space = self.knob_space()
        kwargs = {} if compress_to is None else {"compress_to": compress_to}
        result = search_knob_space(
            space,
            self.tracked_workload(),
            budget_seconds=budget_seconds,
            history=history,
            **kwargs,
        )
        space.apply(result.values)
        return result
