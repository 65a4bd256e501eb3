"""The pending ledger answers exactly what the scans it replaced did.

:class:`~repro.runtime.tickets.TicketRegistry` keeps pending state
incrementally (per-tenant counts, ``(priority, sla)`` buckets, armed
retry chains); ``tests/runtime/reference_admission.py`` holds the scans
it replaced.  Three kinds of test:

* **equivalence** — over hypothesis-generated op sequences on a
  simulated server and a 3-shard router, after *every* op the ledger's
  answers ``==`` the reference's for every tenant and every newcomer
  priority, and after every drain nothing is pending;
* **age-independence** — a quota-carrying submit and an idle drain make
  the same number of calls on a router's 2nd epoch and its 40th;
* **forced thread interleavings** — a job that settles before its
  ticket is registered, and a notification that lands mid-``register``,
  leave no tenant count behind and never drive one negative.
"""

import gc
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterRouter
from repro.engine import generate_tpch
from repro.errors import AdmissionError
from repro.runtime.faults import OPERATOR_RAISE, WORKER_DEATH, FaultPlan
from repro.runtime.tickets import TicketRegistry
from repro.server import AnalyticsServer

from tests.runtime import reference_admission as reference

TENANTS = (None, "a", "b")
SLAS = (None, "bulk", "latency")
RETRY_BUDGET = 3
#: Every priority a newcomer can have relative to what can be pending
#: (class base 0 or 100 plus an offset of 0..2), and one below all.
NEWCOMER_PRIORITIES = (-1, 0, 1, 2, 3, 100, 101, 102, 103)

#: One op: ``(kind, tenant, sla, priority offset, retries, query, number)``.
#: Two thirds are submits, so the pending cap and the quota are reached.
KINDS = ("submit",) * 8 + ("cancel", "drain", "faulty_drain", "handoff")
op_sequences = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.sampled_from(TENANTS),
        st.sampled_from(SLAS),
        st.integers(0, 2),
        st.integers(0, 2),
        st.sampled_from(("Q6", "Q1")),
        st.integers(0, 10_000),
    ),
    min_size=8,
    max_size=48,
)


@pytest.fixture(scope="module")
def tiny_db():
    return generate_tpch(scale_factor=0.001, seed=3)


def assert_ledger_matches_scans(server: AnalyticsServer) -> None:
    backend, tickets, policy = server.backend, server.tickets, server.admission_policy
    assert tickets.pending() == [
        ticket for ticket in tickets if reference.is_pending(backend, ticket)
    ]
    for tenant in TENANTS:
        assert policy.tenant_pending(backend, tickets, tenant) == (
            reference.tenant_pending(backend, tickets, tenant)
        ), tenant
    for priority in NEWCOMER_PRIORITIES:
        assert policy.shed_victim(backend, tickets, priority) == (
            reference.shed_victim(policy, backend, tickets, priority)
        ), priority


def assert_quiescent(server: AnalyticsServer) -> None:
    """After a drain: nothing pending, and exactly the chains that can
    still fire (transient failure, attempts left, budget spent) armed."""
    backend, tickets = server.backend, server.tickets
    assert tickets.pending() == [] and tickets.pending_classes() == []
    assert all(tickets.tenant_pending(tenant) == 0 for tenant in TENANTS)
    armed = set(tickets.retryable_tickets())
    for original in tickets:
        retry = tickets.retry_state(original)
        if retry is None:
            assert original not in armed
            continue
        error = backend.failure(tickets.resolve(original))
        can_fire = retry["left"] > 0 and getattr(error, "transient", False)
        assert (original in armed) == can_fire
        assert not can_fire or server.retries_used >= RETRY_BUDGET


def install_faults(server: AnalyticsServer, seed: int) -> None:
    if server.pending_count:
        server.install_faults(
            FaultPlan.random(
                seed,
                n_queries=server.pending_count,
                kinds=(OPERATOR_RAISE, WORKER_DEATH),
                n_faults=2,
                max_morsel=2,
            )
        )


def submit(target, op):
    _, tenant, sla, priority, retries, name, _ = op
    try:
        return target.submit(
            name, tenant=tenant, sla=sla, priority=priority, retries=retries
        )
    except AdmissionError:  # full, over quota, or nothing to shed
        return None


@pytest.mark.parametrize(
    "environment, sharing", [("model", False), ("model", True), ("engine", True)]
)
@settings(max_examples=40, deadline=None)
@given(ops=op_sequences)
def test_server_ledger_equals_the_scans(tiny_db, environment, sharing, ops):
    server = AnalyticsServer(
        scale_factor=0.001,
        scheduler="stride",
        n_workers=2,
        seed=3,
        database=tiny_db if environment == "engine" else None,
        environment=environment,
        max_pending=3,
        admission="shed",
        retry_budget=RETRY_BUDGET,
        tenant_quotas={"a": 2},
        sharing=sharing,  # fold members and cache hits settle too
    )
    handles = []
    for op in ops:
        if op[0] == "submit":
            handle = submit(server, op)
            if handle is not None:
                handles.append(handle)
        elif op[0] == "cancel":
            if handles:
                server.cancel(handles[op[-1] % len(handles)])
        else:  # "handoff" is a router op: a plain drain here
            if op[0] == "faulty_drain":
                install_faults(server, op[-1])
            server.drain()
            assert_quiescent(server)
        assert_ledger_matches_scans(server)
    server.drain()
    assert_quiescent(server)
    server.shutdown()


@pytest.mark.parametrize("sharing", [False, True])
@settings(max_examples=40, deadline=None)
@given(ops=op_sequences)
def test_router_ledgers_equal_the_scans(sharing, ops):
    router = ClusterRouter(
        n_shards=3,
        scale_factor=0.001,
        scheduler="stride",
        n_workers=2,
        seed=3,
        max_pending=2,
        admission="shed",
        retry_budget=RETRY_BUDGET,
        tenant_quotas={"a": 3},
        sharing=sharing,
    )
    handles = []
    unsettled = []  # cluster tickets issued since the last router drain
    for op in ops:
        if op[0] == "submit":
            handle = submit(router, op)
            if handle is not None:
                handles.append(handle)
                unsettled.append(int(handle))
        elif op[0] == "cancel":
            if handles:
                router.cancel(handles[op[-1] % len(handles)])
        elif op[0] == "handoff":
            shard = op[-1] % router.n_shards
            # Moved queries are cancelled at the source and resubmitted
            # (possibly refused) at a target, all under one cluster ticket.
            try:
                router.drain_shard(shard, decommission=False)
            except AdmissionError:
                pass
            router.reactivate(shard)
        else:
            if op[0] == "faulty_drain":
                for shard in router.shards:
                    install_faults(shard, op[-1])
            router.drain()
            unsettled = []
            for shard in router.shards:
                assert_quiescent(shard)
        assert router.tickets.pending() == unsettled
        for shard in router.shards:
            assert_ledger_matches_scans(shard)
        for tenant in TENANTS[1:]:
            assert router.tenant_pending(tenant) == sum(
                reference.tenant_pending(shard.backend, shard.tickets, tenant)
                for shard in router.shards
            )
    router.drain()
    assert router.tickets.pending() == [] and router.pending_count == 0
    router.shutdown()


def test_settle_is_idempotent_and_ignores_unregistered_tickets():
    tickets = TicketRegistry()
    tickets.settle(0)  # the job finished before its ticket existed
    tickets.register(0, priority=1, tenant="a", sla="bulk")
    tickets.register(1, priority=1, tenant="a", sla="bulk")
    assert tickets.pending_classes() == [(1, "bulk", 1)]
    tickets.settle(1)
    tickets.settle(1)
    assert tickets.tenant_pending("a") == 1
    assert tickets.pending_classes() == [(1, "bulk", 0)]
    tickets.settle(0)
    assert tickets.pending() == [] and tickets.pending_classes() == []
    assert tickets.tenant_pending("a") == 0


# ----------------------------------------------------------------------
# Age-independence, without a clock
# ----------------------------------------------------------------------
def count_calls(fn) -> int:
    """How many Python and C calls ``fn()`` makes.

    The cyclic collector is held off meanwhile: a collection that
    happens to start inside ``fn`` runs ``gc.callbacks`` (hypothesis
    installs one that times collections) and finalizers — calls that
    say nothing about ``fn``.
    """
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    gc.disable()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def test_per_submit_and_idle_drain_work_do_not_grow_with_router_age():
    router = ClusterRouter(
        n_shards=4,
        scale_factor=0.001,
        scheduler="stride",
        n_workers=2,
        seed=3,
        max_pending=64,
        admission="shed",
        tenant_quotas={"etl": 10**6},
    )
    spec = router.query_spec("Q6")
    submit_calls, drain_calls = {}, {}
    for epoch in range(1, 41):
        # The quota-carrying submit is the first of its epoch, so every
        # epoch's probe meets the same (empty) fleet.
        submit_calls[epoch] = count_calls(
            lambda: router.submit_spec(spec, tenant="etl", sla="bulk", retries=1)
        )
        for i in range(12):
            router.submit_spec(
                spec,
                tenant="etl" if i % 3 == 0 else "dash",
                sla="bulk" if i % 3 == 0 else "latency",
            )
        router.drain()
        drain_calls[epoch] = count_calls(router.drain)  # nothing pending
    assert len(router.tickets) == 40 * 13
    assert submit_calls[40] == submit_calls[2]
    assert drain_calls[40] == drain_calls[2]
    router.shutdown()


# ----------------------------------------------------------------------
# Forced thread interleavings (threaded backend)
# ----------------------------------------------------------------------
WAIT = 30.0  # every wait below is bounded; a timeout fails the test


def threaded_server(db):
    return AnalyticsServer(
        scheduler="stride",
        n_workers=2,
        seed=3,
        database=db,
        backend="threaded",
        tenant_quotas={"a": 10**6},
    )


def on_worker_thread() -> bool:
    return threading.current_thread().name.startswith("repro-worker")


def test_job_that_settles_before_its_ticket_is_registered(tiny_db, monkeypatch):
    """``register`` is held back until the job's record exists: the
    worker's notification found an empty ledger, so only the submitter's
    re-check can take the ticket out of it."""
    counts = []  # tenant "a"'s count after every ledger removal
    settle, register = TicketRegistry.settle, TicketRegistry.register

    def watched_settle(self, ticket):
        settle(self, ticket)
        counts.append(self.tenant_pending("a"))

    def late_register(self, ticket, **meta):
        deadline = time.monotonic() + WAIT
        while ticket not in server.backend.records:
            assert time.monotonic() < deadline, "the job never settled"
            time.sleep(0.0005)
        return register(self, ticket, **meta)

    monkeypatch.setattr(TicketRegistry, "settle", watched_settle)
    monkeypatch.setattr(TicketRegistry, "register", late_register)
    server = threaded_server(tiny_db)
    server.start()
    try:
        for _ in range(20):
            server.submit("Q6", tenant="a")
            assert server.tenant_pending("a") == 0
        server.drain()
        assert server.tenant_pending("a") == 0
        assert server.tickets.pending() == []
        assert len(counts) >= 40 and min(counts) == 0  # notify + re-check each
    finally:
        server.shutdown()


def test_notification_that_lands_mid_register(tiny_db, monkeypatch):
    """The worker's notification is parked until the submitter holds the
    ledger lock inside ``register``; it then has to wait for the lock,
    find the ticket and remove it — exactly once, with the re-check."""
    counts = []
    events = {}  # (what, ticket) -> Event; setdefault is atomic
    in_register = threading.local()
    settle, register = TicketRegistry.settle, TicketRegistry.register

    def event(what, ticket):
        return events.setdefault((what, ticket), threading.Event())

    def parked_settle(self, ticket):
        if on_worker_thread():
            event("parked", ticket).set()
            assert event("gate", ticket).wait(WAIT), "register never ran"
        settle(self, ticket)
        counts.append(self.tenant_pending("a"))

    def register_under_watch(self, ticket, **meta):
        assert event("parked", ticket).wait(WAIT), "the job never settled"
        in_register.ticket = ticket
        try:
            return register(self, ticket, **meta)
        finally:
            in_register.ticket = None

    class SignallingLock:
        """The ledger lock; opens the gate once ``register`` holds it."""

        def __init__(self, lock):
            self._lock = lock

        def __enter__(self):
            self._lock.acquire()
            ticket = getattr(in_register, "ticket", None)
            if ticket is not None:
                event("gate", ticket).set()
                time.sleep(0.005)  # the notification arrives and blocks

        def __exit__(self, *exc_info):
            self._lock.release()

    monkeypatch.setattr(TicketRegistry, "settle", parked_settle)
    monkeypatch.setattr(TicketRegistry, "register", register_under_watch)
    server = threaded_server(tiny_db)
    server.tickets._lock = SignallingLock(server.tickets._lock)
    server.start()
    try:
        for _ in range(20):
            server.submit("Q6", tenant="a")
        server.drain()
        assert server.tenant_pending("a") == 0
        assert server.tickets.pending() == []
        assert len(counts) >= 40 and min(counts) == 0
    finally:
        server.shutdown()
