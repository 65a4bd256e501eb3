"""lifecycle_churn — the same fleet, used the other way.

Shedding under a pending cap, retries, injected faults, deadlines,
cancellations and shard handoffs: wind-down, abort, retry/alias and the
per-morsel ``run_morsel`` path that a fault plan forces.  Outcomes are
bit-deterministic in the model environment, so each ticket's terminal
class can be checked against the event injected for it.
"""

from __future__ import annotations

import time

from benchmarks.suite import loadgen
from benchmarks.suite.oracle import histogram, outcome_class, records_digest
from benchmarks.suite.workloads import Rep

from repro.cluster import ClusterRouter
from repro.errors import AdmissionError
from repro.metrics.slowdown import percentile
from repro.runtime.faults import (
    OPERATOR_RAISE,
    WORKER_DEATH,
    WORKER_STALL,
    FaultPlan,
)

NAME = "lifecycle_churn"
WHY = (
    "same fleet under shedding, retries, seeded faults, deadlines, cancels and "
    "shard handoff: the failure path (wind-down, alias, per-morsel run_morsel) "
    "that a happy-path gain must not slow"
)

N_SHARDS = 4
N_WORKERS = 2
EPOCH_VIRTUAL_SECONDS = 4.0
#: Per epoch: 3 × 88 ``dash`` + 88 ``etl`` = 352 queries, ≈ 88 per shard.
DASH_GROUPS = 3
ETL_GROUPS = 1
#: Predictive placement packs a lightly loaded fleet onto its first
#: shards (≈ 215 of an epoch's 352 queries land on shard 0), so a cap of
#: 192 pending per shard sheds or refuses about a tenth of each epoch.
MAX_PENDING = 192
RETRIES = 2
RETRY_BUDGET = 16
FAULTS_PER_SHARD = 3
FAULT_KINDS = (OPERATOR_RAISE, WORKER_DEATH, WORKER_STALL)
BASE_EPOCHS = 10
WARMUP_EPOCH = 1_000_000


def setup(seed: int, scale: float, tracer):
    router = ClusterRouter(
        n_shards=N_SHARDS,
        environment="model",
        scheduler="tuning",
        n_workers=N_WORKERS,
        placement="predictive",
        max_pending=MAX_PENDING,
        admission="shed",
        retry_budget=RETRY_BUDGET,
        tenant_quotas={"etl": 10**6},
    )
    epochs = [
        loadgen.churn_epoch(seed, e, DASH_GROUPS, ETL_GROUPS, EPOCH_VIRTUAL_SECONDS)
        for e in range(loadgen.units(BASE_EPOCHS, scale, 2))
    ]
    # Warm-up: a fault-free quarter epoch, well under the pending cap.
    warm, _, _ = loadgen.churn_epoch(
        seed, WARMUP_EPOCH, DASH_GROUPS, ETL_GROUPS, EPOCH_VIRTUAL_SECONDS
    )
    handles = router.submit_workload(warm[: len(warm) // 4])
    router.drain()
    for handle in handles:
        router.record(handle)
    return {"router": router, "epochs": epochs, "seed": seed}


def _submit_epoch(rep: Rep, router, epoch: int, workload, deadlines):
    """Submit one epoch; a shard handoff happens after the first quarter.

    Returns ``{position: handle}`` for the queries that were admitted.
    A refusal is planned only while some shard sits at its pending cap:
    there a newcomer that outranks nothing pending is turned away.
    """
    handles = {}
    handoff_at = len(workload) // 4 if epoch % 2 == 1 else -1
    for position, (arrival, spec) in enumerate(workload):
        if position == handoff_at:
            shard = (epoch // 2) % N_SHARDS
            router.drain_shard(shard, decommission=False)
            router.reactivate(shard)
        bulk = "tenant:etl" in spec.tags
        try:
            handles[position] = router.submit_spec(
                spec,
                at=arrival,
                deadline=deadlines[position],
                retries=RETRIES,
                tenant="etl" if bulk else "dash",
                sla="bulk" if bulk else "latency",
            )
        except AdmissionError as exc:
            at_cap = any(s.pending_count >= MAX_PENDING for s in router.shards)
            rep.op(at_cap, f"refused below the pending cap: {exc}")
    return handles


def _install_faults(router, seed: int, epoch: int) -> int:
    planned = 0
    for index, shard in enumerate(router.shards):
        pending = shard.pending_count
        if pending == 0:
            continue
        shard.install_faults(
            FaultPlan.random(
                loadgen.fault_seed(seed, epoch, index),
                n_queries=pending,
                kinds=FAULT_KINDS,
                n_faults=FAULTS_PER_SHARD,
                max_morsel=3,
            )
        )
        planned += FAULTS_PER_SHARD
    return planned


def run(ctx, tracer) -> Rep:
    rep = Rep()
    router = ctx["router"]
    epoch_ms = []
    classes = []
    survivors = []
    final_records = []
    planned = fired = raised = fault_attempts = retried_ok = 0
    counted_injectors = []  # held, so that each is counted exactly once
    for epoch, (workload, deadlines, cancels) in enumerate(ctx["epochs"]):
        with tracer.span("loadgen.epoch"):
            epoch_start = time.perf_counter()
            handles = _submit_epoch(rep, router, epoch, workload, deadlines)
            cancelled = {
                position
                for position in sorted(cancels)
                if position in handles and router.cancel(handles[position])
            }
            planned += _install_faults(router, ctx["seed"], epoch)
            attempts = router.drain()
            outcomes = {
                position: outcome_class(router.poll, router.failure, handle)
                for position, handle in handles.items()
            }
            epoch_ms.append((time.perf_counter() - epoch_start) * 1e3)
        with tracer.span("loadgen.check"):
            budget_spent = {
                index
                for index, shard in enumerate(router.shards)
                if shard.retries_used >= RETRY_BUDGET
            }
            for position, handle in handles.items():
                outcome = outcomes[position]
                spec = workload[position][1]
                bulk = "tenant:etl" in spec.tags
                address = router.address_of(handle)
                if position in cancelled:
                    ok = outcome == "cancelled"
                elif outcome == "ok":
                    ok = True
                elif outcome == "timeout":
                    ok = deadlines[position] is not None
                elif outcome == "shed":
                    ok = bulk
                elif outcome == "fault":
                    # Legitimate only once the retries ran out: the
                    # ticket's own, or the shard's server-wide budget.
                    retry = router.shards[address.shard].tickets.retry_state(
                        address.ticket
                    )
                    ok = address.shard in budget_spent or (
                        retry is not None and retry["left"] == 0
                    )
                else:
                    ok = False
                rep.op(ok, f"epoch {epoch} ticket {int(handle)}: unplanned {outcome}")
                classes.append(outcome)
                record = router.record(handle)
                final_records.append(record)
                if outcome == "ok":
                    survivors.append(record.latency)
                    server = router.shards[address.shard]
                    if server.tickets.resolve(address.ticket) != address.ticket:
                        retried_ok += 1
            for shard in router.shards:
                injector = shard.backend.fault_injector
                if injector is not None and not any(
                    injector is seen for seen in counted_injectors
                ):
                    counted_injectors.append(injector)
                    fired += len(injector.fired)
                    raised += sum(
                        1 for _, kind, _, _ in injector.fired if kind != WORKER_STALL
                    )
            fault_attempts += sum(
                1
                for record in attempts
                if record.failed and record.error.startswith("InjectedFault")
            )
    rep.wall = sum(epoch_ms) / 1e3
    # One operation is one handoff cycle: an epoch without and an epoch
    # with a shard drain.  The two kinds cost differently, so a median
    # over single epochs would sit in the gap between them.
    cycle_ms = [
        epoch_ms[i] + epoch_ms[i + 1] for i in range(0, len(epoch_ms) - 1, 2)
    ]

    rep.check(router.pending_count == 0, f"{router.pending_count} tickets pending")
    rep.check(
        fault_attempts == raised,
        f"{raised} raising faults fired but {fault_attempts} attempts failed with one",
    )
    outcome_counts = histogram(classes)
    rep.exact = {
        "virt_survivor_p95_ms": percentile(survivors, 95.0) * 1e3,
        "outcomes": outcome_counts,
        "records": records_digest(final_records),
        "faults.fired": fired,
    }
    rep.host = {"queries_per_s": rep.attempted / rep.wall}
    rep.samples = {"op_latency_ms": cycle_ms}
    rep.layer = {
        "faults.planned": planned,
        "faults.fired": fired,
        "faults.retried_ok": retried_ok,
        "faults.timeouts": dict(outcome_counts).get("timeout", 0),
        "server.retries_used": sum(shard.retries_used for shard in router.shards),
        "cluster.entries_live": len(router.tickets),
        "tickets.live_entries": len(router.tickets)
        + sum(len(shard.tickets) for shard in router.shards),
    }
    return rep


def teardown(ctx) -> None:
    ctx["router"].shutdown()
