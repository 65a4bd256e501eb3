"""Tests for the cluster router: routing, draining, quotas.

The determinism tests pin down the PR 7 acceptance criterion: a
4-shard cluster on the simulated backend (model environment) runs a
multi-tenant phased workload *bit-identically* — across repeated runs
in one process and across ``PYTHONHASHSEED`` values in subprocesses.
"""

import os
import subprocess
import sys

import pytest

from repro.cluster import ClusterRouter, PredictivePlacement
from repro.errors import ReproError, TenantQuotaError
from repro.runtime.tickets import ShardAddress
from repro.simcore.rng import RngFactory
from repro.workloads import Tenant, multi_tenant_workload, tpch_mix


def make_router(**kwargs):
    defaults = dict(
        n_shards=4,
        scale_factor=1.0,
        scheduler="stride",
        n_workers=2,
        seed=7,
        environment="model",
    )
    defaults.update(kwargs)
    return ClusterRouter(**defaults)


def tenant_workload(seed=3, duration=2.0):
    """Interactive dashboards (latency class) vs heavy ETL (bulk)."""
    tenants = [
        Tenant(
            "dash",
            tpch_mix(sf_small=0.25, sf_large=2.0, p_small=0.75),
            rate=20.0,
            user_priority=4.0,
            sla="latency",
        ),
        Tenant(
            "etl",
            tpch_mix(sf_small=8.0, sf_large=30.0, p_small=0.5),
            rate=3.0,
            sla="bulk",
        ),
    ]
    return multi_tenant_workload(tenants, duration, RngFactory(seed))


class TestConstruction:
    def test_needs_a_shard(self):
        with pytest.raises(ReproError):
            make_router(n_shards=0)

    def test_model_requires_simulated(self):
        with pytest.raises(ReproError, match="model"):
            make_router(backend="threaded")

    def test_bad_quota_rejected(self):
        with pytest.raises(ReproError, match="quota"):
            make_router(tenant_quotas={"a": 0})

    def test_shards_are_independent_servers(self):
        router = make_router(n_shards=3)
        assert router.n_shards == 3
        assert router.active_shards() == [0, 1, 2]
        assert len({id(s) for s in router.shards}) == 3


class TestRouting:
    def test_submit_returns_addressed_handle(self):
        router = make_router()
        handle = router.submit("Q6")
        assert handle == 0
        assert router.address_of(handle) == ShardAddress(0, 0)
        router.drain()
        assert router.record(handle).latency > 0.0
        assert router.record(handle).name == "Q6"

    def test_predictive_spreads_heavy_queries(self):
        router = make_router()
        shards = {router.address_of(router.submit("Q18")).shard for _ in range(4)}
        assert shards == {0, 1, 2, 3}  # equal work fans out across shards

    def test_light_query_avoids_loaded_shard(self):
        router = make_router(n_shards=2)
        heavy = router.submit("Q18")
        light = router.submit("Q6")
        assert router.address_of(heavy).shard == 0
        assert router.address_of(light).shard == 1

    def test_explicit_shard_pins(self):
        router = make_router()
        handle = router.submit("Q6", shard=2)
        assert router.address_of(handle).shard == 2

    def test_bad_shard_rejected(self):
        router = make_router(n_shards=2)
        with pytest.raises(ReproError, match="not available"):
            router.submit("Q6", shard=5)

    def test_unknown_ticket_rejected(self):
        with pytest.raises(ReproError, match="unknown cluster ticket"):
            make_router().record(99)

    def test_calibration_updates_after_drain(self):
        router = make_router()
        router.submit("Q6")
        router.drain()
        snapshot = router.placement.snapshot()
        assert "Q6" in snapshot["calibrated_work"]
        # Drain resets the per-epoch backlog horizons with the clock.
        assert snapshot["busy_until"] == [{}] * 4

    def test_workload_maps_tenants_onto_cluster(self):
        router = make_router()
        handles = router.submit_workload(tenant_workload())
        assert len(handles) > 10
        assert router.tenant_pending("dash") > 0
        assert router.tenant_pending("etl") > 0
        router.drain()
        for handle in handles:
            assert router.record(handle) is not None
        ticket = int(handles[0])
        assert router.tickets.tenant_of(ticket) in ("dash", "etl")
        assert router.tickets.sla_of(ticket) in ("latency", "bulk")


class TestTenantQuotas:
    def test_cluster_wide_quota(self):
        router = make_router(tenant_quotas={"etl": 3})
        for _ in range(3):
            router.submit("Q6", tenant="etl")
        # The three pending queries sit on *different* shards; the
        # cluster-level quota still sees them all.
        with pytest.raises(TenantQuotaError, match="cluster quota"):
            router.submit("Q6", tenant="etl")
        router.drain()
        router.submit("Q6", tenant="etl")  # freed by completion

    def test_rejected_submission_leaves_placement_untouched(self):
        router = make_router(tenant_quotas={"etl": 1})
        router.submit("Q6", tenant="etl")
        before = router.placement.snapshot()
        with pytest.raises(TenantQuotaError):
            router.submit("Q6", tenant="etl")
        assert router.placement.snapshot() == before


class TestDrainShard:
    def test_handoff_moves_pending_queries(self):
        router = make_router()
        handles = [router.submit("Q6", shard=1) for _ in range(3)]
        moved = router.drain_shard(1)
        assert moved == 3
        assert all(router.address_of(h).shard != 1 for h in handles)
        assert router.active_shards() == [0, 2, 3]
        router.drain()
        for handle in handles:
            record = router.record(handle)
            assert not record.failed and not record.cancelled

    def test_zero_lost_tickets_mid_workload(self):
        router = make_router()
        handles = router.submit_workload(tenant_workload())
        victim = router.address_of(handles[0]).shard
        router.drain_shard(victim)
        router.drain()
        # Every ticket resolves to a completed record, none dangling.
        for handle in handles:
            record = router.record(handle)
            assert record is not None
            assert not record.failed and not record.cancelled
        assert victim not in {router.address_of(h).shard for h in handles}

    def test_completed_queries_stay_readable_on_retired_shard(self):
        router = make_router()
        done = router.submit("Q6", shard=1)
        router.drain()
        latency = router.record(done).latency
        router.drain_shard(1)
        assert router.address_of(done).shard == 1  # never moved
        assert router.record(done).latency == latency

    def test_handoff_preserves_tenant_and_sla(self):
        router = make_router(tenant_quotas={"etl": 8})
        handle = router.submit("Q18", shard=0, tenant="etl", sla="bulk")
        router.drain_shard(0)
        ticket = int(handle)
        assert router.tickets.tenant_of(ticket) == "etl"
        target = router.address_of(handle)
        shard = router.shards[target.shard]
        assert shard.tickets.tenant_of(target.ticket) == "etl"
        assert shard.tickets.sla_of(target.ticket) == "bulk"

    def test_retries_take_the_shards_tuned_backoff(self):
        router = make_router()
        for index, shard in enumerate(router.shards):
            shard.knob_space().apply({"runtime.retry_backoff": 0.1 * (index + 1)})

        def backoff(handle):
            address = router.address_of(handle)
            shard = router.shards[address.shard]
            return shard.tickets.retry_state(address.ticket)["backoff"]

        plain = router.submit("Q6", shard=1, retries=2)
        assert backoff(plain) == 0.2
        moved = router.submit("Q6", shard=0, retries=2)
        router.drain_shard(0)
        target = router.address_of(moved).shard
        assert target != 0
        assert backoff(moved) == 0.1 * (target + 1)
        router.drain()

    def test_cannot_drain_last_shard(self):
        router = make_router(n_shards=1)
        with pytest.raises(ReproError, match="last active shard"):
            router.drain_shard(0)

    def test_decommissioned_shard_rejects_pins(self):
        router = make_router()
        router.drain_shard(2)
        with pytest.raises(ReproError, match="not available"):
            router.submit("Q6", shard=2)
        with pytest.raises(ReproError, match="already decommissioned"):
            router.drain_shard(2)

    def test_drain_without_decommission_reactivates(self):
        router = make_router()
        router.drain_shard(1, decommission=False)
        assert router.active_shards() == [0, 2, 3]
        router.reactivate(1)
        assert router.active_shards() == [0, 1, 2, 3]
        router.submit("Q6", shard=1)
        router.drain()


class TestPredictiveVsRoundRobin:
    def test_predictive_beats_round_robin_p99_for_latency_class(self):
        """The headline routing claim, in miniature: under a mixed
        heavy/light multi-tenant load, predictive placement cuts the
        tail latency of the latency-critical class vs round-robin."""
        import numpy as np

        def p99_latency(placement):
            router = make_router(placement=placement, scheduler="stride")
            workload = tenant_workload(seed=33, duration=4.0)
            handles = router.submit_workload(workload)
            router.drain()
            latencies = [
                router.record(h).latency
                for h in handles
                if router.tickets.sla_of(int(h)) == "latency"
            ]
            assert latencies
            return float(np.percentile(latencies, 99))

        predictive = p99_latency("predictive")
        round_robin = p99_latency("round-robin")
        assert predictive < round_robin

    def test_repeated_runs_bit_identical(self):
        def run():
            router = make_router(seed=21)
            handles = router.submit_workload(tenant_workload(seed=9))
            router.drain()
            return [
                (int(h), router.address_of(h), router.record(h).latency)
                for h in handles
            ]

        assert run() == run()


_CLUSTER_DETERMINISM_SCRIPT = """
from repro.cluster import ClusterRouter
from repro.simcore.rng import RngFactory
from repro.workloads import Tenant, multi_tenant_workload, tpch_mix

tenants = [
    Tenant("dash", tpch_mix(sf_small=0.5, sf_large=1.0), rate=8.0,
           user_priority=4.0, sla="latency"),
    Tenant("etl", tpch_mix(sf_small=2.0, sf_large=8.0), rate=4.0, sla="bulk"),
]
workload = multi_tenant_workload(tenants, 3.0, RngFactory(3))

router = ClusterRouter(n_shards=4, scale_factor=1.0, scheduler="tuning",
                       n_workers=2, seed=7, environment="model")
handles = router.submit_workload(workload)
router.drain_shard(1)
router.drain()
for handle in handles:
    record = router.record(handle)
    print(int(handle), tuple(router.address_of(handle)), record.name,
          repr(record.latency), record.failed, record.cancelled)
print(router.placement.snapshot())
"""


class TestHashSeedDeterminism:
    def test_cluster_run_identical_across_hash_seeds(self):
        # Placement, routing, handoff and the tuning scheduler must not
        # depend on dict/set iteration order anywhere in the stack.
        outputs = []
        for hashseed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = "src"
            proc = subprocess.run(
                [sys.executable, "-c", _CLUSTER_DETERMINISM_SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                cwd=os.path.dirname(
                    os.path.dirname(os.path.dirname(__file__))
                ),
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0].count("\n") > 10


class TestEngineEnvironment:
    def test_engine_cluster_shares_one_database(self):
        router = ClusterRouter(
            n_shards=2,
            scale_factor=0.003,
            scheduler="stride",
            n_workers=2,
            seed=5,
            environment="engine",
        )
        assert router.shards[0].database is router.shards[1].database
        a = router.submit("Q6", shard=0)
        b = router.submit("Q6", shard=1)
        router.drain()
        assert router.result(a) == pytest.approx(router.result(b))

    def test_custom_placement_instance(self):
        policy = PredictivePlacement(alpha=0.5)
        router = make_router(placement=policy)
        assert router.placement is policy
