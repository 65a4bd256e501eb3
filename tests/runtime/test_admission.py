"""Tests for the pluggable admission layer (repro.runtime.admission)."""

import pytest

from repro.engine import generate_tpch
from repro.errors import AdmissionError, ReproError, TenantQuotaError, error_from_text
from repro.runtime.admission import (
    ADMISSION_POLICIES,
    BULK,
    LATENCY_CRITICAL,
    AdmissionRequest,
    BlockingAdmission,
    SlaClass,
    make_admission_policy,
)
from repro.server import AnalyticsServer


@pytest.fixture(scope="module")
def server_db():
    return generate_tpch(scale_factor=0.003, seed=5)


def make_server(server_db, **kwargs):
    defaults = dict(scheduler="stride", n_workers=2, seed=5, database=server_db)
    defaults.update(kwargs)
    return AnalyticsServer(**defaults)


class TestSlaClass:
    def test_needs_name(self):
        with pytest.raises(ReproError):
            SlaClass("")

    def test_needs_positive_weight(self):
        with pytest.raises(ReproError):
            SlaClass("x", weight=0.0)

    def test_effective_priority_adds_class_base(self):
        request = AdmissionRequest(priority=3, sla=LATENCY_CRITICAL)
        assert request.effective_priority == LATENCY_CRITICAL.priority + 3
        assert AdmissionRequest(priority=3, sla=BULK).effective_priority == 3
        assert AdmissionRequest(priority=3).effective_priority == 3

    def test_latency_class_is_not_sheddable(self):
        assert not LATENCY_CRITICAL.sheddable
        assert BULK.sheddable


class TestPolicyConstruction:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ReproError, match="unknown admission policy"):
            make_admission_policy("lru")

    @pytest.mark.parametrize("mode", sorted(ADMISSION_POLICIES))
    def test_known_policies_build(self, mode):
        policy = make_admission_policy(mode, max_pending=2)
        assert policy.name == mode
        assert policy.max_pending == 2

    def test_bad_max_pending_rejected(self):
        with pytest.raises(ReproError, match="max_pending"):
            make_admission_policy("reject", max_pending=0)

    def test_bad_quota_rejected(self):
        with pytest.raises(ReproError, match="quota"):
            make_admission_policy("reject", tenant_quotas={"a": 0})


class TestBlockingNeedsRealtime:
    """Satellite (a): blocking admission on virtual-time backends must
    fail eagerly at construction, not deadlock at submit time."""

    @pytest.mark.parametrize("backend", ["simulated", "process"])
    def test_block_string_rejected_eagerly(self, server_db, backend):
        with pytest.raises(ReproError, match="block"):
            make_server(
                server_db, backend=backend, max_pending=1, admission="block"
            )

    @pytest.mark.parametrize("backend", ["simulated", "process"])
    def test_block_instance_rejected_eagerly(self, server_db, backend):
        policy = BlockingAdmission(max_pending=1)
        with pytest.raises(ReproError, match="block"):
            make_server(server_db, backend=backend, admission=policy)

    def test_block_accepted_on_threaded(self, server_db):
        server = make_server(
            server_db, backend="threaded", max_pending=1, admission="block"
        )
        assert server.admission_policy.name == "block"
        server.shutdown()


class TestTenantQuotas:
    def test_quota_raises_typed_error(self, server_db):
        server = make_server(server_db, tenant_quotas={"etl": 2})
        server.submit("Q6", tenant="etl")
        server.submit("Q6", tenant="etl")
        with pytest.raises(TenantQuotaError, match="'etl' is over quota"):
            server.submit("Q6", tenant="etl")

    def test_quota_error_is_admission_error(self):
        assert issubclass(TenantQuotaError, AdmissionError)

    def test_quota_error_round_trips_text(self):
        err = error_from_text("TenantQuotaError: tenant 'a' is over quota")
        assert isinstance(err, TenantQuotaError)
        assert not err.transient

    def test_other_tenants_unaffected(self, server_db):
        server = make_server(server_db, tenant_quotas={"etl": 1})
        server.submit("Q6", tenant="etl")
        server.submit("Q6", tenant="dash")  # no quota for dash
        server.submit("Q6")                 # untenanted never counted
        assert server.tenant_pending("etl") == 1
        assert server.tenant_pending("dash") == 1

    def test_default_quota_covers_unlisted_tenants(self, server_db):
        server = make_server(server_db, default_tenant_quota=1)
        server.submit("Q6", tenant="anyone")
        with pytest.raises(TenantQuotaError):
            server.submit("Q6", tenant="anyone")

    def test_quota_frees_after_drain(self, server_db):
        server = make_server(server_db, tenant_quotas={"etl": 1})
        server.submit("Q6", tenant="etl")
        server.drain()
        server.submit("Q6", tenant="etl")  # slot freed by completion

    def test_quota_checked_before_capacity(self, server_db):
        # Quota violations surface as TenantQuotaError even when the
        # shard is also at max_pending (the more specific signal wins).
        server = make_server(
            server_db, max_pending=1, tenant_quotas={"etl": 1}
        )
        server.submit("Q6", tenant="etl")
        with pytest.raises(TenantQuotaError):
            server.submit("Q6", tenant="etl")


class TestSheddingRespectsSla:
    def test_latency_class_never_shed(self, server_db):
        server = make_server(server_db, max_pending=1, admission="shed")
        server.submit("Q6", priority=0, sla="latency")
        # Newcomer outranks the pending query's *own* priority (0), but
        # the latency class is exempt from eviction.
        with pytest.raises(AdmissionError, match="none has lower priority"):
            server.submit("Q6", priority=5)

    def test_bulk_class_shed_first(self, server_db):
        server = make_server(server_db, max_pending=2, admission="shed")
        protected = server.submit("Q6", sla="latency")
        victim = server.submit("Q6", sla="bulk")
        server.submit("Q6", priority=1)
        assert isinstance(victim.failure(), AdmissionError)
        assert not protected.failed()

    def test_sla_base_priority_orders_shedding(self, server_db):
        # An un-classed newcomer cannot shed a latency-class query even
        # with a higher caller priority, because the class base wins.
        server = make_server(server_db, max_pending=1, admission="shed")
        server.submit("Q6", sla="latency")
        with pytest.raises(AdmissionError):
            server.submit("Q6", priority=99)


class TestSlaWeights:
    def test_sla_weight_scales_user_priority(self, server_db):
        server = make_server(server_db)
        ticket = server.submit("Q6", sla="latency")
        arrival, spec, job_id = server.backend._pending[int(ticket)]
        assert job_id == int(ticket)
        assert spec.user_priority == LATENCY_CRITICAL.weight
        assert "sla:latency" in spec.tags

    def test_unknown_sla_rejected(self, server_db):
        with pytest.raises(ReproError, match="unknown SLA class"):
            make_server(server_db).submit("Q6", sla="gold")

    def test_custom_sla_classes(self, server_db):
        gold = SlaClass("gold", priority=50, weight=2.0, sheddable=False)
        server = make_server(server_db, sla_classes={"gold": gold})
        ticket = server.submit("Q6", sla="gold")
        assert server.tickets.sla_of(int(ticket)) == "gold"
