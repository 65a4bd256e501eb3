"""The names the repository benchmark binds stay where it looks for them.

``benchmarks/suite/trace.py`` installs its timing wrappers with
``vars(owner)[attr]`` — a method inherited from a base class, or a
function a module no longer imports under that name, is a ``KeyError``
there, and a call that stops resolving through the bound name silently
drops its layer from the attribution.  Both would otherwise surface only
in the traced benchmark run.
"""

from benchmarks.suite.trace import CALLS, Tracer, boundaries

from repro.core import SchedulerConfig, make_scheduler
from repro.errors import AdmissionError
from repro.runtime import SimulatedBackend

from tests.conftest import make_query


def _bound():
    """What each boundary's name currently resolves to on its owner."""
    return {
        (b.owner, b.attr): vars(Tracer._resolve_owner(b.owner))[b.attr]
        for b in boundaries()
    }


def test_tracer_binds_every_boundary_and_backend_calls_resolve_through_them():
    for boundary in boundaries():
        owner = Tracer._resolve_owner(boundary.owner)
        assert boundary.attr in vars(owner), (
            f"{boundary.owner}.{boundary.attr} must be defined on its owner itself"
        )
    originals = _bound()
    tracer = Tracer()
    tracer.install()
    try:
        backend = SimulatedBackend(
            lambda: make_scheduler("stride", SchedulerConfig(n_workers=2)),
            noise_sigma=0.0,
            sharing=True,
        )
        jobs = [backend.submit(make_query("q", work=0.002)) for _ in range(4)]
        backend.cancel(jobs[2])
        backend.fail(jobs[3], AdmissionError("shed"))
        backend.drain()
        backend.shutdown()
        totals = tracer.totals()
    finally:
        tracer.uninstall()
    assert {
        key: totals[key][CALLS]
        for key in (
            "simulated.submit",
            "simulated.cancel",
            "simulated.fail",
            "simulated.drain",
            "sharing.fingerprint",
        )
    } == {
        "simulated.submit": 4,
        "simulated.cancel": 1,
        "simulated.fail": 1,
        "simulated.drain": 1,
        "sharing.fingerprint": 2,
    }
    assert _bound() == originals
