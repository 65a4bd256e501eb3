"""Every registered knob is a knob its target runs.

For the knob space of a server on every backend and scheduler family,
a random vector drawn from the space's domains is applied, and every
knob is read back from the object that runs it: the live scheduler on
the threaded backend, the scheduler the next epoch is built from on the
simulated and process backends, the backend or the admission policy.  A knob registered where nothing runs it reads
back ``NOT_RUN`` and fails the comparison.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stride import StrideScheduler
from repro.engine import generate_tpch
from repro.runtime.threaded import ThreadedBackend
from repro.server import AnalyticsServer
from repro.tuning import ContinuousDomain

NOT_RUN = "not run"

BACKENDS = ("simulated", "threaded", "process")
SCHEDULERS = ("stride", "tuning", "fair", "fifo")

#: The core knobs each server registers: the decay pair where the
#: scheduler decays, ``t_max`` and the slot limit only where a scheduler
#: is built per epoch, the slot limit only with a slot array.
CORE_KNOBS = {
    ("threaded", "stride"): ("core.decay", "core.d_start"),
    ("threaded", "tuning"): ("core.decay", "core.d_start"),
    ("threaded", "fair"): (),
    ("threaded", "fifo"): (),
}
for _backend in ("simulated", "process"):
    for _name in ("stride", "tuning"):
        CORE_KNOBS[_backend, _name] = (
            "core.decay", "core.d_start", "core.t_max", "core.slot_limit",
        )
    CORE_KNOBS[_backend, "fair"] = ("core.t_max", "core.slot_limit")
    CORE_KNOBS[_backend, "fifo"] = ("core.t_max",)


def _decays(scheduler):
    return isinstance(scheduler, StrideScheduler) and not scheduler.fixed_priorities


def _running_scheduler(server):
    backend = server.backend
    if isinstance(backend, ThreadedBackend):
        return backend.scheduler
    return backend._scheduler_factory()


#: knob name -> (server, its running scheduler) -> the value in force.
SERVER_READERS = {
    "core.decay": lambda server, s: (
        s.decay_parameters.decay if _decays(s) else NOT_RUN
    ),
    "core.d_start": lambda server, s: (
        s.decay_parameters.d_start if _decays(s) else NOT_RUN
    ),
    "core.t_max": lambda server, s: s.executor._t_max,
    "core.slot_limit": lambda server, s: (
        s.slots.capacity if hasattr(s, "slots") else NOT_RUN
    ),
    "runtime.channel_capacity": lambda server, s: server.backend.channel_capacity,
    "runtime.retry_budget": lambda server, s: server._retry_budget,
    "runtime.retry_backoff": lambda server, s: server._retry_backoff,
    "admission.max_pending": lambda server, s: server.admission_policy.max_pending,
}


def _vectors(space):
    """A strategy for vectors over ``space``, each value in its domain."""
    def values(domain):
        if isinstance(domain, ContinuousDomain):
            return st.floats(domain.lo, domain.hi, allow_nan=False)
        return st.integers(domain.lo, domain.hi)

    return st.fixed_dictionaries(
        {knob.name: values(knob.domain) for knob in space}
    )


@pytest.fixture(scope="module")
def servers():
    database = generate_tpch(scale_factor=0.002, seed=3)
    built = {}

    def get(backend, scheduler):
        server = built.get((backend, scheduler))
        if server is None:
            engine = {"database": database} if backend != "simulated" else {
                "environment": "model"
            }
            server = AnalyticsServer(
                scheduler=scheduler, backend=backend, n_workers=2, seed=5,
                max_pending=64, **engine,
            )
            if backend == "threaded":
                server.start()
            built[backend, scheduler] = server
        return server

    yield get
    for server in built.values():
        server.shutdown()


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_server_knobs_read_back_from_what_runs_them(servers, backend, scheduler, data):
    server = servers(backend, scheduler)
    space = server.knob_space()
    core = tuple(name for name in space.names() if name.startswith("core."))
    assert core == CORE_KNOBS[backend, scheduler]
    assert set(space.names()) <= set(SERVER_READERS)
    vector = data.draw(_vectors(space))
    # Threaded: apply while a query runs on the live workers — except
    # under "tuning", whose controller would retune the decay pair
    # between the apply and the read once it has tracked a query.
    live = backend == "threaded" and scheduler != "tuning"
    ticket = server.submit("Q6") if live else None
    assert space.apply(vector) == list(space.names())
    running = _running_scheduler(server)
    for name, value in vector.items():
        assert SERVER_READERS[name](server, running) == value, name
    assert space.current_values() == vector
    if ticket is not None:
        assert not server.wait(ticket, timeout=60.0).failed


@pytest.mark.parametrize("backend", BACKENDS)
def test_channel_capacity_floor_is_the_domain_clamp(servers, backend):
    server = servers(backend, "stride")
    server.knob_space().apply({"runtime.channel_capacity": 0})
    assert server.backend.channel_capacity == 1
