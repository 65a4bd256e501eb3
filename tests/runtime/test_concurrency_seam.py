"""The concurrency seam is armed exactly where threads run.

The §2.3 atomics (slot pointers, update masks, finalization counters)
start lock-free; ``enable_concurrency()`` installs their locks.  The
threaded backend must arm every one its worker threads touch, and the
simulated backend, which drives its scheduler from one thread, none.
"""

import sys

import pytest

from repro.core import SchedulerConfig, make_scheduler
from repro.core.resource_group import ResourceGroup
from repro.runtime import SimulatedBackend, ThreadedBackend

from tests.conftest import make_query
from tests.runtime.test_threaded_backend import ThreadSafeCountingEnv


@pytest.fixture
def activated(monkeypatch):
    """Every task set activated while the test runs, in order."""
    task_sets = []
    original = ResourceGroup.activate_next_task_set

    def recording(group):
        task_set = original(group)
        if task_set is not None:
            task_sets.append(task_set)
        return task_set

    monkeypatch.setattr(ResourceGroup, "activate_next_task_set", recording)
    return task_sets


def protocol_locks(scheduler, task_sets):
    """Whether each seam object holds a lock, by object."""
    locks = {}
    for slot, pointer in enumerate(scheduler.slots._pointers):
        locks[f"slot {slot} pointer"] = pointer._lock is not None
    for local in scheduler.workers:
        for name in ("change_mask", "return_mask"):
            mask = getattr(local, name)
            locks[f"worker {local.worker_id} {name}"] = mask._word_locks is not None
    for index, task_set in enumerate(task_sets):
        locks[f"task set {index} counter"] = (
            task_set.finalization_counter._lock is not None
        )
    return locks


def queries(n):
    return [make_query(f"q{i}", work=0.002, pipelines=1 + i % 3) for i in range(n)]


@pytest.mark.parametrize("policy", ["stride", "tuning"])
def test_threaded_backend_arms_every_protocol_atomic(activated, policy):
    scheduler = make_scheduler(policy, SchedulerConfig(n_workers=3, slot_capacity=70))
    env = ThreadSafeCountingEnv()
    backend = ThreadedBackend(scheduler, env)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more thread switches inside the protocol
    try:
        backend.start()
        for spec in queries(8):
            backend.submit(spec)
        records = backend.drain()
    finally:
        backend.shutdown()
        sys.setswitchinterval(switch)
    assert len(records) == 8
    # A lost update in a carve or a double finalization would break these.
    assert env.executed_tuples == sum(p.tuples for q in queries(8) for p in q.pipelines)
    assert all(task_set.finalized for task_set in activated)
    assert len(activated) == sum(len(q.pipelines) for q in queries(8))
    locks = protocol_locks(scheduler, activated)
    assert [name for name, armed in locks.items() if not armed] == []
    # Two words per mask at 70 slots: each word has its own lock.
    assert len(scheduler.workers[0].change_mask._word_locks) == 2


def test_simulated_backend_scheduler_holds_no_lock(activated):
    schedulers = []

    def factory():
        scheduler = make_scheduler("tuning", SchedulerConfig(n_workers=3))
        schedulers.append(scheduler)
        return scheduler

    backend = SimulatedBackend(factory, noise_sigma=0.0)
    for spec in queries(8):
        backend.submit(spec)
    assert len(backend.drain()) == 8
    backend.shutdown()
    (scheduler,) = schedulers
    assert not scheduler.concurrent
    assert activated
    locks = protocol_locks(scheduler, activated)
    assert [name for name, armed in locks.items() if armed] == []
    assert all(task_set.lock is None for task_set in activated)
