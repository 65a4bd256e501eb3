"""The coordinator-driven simulated fold plan equals the old planner.

``SimulatedBackend`` used to decide its folds itself
(``tests/sharing/reference_fold_plan.py::plan_folds``); it now offers
its pending set to a :class:`~repro.sharing.FoldCoordinator` and stamps
the leaders from the coordinator's weight rule.  Over random pending
sets — colliding fingerprints, ``noshare`` tags, priorities including
``None``, arrival ties and attach buffers of 1 to 4 — both must produce
the same run list (stamped specs included), the same fold membership
and the same counters, all compared with ``==``.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SchedulerConfig, make_scheduler
from repro.runtime import SimulatedBackend

from tests.conftest import make_query
from tests.sharing.reference_fold_plan import plan_folds

# Three fingerprints: "b" differs from "a" only in its work.
SHAPES = {
    "a": make_query("a", work=0.002),
    "b": make_query("a", work=0.004),
    "c": make_query("c", work=0.002, pipelines=1),
}

submissions = st.lists(
    st.tuples(
        st.sampled_from(sorted(SHAPES)),
        st.sampled_from((0.0, 0.001, 0.002)),
        st.sampled_from((None, 0.0, 0.5, 1.0, 3.0, 9.0)),
        st.booleans(),
    ),
    max_size=14,
)


def epoch(submitted, attach_buffer):
    """A sharing backend holding ``submitted`` and its pending set."""
    backend = SimulatedBackend(
        lambda: make_scheduler("stride", SchedulerConfig(n_workers=2)),
        sharing=True,
        sharing_attach_buffer=attach_buffer,
    )
    for shape, arrival, priority, noshare in submitted:
        spec = SHAPES[shape]
        tags = spec.tags + (("noshare",) if noshare else ())
        backend.submit(replace(spec, user_priority=priority, tags=tags), at=arrival)
    finished, pending = backend._begin_epoch()
    return backend, finished, pending


@settings(max_examples=200, deadline=None)
@given(submitted=submissions, attach_buffer=st.integers(1, 4))
def test_coordinator_plan_equals_the_reference(submitted, attach_buffer):
    ours, finished, pending = epoch(submitted, attach_buffer)
    ref, ref_finished, ref_pending = epoch(submitted, attach_buffer)
    run = ours._offer_folds(pending, finished)
    ref_run, ref_folds = plan_folds(ref, ref_pending, ref_finished, attach_buffer)
    assert run == ref_run
    folds = {}
    for _, _, job_id in run:
        fold = ours._folds.led_by(job_id)
        if fold is not None:
            folds[job_id] = (fold.fingerprint, fold.members)
    assert folds == ref_folds
    assert ours.sharing_stats == ref.sharing_stats
    assert finished == ref_finished
