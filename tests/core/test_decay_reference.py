"""``PriorityDecay.charge`` equals the decay block ``worker_finish`` inlined.

``StrideScheduler.worker_finish`` used to carry its own copy of
``PriorityDecay.charge``; it now calls the method and passes the priority
it returns to ``WorkerLocalState.advance``.  The former copy lives on as
``tests/core/reference_stride_kernel.py::inlined_charge``.  Over
hypothesis-generated sequences of task durations (non-negative, as the
backends report them) and mid-sequence parameter updates, both must
leave ``priority``, ``quanta`` and the accumulator ``==`` and hand
``advance`` the same priority and the same "repriced" flag.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decay import DecayParameters, PriorityDecay

from tests.core.reference_stride_kernel import inlined_charge

QUANTA = (0.002, 0.001, 0.0015, 1e-4)


@st.composite
def parameters(draw):
    p_min = draw(st.sampled_from((100.0, 1.0, 0.37)))
    return DecayParameters(
        # λ on both ends of [0, 1] as well as inside it.
        decay=draw(st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))),
        d_start=draw(st.one_of(st.just(0), st.integers(0, 12))),
        # p0 at, just above and far above the floor.
        p0=p_min * draw(st.sampled_from((1.0, 1.5, 100.0, 1e4))),
        p_min=p_min,
        quantum=draw(st.sampled_from(QUANTA)),
    )


#: A task duration: anything up to a few quanta, or a multiple of a
#: quantum nudged to either side of it.
durations = st.one_of(
    st.floats(0.0, 0.01),
    st.builds(
        lambda quantum, k, nudge: max(0.0, quantum * k + nudge),
        st.sampled_from(QUANTA),
        st.integers(0, 5),
        st.sampled_from((-1e-15, -1e-18, 0.0, 1e-18, 1e-15)),
    ),
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("charge"), durations),
        st.tuples(st.just("update"), parameters()),
    ),
    max_size=60,
)


def _state(decay):
    return (decay.priority, decay.quanta, decay._accum)


@settings(max_examples=400, deadline=None)
@given(
    params=parameters(),
    user_scale=st.sampled_from((1.0, 0.5, 3.0)),
    static=st.one_of(st.none(), st.floats(1.0, 1e5)),
    ops=operations,
)
def test_charge_equals_the_inlined_decay_block(params, user_scale, static, ops):
    ours = PriorityDecay(params, user_scale, static)
    ref = PriorityDecay(params, user_scale, static)
    for kind, value in ops:
        if kind == "charge":
            held = ours.priority
            priority = ours.charge(value)
            ref_priority, ref_held = inlined_charge(ref, value)
            assert (priority, priority != held) == (ref_priority, ref_priority != ref_held)
        else:
            ours.update_parameters(value)
            ref.update_parameters(value)
        assert _state(ours) == _state(ref)
