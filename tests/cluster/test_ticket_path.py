"""One ticket path: every layer resolves a ticket through one ``_locate``.

A cluster ticket, its :class:`~repro.runtime.handle.QueryHandle`, the
shard's handle for the same query and the backend job it resolves to
must give one answer, through retries, cancels, deadlines, sheds and
shard handoffs; and a ticket no layer issued raises
:class:`~repro.errors.UnknownTicketError` at every layer.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterRouter
from repro.errors import AdmissionError, UnknownTicketError
from repro.runtime.faults import OPERATOR_RAISE, WORKER_DEATH, FaultPlan
from repro.runtime.handle import QueryHandle

UNKNOWN = 999


def make_router(**kwargs):
    defaults = dict(
        n_shards=3,
        scale_factor=0.001,
        scheduler="stride",
        n_workers=2,
        seed=3,
        environment="model",
    )
    defaults.update(kwargs)
    return ClusterRouter(**defaults)


def _outcome(call, *args):
    """What ``call(*args)`` returns, or the class and text it raises."""
    try:
        return ("ok", repr(call(*args)))
    except Exception as error:  # every outcome is part of the answer
        return (type(error).__name__, str(error))


def _failure(error):
    return None if error is None else (type(error).__name__, str(error))


def answers_of(router, ticket):
    """``{asker: answers}`` for one cluster ticket; all must be equal.

    The backend's answers are read at the ``(backend, job)`` found by
    hand: the ticket's shard address, then the shard's alias chain.
    """
    address = router.address_of(ticket)
    server = router.shards[address.shard]
    backend = server.backend
    job = server.tickets.resolve(address.ticket)

    def via_handle(handle):
        return {
            "progress": handle.progress(),
            "failed": handle.failed(),
            "failure": _failure(handle.failure()),
            "result": _outcome(handle.result),
        }

    return {
        "cluster handle": via_handle(QueryHandle.attach(ticket, router)),
        "shard handle": via_handle(QueryHandle.attach(address.ticket, server)),
        "router": {
            "poll": _outcome(router.poll, ticket),
            "failure": _failure(router.failure(ticket)),
            "result": _outcome(router.result, ticket),
        },
        "backend": {
            "poll": _outcome(backend.poll, job),
            "progress": backend.progress(job),
            "failed": backend.failed(job),
            "failure": _failure(backend.failure(job)),
            "result": _outcome(backend.result, job),
        },
    }


def assert_one_answer(router, tickets):
    for ticket in tickets:
        answers = answers_of(router, ticket)
        first = answers["backend"]
        for asker, answer in answers.items():
            expected = {key: first[key] for key in answer}
            assert answer == expected, (int(ticket), asker)
        record = router.poll(ticket)
        if record is not None:
            assert router.record(ticket) is record
            assert first["failed"] == record.failed


NAMES = ("Q6", "Q1", "Q18", "Q14")

ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.sampled_from(NAMES),
            st.integers(0, 2),  # retries
            st.sampled_from((None, None, 1e-4)),  # deadline (a miss)
            st.integers(0, 3),  # priority
        ),
        st.tuples(st.sampled_from(("cancel", "handle_cancel")), st.integers(0, 50)),
        st.tuples(st.just("handoff"), st.integers(0, 2)),
        st.tuples(st.sampled_from(("drain", "faulty_drain")), st.integers(0, 99)),
    ),
    max_size=24,
)


@settings(max_examples=60, deadline=None)
@given(ops=ops)
def test_handle_router_and_backend_give_one_answer(ops):
    router = make_router(max_pending=3, admission="shed", retry_budget=4)
    handles = []
    for op in ops:
        if op[0] == "submit":
            _, name, retries, deadline, priority = op
            try:
                handles.append(
                    router.submit(
                        name, retries=retries, deadline=deadline, priority=priority
                    )
                )
            except AdmissionError:  # full, and nothing lower to shed
                pass
        elif op[0] in ("cancel", "handle_cancel") and handles:
            handle = handles[op[1] % len(handles)]
            if op[0] == "cancel":
                router.cancel(handle)
            else:
                handle.cancel()
            # Either way the shard disarmed the ticket's retry chain.
            address = router.address_of(handle)
            shard = router.shards[address.shard]
            assert address.ticket not in shard.tickets.retryable_tickets()
        elif op[0] == "handoff":
            try:
                router.drain_shard(op[1], decommission=False)
            except AdmissionError:
                pass
            router.reactivate(op[1])
        elif op[0] in ("drain", "faulty_drain"):
            if op[0] == "faulty_drain":
                for index, shard in enumerate(router.shards):
                    shard.install_faults(
                        FaultPlan.random(
                            op[1] + index,
                            n_queries=4,
                            kinds=(OPERATOR_RAISE, WORKER_DEATH),
                            n_faults=2,
                            max_morsel=2,
                        )
                    )
            router.drain()
        assert_one_answer(router, handles)
    router.drain()
    assert_one_answer(router, handles)


# ----------------------------------------------------------------------
# Unknown tickets: one error type at every layer
# ----------------------------------------------------------------------
def _layers():
    router = make_router()
    router.submit("Q6", shard=0)
    server = router.shards[0]
    return {
        "backend": server.backend,
        "server": server,
        "router": router,
    }


PER_TICKET = {
    "backend": ("poll", "record", "result", "cancel", "failed", "failure",
                "progress"),
    "server": ("poll", "wait", "cancel", "result", "record"),
    "router": ("poll", "cancel", "failure", "result", "record", "address_of"),
}
HANDLE_CALLS = ("fetch", "rewind", "cancel", "progress", "result", "failed",
                "failure")


@pytest.mark.parametrize(
    "layer, method",
    [(layer, method) for layer, methods in PER_TICKET.items() for method in methods]
    + [("backend", "fail")],
)
def test_unknown_ticket_raises_unknown_ticket_error(layer, method):
    owner = _layers()[layer]
    args = (UNKNOWN, AdmissionError("shed")) if method == "fail" else (UNKNOWN,)
    with pytest.raises(UnknownTicketError):
        getattr(owner, method)(*args)


@pytest.mark.parametrize("layer", sorted(PER_TICKET))
@pytest.mark.parametrize("call", HANDLE_CALLS + ("iter", "channel"))
def test_unknown_ticket_handle_raises_unknown_ticket_error(layer, call):
    handle = QueryHandle.attach(UNKNOWN, _layers()[layer])
    with pytest.raises(UnknownTicketError):
        if call == "iter":
            next(iter(handle))
        elif call == "channel":
            handle.channel
        else:
            getattr(handle, call)()


def test_router_keeps_its_message():
    with pytest.raises(UnknownTicketError, match="unknown cluster ticket 999"):
        make_router().record(UNKNOWN)
