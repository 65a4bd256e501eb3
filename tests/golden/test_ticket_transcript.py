"""Golden transcript of every cluster ticket's answers.

A 3-shard simulated router in the model environment runs two epochs
that exercise each way a ticket can end or move: retries over a seeded
:class:`~repro.runtime.faults.FaultPlan`, cancels, a deadline miss, a
shed victim and a refused newcomer, and a ``drain_shard(...,
decommission=False)`` + ``reactivate`` handoff.  For every cluster
ticket the transcript hashes what the router answers about it —
``poll``, every ``record`` field, the failure's class and text,
``result`` (value or the exception's class and text) and
``address_of`` — and compares with ``ticket_transcript.json`` by
``==``.  A behaviour change regenerates the file in the same change and
says why::

    PYTHONPATH=src python -m tests.golden.test_ticket_transcript --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

GOLDEN = Path(__file__).with_name("ticket_transcript.json")
REGENERATE = "PYTHONPATH=src python -m tests.golden.test_ticket_transcript --write"
N_SHARDS = 3
MAX_PENDING = 10


def _answer(call, ticket):
    """What ``call(ticket)`` returns, or the class and text it raises."""
    try:
        return repr(call(ticket))
    except Exception as error:  # the transcript records every outcome
        return f"{type(error).__name__}: {error}"


def _line(router, ticket) -> str:
    record = router.record(ticket)
    failure = router.failure(ticket)
    return repr((
        int(ticket),
        repr(router.poll(ticket)),
        dataclasses.astuple(record),
        None if failure is None else (type(failure).__name__, str(failure)),
        _answer(router.result, ticket),
        tuple(router.address_of(ticket)),
    ))


def _outcome(router, ticket) -> str:
    record = router.record(ticket)
    if record.cancelled:
        return "cancelled"
    if not record.failed:
        return "ok"
    return type(router.failure(ticket)).__name__


def scenario():
    """Run the two epochs; returns ``(router, control-call answers)``."""
    from repro.cluster import ClusterRouter
    from repro.errors import AdmissionError
    from repro.runtime.faults import OPERATOR_RAISE, WORKER_DEATH, FaultPlan

    router = ClusterRouter(
        n_shards=N_SHARDS,
        scheduler="tuning",
        n_workers=2,
        seed=11,
        environment="model",
        max_pending=MAX_PENDING,
        admission="shed",
        retry_budget=6,
    )
    for index, shard in enumerate(router.shards):
        shard.install_faults(
            FaultPlan.random(
                seed=100 + index,
                n_queries=8,
                kinds=(OPERATOR_RAISE, WORKER_DEATH),
                n_faults=3,
            )
        )
    names = ("Q6", "Q1", "Q18", "Q3", "Q14", "Q6", "Q12", "Q1")
    answers = {"refused": 0, "moved": [], "cancel": []}
    for epoch in range(2):
        handles = []
        for i in range(3 * MAX_PENDING + 4):
            name = names[i % len(names)]
            try:
                handles.append(
                    router.submit(
                        name,
                        at=0.01 * i,
                        retries=2 if i % 3 else 0,
                        priority=i % 4,
                        deadline=1e-4 if i == 5 else None,
                        tenant="dash" if i % 2 else "etl",
                    )
                )
            except AdmissionError:
                answers["refused"] += 1
            if i == 12:
                answers["moved"].append(
                    router.drain_shard(1, decommission=False)
                )
            if i == 20:
                router.reactivate(1)
        for victim in (handles[3 + epoch], handles[-1]):
            answers["cancel"].append(router.cancel(victim))
        router.drain()
    return router, answers


def measure() -> dict:
    router, answers = scenario()
    tickets = list(router.tickets)
    lines = [_line(router, ticket) for ticket in tickets]
    aliased = sum(
        1
        for shard in router.shards
        for ticket in shard.tickets
        if shard.tickets.resolve(ticket) != ticket
    )
    return {
        **answers,
        "tickets": len(tickets),
        "retried": sum(shard.retries_used for shard in router.shards),
        "aliased": aliased,
        "outcomes": dict(sorted(Counter(
            _outcome(router, ticket) for ticket in tickets
        ).items())),
        "per_ticket": [
            hashlib.sha256(line.encode()).hexdigest()[:16] for line in lines
        ],
        "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }


def test_ticket_transcript_matches_the_golden():
    golden = json.loads(GOLDEN.read_text())
    measured = json.loads(json.dumps(measure()))
    moved = [
        f"{key}: golden {golden.get(key)!r}, now {value!r}"
        for key, value in measured.items()
        if key != "per_ticket" and golden.get(key) != value
    ]
    moved += [
        f"ticket {ticket}"
        for ticket, (old, new) in enumerate(
            zip(golden["per_ticket"], measured["per_ticket"])
        )
        if old != new
    ]
    assert not moved and golden == measured, (
        "ticket answers moved: " + "; ".join(moved)
        + f".  If the change is meant to alter behaviour, regenerate with "
        f"`{REGENERATE}` and say why in the change."
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {REGENERATE}")
    GOLDEN.write_text(json.dumps(measure(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
