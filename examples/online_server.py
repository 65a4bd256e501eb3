"""An online analytics server on real worker threads.

Run with::

    python examples/online_server.py

The :class:`~repro.server.AnalyticsServer` puts the paper's scheduler
behind a service lifecycle.  With ``backend="threaded"`` the stride
scheduler runs on one OS thread per worker — the slot array, update
masks and the §2.3 finalization protocol operate under genuine
concurrency — and queries can be submitted *while earlier ones are
executing*.  A bounded wait queue (``max_pending``) provides explicit
backpressure: a full server rejects new work with
:class:`~repro.errors.AdmissionError` instead of queueing without
limit.

The demo starts a 4-worker server, streams query batches into it while
it runs, shows a rejected submission once the queue fills, then drains
and prints per-query latencies.  It then demonstrates the streaming
result path: ``submit`` returns a
:class:`~repro.runtime.handle.QueryHandle`, and iterating it consumes
row batches *while the query runs* — the bounded result channel parks
the producing worker whenever the consumer falls behind, so peak
buffered memory never exceeds the channel capacity.  Cancelling a
handle mid-flight fails its stream with
:class:`~repro.errors.QueryCancelledError` and frees the admission slot
through the scheduler's normal finalization protocol.

Finally it switches to ``backend="process"``: the same queries run as
virtual-time epochs in a warm worker *process* of the shared sweep
pool, so the engine's numpy work never holds this process's GIL — the
worker regenerates the TPC-H database from its ``(scale_factor, seed)``
profile once and reuses it across epochs.
"""

from repro.errors import AdmissionError
from repro.metrics import format_table
from repro.server import AnalyticsServer


def main() -> None:
    print("generating TPC-H data and starting a 4-worker server ...")
    server = AnalyticsServer(
        scale_factor=0.01,
        scheduler="tuning",
        n_workers=4,
        backend="threaded",
        max_pending=8,
        seed=1,
    )
    server.start()

    # Submit a first batch and wait for one result while the rest of
    # the batch is still executing — true online operation.
    first = server.submit("Q6")
    tickets = [first] + [server.submit(name) for name in ("Q1", "Q13", "Q6")]
    record = server.wait(first, timeout=60.0)
    print(
        f"Q6 finished in {record.latency * 1e3:.1f} ms while "
        f"{server.pending_count} queries were still in flight"
    )

    # Keep submitting until admission control pushes back.
    rejected = 0
    while rejected == 0:
        try:
            tickets.append(server.submit("Q6"))
        except AdmissionError as exc:
            rejected += 1
            print(f"backpressure: {exc}")

    records = server.drain()
    print(f"\ndrained {len(records)} remaining queries:\n")
    rows = [
        (ticket, server.record(ticket).name, f"{server.record(ticket).latency * 1e3:8.1f}")
        for ticket in tickets
    ]
    print(format_table(("ticket", "query", "latency [ms]"), rows))

    # ------------------------------------------------------------------
    # Streaming: consume a large scan incrementally while it executes.
    # ------------------------------------------------------------------
    print("\nstreaming a large scan (QS) batch by batch ...")
    handle = server.submit("QS")
    batches = rows = 0
    for batch in handle:
        batches += 1
        rows += len(batch["l_orderkey"])
    channel = handle.channel
    print(
        f"consumed {rows} rows in {batches} batches; peak buffered "
        f"chunks {channel.peak_depth}/{channel.capacity} "
        "(bounded no matter the result size)"
    )

    # Cancellation: abort a heavy query mid-flight; the slot frees and
    # later queries run normally.
    victim = server.submit("Q18")
    if server.cancel(victim):
        record = server.wait(victim, timeout=60.0)
        print(f"cancelled Q18 after {record.latency * 1e3:.1f} ms in flight")
    follow_up = server.submit("Q6")
    server.wait(follow_up, timeout=60.0)
    print(f"follow-up Q6 result: {server.result(follow_up):.4f}")
    server.drain()

    server.shutdown()
    print("\nserver shut down; results remain readable:",
          f"{server.completed_count} completed")

    # ------------------------------------------------------------------
    # The same service on the GIL-free process backend: each drain is a
    # virtual-time epoch executed in a warm worker process.
    # ------------------------------------------------------------------
    print("\nrestarting on the process backend (epochs in a warm worker) ...")
    gilfree = AnalyticsServer(
        scale_factor=0.01,
        scheduler="tuning",
        n_workers=4,
        backend="process",
        seed=1,
    )
    epoch1 = [gilfree.submit(name) for name in ("Q6", "Q1", "Q13")]
    records = gilfree.drain()
    print(f"epoch 1: {len(records)} queries completed in the worker")
    epoch2 = [gilfree.submit("Q6", at=0.0), gilfree.submit("Q18", at=0.005)]
    gilfree.drain()
    rows = [
        (ticket, gilfree.record(ticket).name,
         f"{gilfree.record(ticket).latency * 1e3:8.1f}")
        for ticket in epoch1 + epoch2
    ]
    print(format_table(("ticket", "query", "latency [ms]"), rows))
    gilfree.shutdown()
    print("process-backend server shut down;",
          f"{gilfree.completed_count} completed")


if __name__ == "__main__":
    main()
