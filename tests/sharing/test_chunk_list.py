"""One chunk list per execution: folds and cache hits copy no chunk.

Every member of a fold, and every later fragment-cache hit, reads the
leader's own :class:`~repro.runtime.channel.ChunkList`, so the channels
of a fold reach exactly one :class:`~repro.runtime.channel.ResultChunk`
per chunk the leader produced, on every backend.
"""

import gc
from dataclasses import replace

import pytest

from repro.engine import generate_tpch
from repro.runtime.channel import ResultChannel, ResultChunk
from repro.server import AnalyticsServer


@pytest.fixture(scope="module")
def db():
    return generate_tpch(scale_factor=0.003, seed=5)


def streaming_spec(server):
    """QS in fixed 500-tuple morsels: one chunk per morsel."""
    spec = server.query_spec("QS")
    return replace(
        spec,
        pipelines=tuple(
            replace(p, supports_adaptive=False, fixed_morsel_tuples=500)
            for p in spec.pipelines
        ),
    )


def chunks_reachable(channels) -> set:
    """Ids of the chunk objects reachable from ``channels`` through
    channels, lists, tuples and dicts."""
    found, seen, stack = set(), set(), list(channels)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, ResultChunk):
            found.add(id(obj))
        elif isinstance(obj, (ResultChannel, list, tuple, dict)):
            stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("backend", ["simulated", "process", "threaded"])
@pytest.mark.parametrize("members", [1, 3])
def test_a_fold_holds_one_chunk_object_per_produced_chunk(db, backend, members):
    server = AnalyticsServer(
        scheduler="stride", n_workers=2, seed=5, database=db,
        sharing=True, backend=backend,
    )
    spec = streaming_spec(server)
    try:
        fold = [server.submit_spec(spec) for _ in range(1 + members)]
        server.drain()
        assert server.sharing_stats.attached_queries == members
        channels = [ticket.channel for ticket in fold]
        produced = fold[0].channel.chunks_put
        assert produced > 1
        assert len(chunks_reachable(channels)) == produced
        rows = server.result(fold[0])
        for member in fold[1:]:
            assert member.progress()["chunks_put"] == produced
            assert server.result(member).keys() == rows.keys()
            for name, column in server.result(member).items():
                assert (column == rows[name]).all()
        if backend != "threaded":  # the epoch backends' fragment cache
            hit = server.submit_spec(spec)
            server.drain()
            assert server.sharing_stats.cache_hits == 1
            assert len(chunks_reachable(channels + [hit.channel])) == produced
            assert server.result(hit).keys() == rows.keys()
    finally:
        server.shutdown()
