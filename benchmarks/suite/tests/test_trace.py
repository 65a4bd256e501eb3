import time

import pytest

from benchmarks.suite.trace import (
    CALLS, ERRORS, SELF, TOTAL, Boundary, NullTracer, Tracer, boundaries,
    layer_self_seconds,
)


def _wrap_class(tracer, cls, keys):
    """Wrap ``cls.<attr>`` under ``key`` for each ``attr: (key, kind)``."""
    for attr, (key, kind) in keys.items():
        original = vars(cls)[attr]
        setattr(cls, attr, tracer._wrap(original, Boundary("", attr, key, kind)))
        tracer._installed.append((cls, attr, original))


def test_self_time_arithmetic_on_a_synthetic_tree(monkeypatch):
    #   root 0..10
    #     a 1..4        (child b 2..3)
    #     c 5..9        (children d 5..6, e 7..9; d shares c's key)
    class Clock:
        now = 0.0

    class Tree:
        def a(self):
            Clock.now = 2.0
            self.b()
            Clock.now = 4.0

        def b(self):
            Clock.now = 3.0

        def c(self):
            self.d()
            Clock.now = 7.0
            self.e()

        def d(self):
            Clock.now = 6.0

        def e(self):
            Clock.now = 9.0

    monkeypatch.setattr(time, "perf_counter", lambda: Clock.now)
    tracer = Tracer()
    _wrap_class(tracer, Tree, {
        "a": ("x.a", "span"), "b": ("x.b", "agg"), "c": ("y.c", "span"),
        "d": ("y.c", "agg"), "e": ("y.e", "agg"),
    })
    try:
        with tracer.span("loadgen.root"):
            Clock.now = 1.0
            Tree().a()
            Clock.now = 5.0
            Tree().c()
            Clock.now = 10.0
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert {key: cell[SELF] for key, cell in totals.items()} == {
        "loadgen.root": 3.0, "x.a": 2.0, "x.b": 1.0, "y.c": 2.0, "y.e": 2.0,
    }
    # Self times add up to the root's wall, nested keys included ...
    assert sum(cell[SELF] for cell in totals.values()) == totals["loadgen.root"][TOTAL] == 10.0
    assert layer_self_seconds(totals) == {"loadgen": 3.0, "x": 3.0, "y": 4.0}
    # ... while the total of a key that nests under itself counts d twice.
    assert totals["y.c"][TOTAL] == 5.0 and totals["y.c"][CALLS] == 2
    spans = tracer.spans()
    assert [(span["name"], span["start"], span["end"]) for span in spans] == [
        ("loadgen.root", 0.0, 10.0), ("x.a", 1.0, 4.0), ("y.c", 5.0, 9.0),
    ]
    assert [span["parent"] for span in spans] == [-1, spans[0]["id"], spans[0]["id"]]


class _Toy:
    def outer(self, n):
        time.sleep(0.002)
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        time.sleep(0.001)
        if i == 99:
            raise ValueError("boom")
        return i


def _toy_tracer():
    tracer = Tracer()
    _wrap_class(tracer, _Toy, {"outer": ("toy.outer", "span"), "inner": ("toy.inner", "agg")})
    return tracer


def test_wrappers_nest_and_self_times_sum_to_the_root_wall():
    originals = dict(vars(_Toy))
    tracer = _toy_tracer()
    try:
        with tracer.span("loadgen.root"):
            assert _Toy().outer(3) == 3
            time.sleep(0.001)
    finally:
        tracer.uninstall()
    totals = tracer.totals("root")
    assert totals["toy.outer"][CALLS] == 1 and totals["toy.inner"][CALLS] == 3
    assert totals["toy.outer"][SELF] == pytest.approx(
        totals["toy.outer"][TOTAL] - totals["toy.inner"][TOTAL]
    )
    assert sum(cell[SELF] for cell in totals.values()) == pytest.approx(
        totals["loadgen.root"][TOTAL]
    )
    assert layer_self_seconds(totals)["toy"] == pytest.approx(
        totals["toy.outer"][TOTAL]
    )
    assert vars(_Toy)["outer"] is originals["outer"]
    assert vars(_Toy)["inner"] is originals["inner"]


def test_exceptions_pass_through_and_are_counted():
    tracer = _toy_tracer()
    try:
        with pytest.raises(ValueError, match="boom"):
            _Toy().inner(99)
        assert _Toy().inner(1) == 1
    finally:
        tracer.uninstall()
    cell = tracer.read("toy.inner")
    assert cell[CALLS] == 2 and cell[ERRORS] == 1


def test_install_replaces_and_uninstall_restores_every_boundary():
    before = [
        (boundary, vars(Tracer._resolve_owner(boundary.owner))[boundary.attr])
        for boundary in boundaries()
    ]
    def current(boundary):
        return vars(Tracer._resolve_owner(boundary.owner))[boundary.attr]

    tracer = Tracer()
    tracer.install()
    try:
        assert all(current(b) is not original for b, original in before)
        with tracer.paused():
            assert all(current(b) is original for b, original in before)
        assert all(current(b) is not original for b, original in before)
    finally:
        tracer.uninstall()
    # Nothing leaks into tier-1: the wrapped attributes are the originals.
    for boundary, original in before:
        assert current(boundary) is original, boundary


def test_traced_simulation_is_bit_identical_and_counts_at_the_boundary():
    from benchmarks.suite.workloads import kernel_sim

    ctx = kernel_sim.setup(seed=3, scale=0.1, tracer=NullTracer())
    plain = kernel_sim.run(ctx, NullTracer())
    tracer = Tracer()
    tracer.install()
    try:
        traced = kernel_sim.run(ctx, tracer)
    finally:
        tracer.uninstall()
    assert traced.exact == plain.exact
    assert tracer.read("simcore.events")[CALLS] == plain.exact["simcore.events"]
    assert tracer.read("core.tasks_executed")[CALLS] == plain.exact["core.tasks_executed"]
    assert tracer.read("core.mask_updates_ops")[CALLS] == plain.exact["core.mask_update_ops"]
    decide = tracer.read("core.decide")
    assert decide[CALLS] >= plain.exact["core.tasks_executed"]
    assert tracer.read("simcore.run")[SELF] < tracer.read("simcore.run")[TOTAL]


def test_null_tracer_records_nothing():
    tracer = NullTracer()
    with tracer.span("loadgen.root"):
        with tracer.paused():
            pass
    assert tracer.read("x") == [0, 0.0, 0.0, 0]
