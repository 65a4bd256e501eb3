"""Tests for the knob table and knob spaces."""

import pytest

from repro.errors import TuningError
from repro.tuning import (
    KNOBS,
    ContinuousDomain,
    IntegerDomain,
    Knob,
    KnobSpace,
    TrackedQuery,
    default_knob_space,
    replay_workload,
)


class TestContinuousDomain:
    def test_clamp_and_validate(self):
        domain = ContinuousDomain(0.0, 1.0, step=0.05)
        assert domain.clamp(1.7) == 1.0
        assert domain.clamp(-0.2) == 0.0
        domain.validate(0.5)
        with pytest.raises(TuningError):
            domain.validate(1.5)

    def test_neighbors_plus_then_minus(self):
        domain = ContinuousDomain(0.0, 1.0, step=0.05)
        assert domain.neighbors(0.5, 1.0) == [0.55, 0.45]

    def test_neighbors_drop_clamped_duplicates(self):
        domain = ContinuousDomain(0.0, 1.0, step=0.05)
        # At the upper edge only the downward move survives.
        assert domain.neighbors(1.0, 1.0) == [0.95]

    def test_normalize(self):
        domain = ContinuousDomain(0.2, 1.2, step=0.1)
        assert domain.normalize(0.7) == pytest.approx(0.5)

    def test_grid_is_the_step_multiples(self):
        domain = KNOBS["core.decay"].domain
        # Width-1 moves walk the step lattice from lo and stop at hi.
        walk = [domain.lo]
        while domain.neighbors(walk[-1], 1.0)[0] > walk[-1]:
            walk.append(domain.neighbors(walk[-1], 1.0)[0])
        assert walk == pytest.approx([step * 0.05 for step in range(21)])
        assert walk[-1] == domain.hi

    def test_empty_domain_rejected(self):
        with pytest.raises(TuningError):
            ContinuousDomain(1.0, 1.0, step=0.1)


class TestIntegerDomain:
    def test_clamp_rounds(self):
        domain = IntegerDomain(0, 10)
        assert domain.clamp(3.6) == 4
        assert domain.clamp(99) == 10

    def test_validate_rejects_non_integer(self):
        domain = IntegerDomain(0, 10)
        with pytest.raises(TuningError):
            domain.validate(3.5)

    def test_neighbors_scale_with_width(self):
        domain = IntegerDomain(0, 100, step=2)
        assert domain.neighbors(50, 1.0) == [52, 48]
        assert domain.neighbors(50, 3.0) == [56, 44]
        # Width below one base step still moves by at least the step.
        assert domain.neighbors(50, 0.1) == [52, 48]


class TestKnob:
    def test_current_falls_back_to_default_when_unbound(self):
        knob = Knob(name="x", domain=IntegerDomain(0, 4), default=2)
        assert knob.current() == 2

    def test_current_reads_and_clamps(self):
        knob = Knob(
            name="x",
            domain=IntegerDomain(0, 4),
            default=2,
            read=lambda: 99,
        )
        assert knob.current() == 4


class TestKnobSpace:
    def space(self):
        return KnobSpace([
            Knob(name="a", domain=ContinuousDomain(0.0, 1.0, step=0.1), default=0.5),
            Knob(name="b", domain=IntegerDomain(1, 8), default=4),
        ])

    def test_registration_order_is_canonical(self):
        space = self.space()
        assert space.names() == ("a", "b")
        assert [k.name for k in space] == ["a", "b"]

    def test_duplicate_registration_rejected(self):
        space = self.space()
        with pytest.raises(TuningError):
            space.register(
                Knob(name="a", domain=IntegerDomain(0, 1), default=0)
            )

    def test_apply_rejects_unbound_and_unknown(self):
        applied = {}
        space = self.space()
        space.register(
            Knob(
                name="c",
                domain=IntegerDomain(0, 10),
                default=5,
                apply=lambda v: applied.setdefault("c", v),
            )
        )
        assert space.apply({"c": 8.4}) == ["c"]
        assert applied == {"c": 8}
        # A vector naming an unbound or unknown knob applies nothing.
        for vector in ({"a": 0.7, "c": 3}, {"nope": 1, "c": 3}):
            with pytest.raises(TuningError):
                space.apply(vector)
        assert applied == {"c": 8}


class TestStockKnobs:
    def test_all_layers_covered(self):
        layers = {name.split(".")[0] for name in KNOBS}
        assert layers == {"core", "runtime", "admission"}

    def test_defaults_valid(self):
        space = default_knob_space()
        assert space.names() == tuple(KNOBS)
        for knob in space:
            knob.domain.validate(knob.default)
            assert knob.current() == knob.default

    def test_stock_knob_binds_hooks(self):
        seen = {}
        knob = KNOBS["core.decay"].bind(
            read=lambda: 0.8,
            apply=lambda v: seen.setdefault("v", v),
        )
        assert knob.current() == 0.8
        knob.apply(0.7)
        assert seen == {"v": 0.7}
        assert KNOBS["core.decay"].apply is None

    def test_unknown_stock_name(self):
        with pytest.raises(TuningError):
            default_knob_space(("core.decay", "core.nonsense"))

    def test_subset_space(self):
        space = default_knob_space(("core.decay", "core.d_start"))
        assert space.names() == ("core.decay", "core.d_start")

    def test_default_space_cannot_apply(self):
        # The replay-only space has nothing to push a vector into.
        space = default_knob_space()
        with pytest.raises(TuningError):
            space.apply({"core.decay": 0.5})

    def test_replay_reads_every_table_knob(self):
        # A knob the cost model never reads cannot be ranked by any
        # search: every table entry must have a term in the replay.
        class Recording(dict):
            def __init__(self, values):
                super().__init__(values)
                self.read = set()

            def __getitem__(self, name):
                self.read.add(name)
                return super().__getitem__(name)

            def get(self, name, default=None):
                self.read.add(name)
                return super().get(name, default)

        tracked = [
            TrackedQuery(
                group_id=i, name=f"q{i}", scale_factor=1.0,
                arrival_offset=0.01 * i, work=0.004 * (i + 1),
            )
            for i in range(6)
        ]
        values = Recording(default_knob_space().current_values())
        replay_workload(tracked, values)
        assert values.read == set(KNOBS)
