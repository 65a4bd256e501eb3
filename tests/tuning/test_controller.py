"""Tests for the periodic tuning controller (§4, Figure 6)."""

import pytest

from repro.core import SchedulerConfig, make_scheduler
from repro.simcore import RngFactory, Simulator
from repro.tuning.controller import TuningController
from repro.workloads import generate_workload

from tests.conftest import make_query


def tuned_scheduler(tracking=0.2, refresh=0.5, n_workers=2):
    config = SchedulerConfig(
        n_workers=n_workers,
        tuning_enabled=True,
        tracking_duration=tracking,
        refresh_duration=refresh,
    )
    return make_scheduler("tuning", config)


class TestControllerValidation:
    def test_rejects_bad_durations(self):
        scheduler = make_scheduler("stride", SchedulerConfig(n_workers=1))
        with pytest.raises(ValueError):
            TuningController(scheduler, tracking_duration=0.0, refresh_duration=1.0)
        with pytest.raises(ValueError):
            TuningController(scheduler, tracking_duration=2.0, refresh_duration=1.0)

    def test_quantum_capped_for_long_windows(self):
        scheduler = make_scheduler("stride", SchedulerConfig(n_workers=1, t_max=0.002))
        controller = TuningController(
            scheduler,
            tracking_duration=100.0,
            refresh_duration=300.0,
            max_sim_steps_per_eval=1000,
        )
        assert controller.sim_quantum == pytest.approx(0.1)

    def test_quantum_defaults_to_t_max(self):
        scheduler = make_scheduler("stride", SchedulerConfig(n_workers=1, t_max=0.002))
        controller = TuningController(
            scheduler, tracking_duration=1.0, refresh_duration=3.0
        )
        assert controller.sim_quantum == pytest.approx(0.002)


class TestControllerInSimulation:
    def _run(self, duration=2.0, rate=80.0):
        scheduler = tuned_scheduler()
        mix_query_short = make_query("short", work=0.004, pipelines=1)
        mix_query_long = make_query("long", work=0.08, pipelines=1)
        from repro.workloads.mixes import QueryMix

        mix = QueryMix(entries=((mix_query_short, 0.8), (mix_query_long, 0.2)))
        rng = RngFactory(17).stream("workload")
        workload = generate_workload(mix, rate=rate, duration=duration, rng=rng)
        result = Simulator(scheduler, workload, seed=17, noise_sigma=0.0).run()
        return scheduler, result

    def test_tuning_runs_periodically(self):
        scheduler, result = self._run(duration=2.0)
        # Windows every 0.5s with 0.2s tracking: ~3-4 optimizations.
        assert len(scheduler.tuner.history) >= 2
        assert result.completed == result.admitted

    def test_only_tracked_worker_tunes(self):
        scheduler, _ = self._run()
        assert scheduler.tuner.tracked_worker == 0

    def test_parameters_broadcast(self):
        scheduler, _ = self._run()
        tuned = scheduler.tuner.history[-1].params
        assert scheduler.decay_parameters == tuned

    def test_optimization_cost_charged(self):
        scheduler, _ = self._run()
        assert scheduler.overhead.seconds["tuning"] > 0.0
        # Tuning is confined to one worker and must stay tiny relative
        # to execution (§4: < 0.01% at paper scale; generous bound here).
        assert scheduler.overhead.overhead_fraction("tuning") < 0.05

    def test_history_records_tracked_queries(self):
        scheduler, _ = self._run()
        assert all(entry.tracked_queries > 0 for entry in scheduler.tuner.history)


class TestObjectiveSelection:
    def test_controller_accepts_objective(self):
        scheduler = make_scheduler(
            "tuning",
            SchedulerConfig(
                n_workers=1,
                tuning_enabled=True,
                tracking_duration=0.2,
                refresh_duration=0.5,
                tuning_objective="p95",
            ),
        )
        assert scheduler.tuner.objective == "p95"

    def test_unknown_objective_rejected(self):
        from repro.errors import TuningError

        with pytest.raises(TuningError):
            make_scheduler(
                "tuning",
                SchedulerConfig(
                    n_workers=1, tuning_enabled=True, tuning_objective="vibes"
                ),
            )

    def test_p95_objective_runs_end_to_end(self):
        scheduler = make_scheduler(
            "tuning",
            SchedulerConfig(
                n_workers=2,
                tuning_enabled=True,
                tracking_duration=0.2,
                refresh_duration=0.5,
                tuning_objective="p95",
            ),
        )
        mix_query = make_query("short", work=0.004, pipelines=1)
        workload = [(0.001 * i, mix_query) for i in range(200)]
        result = Simulator(scheduler, workload, seed=3, noise_sigma=0.0).run()
        assert result.completed == 200
