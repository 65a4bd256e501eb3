"""The lock-free, self-tuning stride scheduler (Sections 2-4).

This is the paper's headline system.  Structure of one worker decision,
matching §2.3:

1. *Pull updates*: drain the worker's change/return masks and fold new
   task sets into the local activity mask, pass values and priorities.
2. *Pick*: choose the locally active slot with minimal pass value.
3. *Publish*: write the decision into the global state array (before the
   atomic read of the slot pointer — the ordering the finalization
   protocol relies on).
4. *Read and validate*: atomically read the slot's tagged pointer.  An
   invalid pointer means the task set finished; disable the slot locally
   and pick again (lazy repair, no notification needed).
5. *Execute*: run one task — the adaptive morsel executor carves morsels
   until the target duration ``t_max`` is exhausted.
6. *Account*: advance the slot pass by ``f * stride`` (``f`` = duration /
   time slice), advance the worker's global pass, charge the priority
   decay, and handle the finalization protocol when the task set ran dry.

Admission puts each query's resource group into a free global slot, or —
when all ``slot_capacity`` slots are taken — into the preceding wait
queue (bounded-memory graceful degradation, §2.3).  Task-set updates are
pushed into all workers at low load and into a linearly shrinking subset
once more than half the slots are occupied, down to a single worker at
full occupancy (the "Coping With High Load" optimization).

With ``tuning_enabled`` the scheduler periodically tracks one worker and
re-optimizes the priority-decay parameters by simulating itself on the
tracked workload (Section 4); see :mod:`repro.tuning`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.core.decay import DEFAULT_P0, DecayParameters
from repro.core.resource_group import ResourceGroup
from repro.core.scheduler_base import SchedulerBase, SchedulerConfig, TaskDecision
from repro.core.slots import GlobalSlotArray
from repro.core.task import TaskSet
from repro.core.worker import WorkerLocalState
from repro.errors import SchedulerError, WorkerDiedError

#: Global-state-array entry kinds.
_RUNNING = "task"
_FINAL_MARKER = "final"


class StrideScheduler(SchedulerBase):
    """Lock-free stride scheduling with adaptive priorities (§2-§4)."""

    name = "stride"

    #: Subclasses (the fair baseline) pin every priority to p0.
    fixed_priorities = False

    def __init__(self, config: SchedulerConfig) -> None:
        super().__init__(config)
        self._slots = GlobalSlotArray(config.slot_capacity)
        self._locals: List[WorkerLocalState] = [
            WorkerLocalState(worker_id, config.slot_capacity)
            for worker_id in range(config.n_workers)
        ]
        #: Global state array: what every worker is currently running.
        #: Entries are ``None`` or ``(kind, slot, task_set)``.
        self._worker_running: List[Optional[Tuple[str, int, TaskSet]]] = [
            None
        ] * config.n_workers
        #: Aliases of each worker's update-mask word lists (the bitmasks
        #: mutate the lists in place, so the aliases stay current).  Used
        #: for the relaxed has-updates probe in worker_decide.
        self._change_words = [local.change_mask._words for local in self._locals]
        self._return_words = [local.return_mask._words for local in self._locals]
        self._t_max = config.t_max
        #: Whether worker_decide may call the min-pass heap pick directly
        #: (subclasses overriding _pick_slot — the lottery policy — keep
        #: the virtual call).
        self._default_pick = type(self)._pick_slot is StrideScheduler._pick_slot
        self._decay_params = config.effective_decay()
        self._tuner = None
        if config.tuning_enabled:
            # Imported lazily to avoid a core <-> tuning import cycle.
            from repro.tuning.controller import TuningController

            self._tuner = TuningController(
                scheduler=self,
                tracking_duration=config.tracking_duration,
                refresh_duration=config.refresh_duration,
                objective=config.tuning_objective,
                tuning_budget=config.tuning_budget,
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def slots(self) -> GlobalSlotArray:
        """The global slot array (exposed for tests and experiments)."""
        return self._slots

    @property
    def workers(self) -> List[WorkerLocalState]:
        """Per-worker local scheduling state."""
        return self._locals

    @property
    def decay_parameters(self) -> DecayParameters:
        """The currently active decay parameters."""
        return self._decay_params

    @property
    def tuner(self):
        """The self-tuning controller, if enabled."""
        return self._tuner

    def set_decay_parameters(self, params: DecayParameters) -> None:
        """Broadcast newly tuned parameters into every worker (§4).

        In the real system the parameters are pushed into the workers; in
        the sequential simulation we update all thread-local decay states
        directly, recomputing each priority from the closed form.
        """
        self._decay_params = params
        for local in self._locals:
            # list(): workers may insert slot states concurrently under
            # the threaded backend (dict iteration would raise).
            for state in list(local.slot_states.values()):
                state.decay.update_parameters(params)
            # After the re-pricing: a worker summing concurrently read the
            # old epoch, so its cached priority sum is discarded.
            local.decay_epoch += 1

    # ------------------------------------------------------------------
    # Admission (§2.3: bounded slots + wait queue)
    # ------------------------------------------------------------------
    def admit(self, group: ResourceGroup, now: float) -> None:
        lock = self._admission_lock
        if lock is None:
            self.admitted_count += 1
            if self._slots.has_free_slot():
                group.admit_time = now
                self._install_group(group)
            else:
                self.wait_queue.append(group)
            return
        with lock:
            self.admitted_count += 1
            if self._slots.has_free_slot():
                group.admit_time = now
                self._install_group(group)
            else:
                self.wait_queue.append(group)

    def _install_group(self, group: ResourceGroup) -> None:
        """Bind a resource group to a slot and publish its first task set."""
        slot = self._slots.acquire(group)
        first_task_set = group.activate_next_task_set()
        if first_task_set is None:
            raise SchedulerError(f"query {group.query.name!r} has no task sets")
        self._slots.store_task_set(slot, first_task_set)
        self._push_updates(slot, new_group=True)

    # ------------------------------------------------------------------
    # Update-mask fan-out (§2.3, "Coping With High Load")
    # ------------------------------------------------------------------
    def _update_targets(self, slot: int) -> List[int]:
        """Workers that get notified about a task-set update in ``slot``."""
        n_workers = self.n_workers
        capacity = self._slots.capacity
        occupied = self._slots.occupied
        if not self.config.restrict_fanout or occupied * 2 <= capacity:
            return list(range(n_workers))
        half = capacity - capacity // 2
        fraction = max(0.0, (capacity - occupied) / half)
        count = max(1, math.ceil(n_workers * fraction))
        start = slot % n_workers
        return [(start + i) % n_workers for i in range(count)]

    def _push_updates(self, slot: int, new_group: bool) -> None:
        """Fetch-or the slot bit into the targets' change/return masks."""
        for worker_id in self._update_targets(slot):
            local = self._locals[worker_id]
            mask = local.change_mask if new_group else local.return_mask
            mask.set_bit(slot)
            self.overhead.charge_mask_updates(1)
            self.wake(worker_id)

    def _pull_updates(self, local: WorkerLocalState) -> None:
        """Drain the worker's update masks into its local state.

        When no writes happened since the last drain this is a cheap
        relaxed check (no atomic exchange, no cache invalidation).
        """
        has_changes = local.change_mask.any_set()
        has_returns = local.return_mask.any_set()
        if not has_changes and not has_returns:
            return
        change_bits = local.change_mask.drain() if has_changes else []
        return_bits = local.return_mask.drain() if has_returns else []
        ops = 2  # the two atomic mask exchanges
        changed = set(change_bits)
        for slot in change_bits:
            group = self._slots.owner(slot)
            if group is not None:
                self._init_local_slot(local, slot, group)
            ops += 1
        for slot in return_bits:
            if slot in changed:
                continue
            state = local.slot_states.get(slot)
            owner = self._slots.owner(slot)
            if owner is None:
                ops += 1
                continue
            if state is not None and state.group_id == owner.query_id:
                local.return_slot(slot)
            else:
                # Missed the change event for this group (restricted
                # fan-out); initialize from scratch.
                self._init_local_slot(local, slot, owner)
            ops += 1
        self.overhead.charge_local_work(ops)

    def _init_local_slot(
        self, local: WorkerLocalState, slot: int, group: ResourceGroup
    ) -> None:
        """Event (2): set up pass value and priority for a new group."""
        query = group.query
        static_priority = query.static_priority
        if self.fixed_priorities and static_priority is None:
            static_priority = DEFAULT_P0
        user_scale = query.user_priority if query.user_priority else 1.0
        if group.fold_size != 1:
            # §3.2 for work-sharing folds: the group executes on behalf
            # of fold_size queries, so its stride share is the *sum* of
            # their shares (the weight itself is already the members'
            # max).  fold_size == 1 touches nothing — the unshared path
            # stays bit-identical.
            user_scale = user_scale * group.fold_size
        local.init_slot(
            slot,
            group.query_id,
            self._decay_params,
            user_scale=user_scale,
            static_priority=static_priority,
        )

    def _clear_running(
        self, worker_id: int
    ) -> Optional[Tuple[str, int, TaskSet]]:
        """Exchange this worker's global-state-array entry with ``None``.

        Under the threaded backend a finalization coordinator may
        concurrently replace the entry with a ``_FINAL_MARKER``; the
        exchange under the state lock guarantees exactly one side
        observes the marker (either the coordinator counted us and we
        see the marker here, or our clear happened first and the
        coordinator's scan skips us).  Sequentially this is the same
        plain read-then-clear the simulator always ran.
        """
        lock = self._state_lock
        worker_running = self._worker_running
        if lock is None:
            entry = worker_running[worker_id]
            worker_running[worker_id] = None
            return entry
        with lock:
            entry = worker_running[worker_id]
            worker_running[worker_id] = None
            return entry

    # ------------------------------------------------------------------
    # Worker decision loop (§2.3)
    # ------------------------------------------------------------------
    def _pick_slot(self, local: WorkerLocalState) -> Optional[int]:
        """Slot selection rule: minimal pass value (stride scheduling).

        The lottery variant overrides this single method — the remaining
        infrastructure stays in place, exactly as §2.3 promises.
        """
        return local.min_pass_slot()

    def worker_decide(self, worker_id: int, now: float) -> Optional[TaskDecision]:
        self._idle_workers.discard(worker_id)  # inlined mark_busy (hot path)
        local = self._locals[worker_id]
        # Relaxed emptiness probe before draining (§2.3): the common case
        # is "no updates", checked here without entering _pull_updates.
        if any(self._change_words[worker_id]) or any(self._return_words[worker_id]):
            self._pull_updates(local)
        tuner = self._tuner
        if tuner is not None and worker_id == tuner.tracked_worker:
            tuning_decision = tuner.maybe_tune(worker_id, now)
            if tuning_decision is not None:
                return tuning_decision
        # Only names used more than once per loop iteration are hoisted;
        # the loop almost always runs a single iteration, so hoisting
        # single-use attributes would cost more than it saves.
        worker_running = self._worker_running
        #: Direct tagged-pointer access: the local activity mask only ever
        #: holds slots < capacity, so the bounds check of
        #: GlobalSlotArray.read is redundant here.
        pointers = self._slots._pointers
        default_pick = self._default_pick
        while True:
            slot = local.min_pass_slot() if default_pick else self._pick_slot(local)
            if slot is None:
                self.mark_idle(worker_id)
                return None
            # Publish the decision in the global state array *before*
            # the atomic read of the slot (finalization ordering, §2.3).
            worker_running[worker_id] = (_RUNNING, slot, None)
            pointer = pointers[slot]
            task_set = pointer._payload
            if not pointer._valid or task_set is None:
                worker_running[worker_id] = None
                local.forget_slot(slot)
                continue
            worker_running[worker_id] = (_RUNNING, slot, task_set)
            group = task_set.resource_group
            state = local.slot_states.get(slot)
            if state is None or state.group_id != group.query_id:
                # Missed notification: repair local state lazily.
                self._init_local_slot(local, slot, group)
            if now > group.deadline_time:
                # Deadline expiry: fail through the abort path, then wind
                # the slot down exactly like an exhausted task set (the
                # fail drained it).  One float compare on the hot path.
                self.fail_group(group, self.deadline_error(group), now)
            elif task_set.remaining_tuples:  # inlined TaskSet.exhausted
                if task_set.lock is None:
                    task_set.pinned_workers += 1  # inlined TaskSet.pin
                else:
                    task_set.pin()
                try:
                    executed = self.executor.run_task(task_set, self._env)
                except Exception as exc:
                    # Per-query failure isolation: the raising morsel fails
                    # only this query.  Its task sets drain and the slot
                    # winds down through the §2.3 finalization protocol;
                    # the worker (and every other in-flight query) carries on.
                    if task_set.lock is None:
                        task_set.pinned_workers -= 1  # inlined TaskSet.unpin
                    else:
                        task_set.unpin()
                    self.fail_group(group, exc, now)
                    if isinstance(exc, WorkerDiedError):
                        # The worker itself is dying: the query is already
                        # failed and the protocol state is consistent, so
                        # the hosting backend can retire the worker.
                        self._wind_down(worker_id, local, slot, task_set, now)
                        raise
                else:
                    if executed.morsel_count:
                        if self.trace.enabled:
                            self.record_task_trace(worker_id, now, executed)
                        if self._state_lock is None:
                            self.tasks_executed += 1
                        else:
                            with self._state_lock:
                                self.tasks_executed += 1
                        return TaskDecision(
                            worker_id, _RUNNING, executed.duration, slot, executed, group
                        )
                    # Raced to exhaustion between the read and the carve.
                    task_set.unpin()
            # The task set is drained (or its query just failed).
            extra = self._wind_down(worker_id, local, slot, task_set, now)
            if extra > 0.0:
                return TaskDecision(
                    worker_id=worker_id,
                    kind="finalize",
                    duration=extra,
                    slot=slot,
                    group=group,
                )

    # ------------------------------------------------------------------
    # Task completion
    # ------------------------------------------------------------------
    def worker_finish(self, worker_id: int, now: float, decision: TaskDecision) -> float:
        if decision.kind != "task":
            return 0.0
        executed = decision.executed
        if executed is None:
            raise SchedulerError("task decision without executed task")
        task_set = executed.task_set
        slot = decision.slot
        local = self._locals[worker_id]
        group = task_set.resource_group
        duration = executed.duration

        entry = self._clear_running(worker_id)
        if task_set.lock is None:
            # Inlined TaskSet.unpin: worker_decide pinned this task set,
            # so the pin count is always positive here.
            task_set.pinned_workers -= 1
        else:
            task_set.unpin()

        # --- accounting: busy time, CPU charge, stride pass, decay ----
        # (charge_busy / charge_cpu inlined: this runs once per task.)
        if self._state_lock is None:
            self.overhead.busy_seconds += duration
            group.cpu_seconds += duration
        else:
            with self._state_lock:
                self.overhead.busy_seconds += duration
            group.charge_cpu(duration)
        state = local.slot_states.get(slot)
        if state is not None and state.group_id == group.query_id:
            decay = state.decay
            held = decay.priority
            priority = decay.charge(duration)
            local.advance(slot, state, duration / self._t_max, priority, priority != held)
        tuner = self._tuner
        if tuner is not None and worker_id == tuner.tracked_worker:
            tuner.record_task(worker_id, group, duration, now)

        extra = 0.0
        # --- finalization marker handling (§2.3) -----------------------
        if entry is not None and entry[0] is _FINAL_MARKER:
            self.overhead.charge_finalization(1)
            if task_set.finalization_counter.add_and_fetch(-1) == 0:
                extra += self._run_finalization(slot, task_set, now)
        # --- did this task drain the task set? -------------------------
        if executed.exhausted_work and not task_set.finalization_started:
            extra += self._notice_exhausted(slot, task_set, now)
        return extra

    # ------------------------------------------------------------------
    # Finalization protocol (§2.3)
    # ------------------------------------------------------------------
    def _wind_down(
        self, worker_id: int, local: WorkerLocalState, slot: int, task_set: TaskSet, now: float
    ) -> float:
        """Release a drained (exhausted, failed or timed-out) slot via §2.3.

        Clear this worker's entry and deactivate the slot.  If a concurrent
        coordinator counted this worker while its entry was published,
        act as a marked worker; otherwise coordinate the finalization.
        """
        entry = self._clear_running(worker_id)
        local.deactivate(slot)
        if entry is not None and entry[0] is _FINAL_MARKER:
            self.overhead.charge_finalization(1)
            if task_set.finalization_counter.add_and_fetch(-1) == 0:
                return self._run_finalization(slot, task_set, now)
            return 0.0
        return self._notice_exhausted(slot, task_set, now)

    def _notice_exhausted(self, slot: int, task_set: TaskSet, now: float) -> float:
        """First worker to notice an empty task set coordinates finalization."""
        if task_set.finalization_started:
            return 0.0
        if not self._slots.tag_invalid(slot, task_set):
            return 0.0  # lost the race, or the slot already holds a successor
        if not task_set.begin_finalization():
            return 0.0
        count = 0
        worker_running = self._worker_running
        state_lock = self._state_lock
        if state_lock is None:
            for other_id in range(self.n_workers):
                entry = worker_running[other_id]
                if entry is not None and entry[0] is _RUNNING and entry[2] is task_set:
                    worker_running[other_id] = (_FINAL_MARKER, slot, task_set)
                    count += 1
        else:
            # The scan-and-mark must be atomic with respect to workers
            # clearing their entries (_clear_running): otherwise a
            # worker could exit between being counted and being marked,
            # leaving the finalization counter stranded above zero.
            with state_lock:
                for other_id in range(self.n_workers):
                    entry = worker_running[other_id]
                    if (
                        entry is not None
                        and entry[0] is _RUNNING
                        and entry[2] is task_set
                    ):
                        worker_running[other_id] = (_FINAL_MARKER, slot, task_set)
                        count += 1
        # The coordinator scans the whole state array once.
        self.overhead.charge_finalization(self.n_workers)
        if task_set.finalization_counter.add_and_fetch(count) == 0:
            return self._run_finalization(slot, task_set, now)
        return 0.0

    def _run_finalization(self, slot: int, task_set: TaskSet, now: float) -> float:
        """The last worker on a task set runs its finalization logic."""
        task_set.mark_finalized()
        group = task_set.resource_group
        cost = task_set.profile.finalize_seconds
        if cost > 0.0:
            self.overhead.charge_busy(cost)
            group.charge_cpu(cost)
        next_task_set = group.activate_next_task_set()
        if next_task_set is not None:
            self._slots.store_task_set(slot, next_task_set)
            self._push_updates(slot, new_group=False)
            return cost
        lock = self._admission_lock
        if lock is None:
            self.record_completion(group, now)
            self._slots.release(slot)
            self._install_waiting(now)
            return cost
        # Concurrent variant: slot release and wait-queue pop must be
        # atomic with respect to admissions; the completion record (and
        # its on_complete callback) is emitted outside the lock so slow
        # result materialisation never blocks submitting threads.
        # (Expired waiters are recorded inside the lock — the same
        # precedent as cancel_group, which also records while holding it.)
        with lock:
            self._slots.release(slot)
            self._install_waiting(now)
        self.record_completion(group, now)
        return cost

    def _install_waiting(self, now: float) -> None:
        """Give a freed slot to the first waiting group still in time."""
        while self.wait_queue:
            waiting = self.wait_queue.popleft()
            if now > waiting.deadline_time:
                # Expired while waiting: fail it on the spot instead of
                # wasting the freed slot on a guaranteed timeout.
                waiting.fail(self.deadline_error(waiting))
                self.record_completion(waiting, now)
                continue
            waiting.admit_time = now
            self._install_group(waiting)
            return
