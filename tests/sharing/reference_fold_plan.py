"""The simulated backend's fold planner before the fold coordinator.

This is ``SimulatedBackend._plan_folds`` as it stood when the backend
made its own fold decisions, with the ``max_fold_priority`` helper it
called inlined.  Slow and private by design —
``tests/sharing/test_fold_plan_reference.py`` compares the
coordinator-driven plan against it with ``==``.
"""

from dataclasses import replace

from repro.sharing import MISS, spec_fingerprint


def max_fold_priority(specs):
    weights = [
        spec.user_priority for spec in specs if spec.user_priority is not None
    ]
    if not weights:
        return None
    return max(weights + [1.0])


def plan_folds(backend, pending, finished, attach_buffer):
    """``(run, folds)`` for one epoch; ``folds`` maps each leader's job
    id to ``(fingerprint, [(job id, spec, arrival), ...])``."""
    stats = backend.sharing_stats
    cache = backend._fragment_cache if backend._environment_factory else None
    run = []
    folds = {}
    leader_of = {}
    for arrival, spec, job_id in pending:
        if "noshare" in spec.tags:
            run.append((arrival, spec, job_id))
            continue
        fp = spec_fingerprint(spec)
        if cache is not None:
            chunks = cache.get(fp)
            if chunks is not MISS:
                record = backend._synthetic_record(spec, arrival, arrival)
                finished.append(backend._settle(job_id, record, chunks=chunks))
                continue
        index = leader_of.get(fp)
        if index is None:
            leader_of[fp] = len(run)
            folds[job_id] = (fp, [])
            run.append((arrival, spec, job_id))
            continue
        attached = folds[run[index][2]][1]
        if len(attached) >= attach_buffer:
            stats.replay_fallbacks += 1
            run.append((arrival, spec, job_id))
        else:
            attached.append((job_id, spec, arrival))
            stats.attached_queries += 1
    for index in leader_of.values():
        arrival, spec, job_id = run[index]
        attached = folds[job_id][1]
        if not attached:
            continue
        stats.folds += 1
        priority = max_fold_priority(
            [spec] + [m_spec for _, m_spec, _ in attached]
        )
        changes = {"tags": spec.tags + (f"fold:{1 + len(attached)}",)}
        if priority is not None:
            changes["user_priority"] = priority
        run[index] = (arrival, replace(spec, **changes), job_id)
    return run, folds
