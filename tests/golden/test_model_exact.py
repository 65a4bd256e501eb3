"""Exact-quantity golden of the simulated-model workloads.

Every ``virt_*`` value, event count, protocol-op count and record digest
the repository benchmark reports for the four workloads that run on the
simulated model must repeat bit for bit.  This test reruns them at seed 1
and scale 0.1 (about two seconds in all) and compares with
``model_exact_seed1.json`` by ``==``.  Each workload's entry also holds a
transcript of the tuners' simulations: the call count and one SHA-256
over every call of ``replay_cost`` and ``simulate_policy_pairs`` as
``repro.tuning.optimizer`` binds them, each call hashed as its workload's
digest, its positional arguments (knob vector or decay parameters,
quantum) and its result.  Keyword arguments are not recorded.  A
behaviour change regenerates the file in the same change and says why::

    PYTHONPATH=src python -m tests.golden.test_model_exact --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

GOLDEN = Path(__file__).with_name("model_exact_seed1.json")
WORKLOADS = ("kernel_sim", "cluster_tenants", "lifecycle_churn", "tune_cycles")
SEED = 1
SCALE = 0.1
REGENERATE = "PYTHONPATH=src python -m tests.golden.test_model_exact --write"
#: The simulations transcribed, by their name in ``repro.tuning.optimizer``.
TRANSCRIBED = ("replay_cost", "simulate_policy_pairs")


@contextmanager
def transcripts():
    """Wrap :data:`TRANSCRIBED`; yield ``{name: [calls, sha256]}``."""
    from repro.tuning import optimizer

    seen = {}

    def wrap(name, fn):
        calls = seen[name] = [0, hashlib.sha256()]

        def wrapper(tracked, *args, **kwargs):
            result = fn(tracked, *args, **kwargs)
            workload = hashlib.sha256(repr(list(tracked)).encode()).hexdigest()
            record = [getattr(a, "__name__", a) for a in args]
            calls[0] += 1
            calls[1].update(repr((workload, record, result)).encode())
            return result

        return wrapper

    originals = {name: getattr(optimizer, name) for name in TRANSCRIBED}
    for name, fn in originals.items():
        setattr(optimizer, name, wrap(name, fn))
    try:
        yield seen
    finally:
        for name, fn in originals.items():
            setattr(optimizer, name, fn)


def measure() -> dict:
    """``rep.exact`` of every golden workload, as JSON would store it."""
    from benchmarks.suite import workloads
    from benchmarks.suite.trace import NullTracer

    exact = {}
    for name in WORKLOADS:
        module = workloads.load(name)
        tracer = NullTracer()
        ctx = module.setup(SEED, SCALE, tracer)
        try:
            with transcripts() as seen:
                exact[name] = dict(module.run(ctx, tracer).exact)
        finally:
            module.teardown(ctx)
        for fn_name, (calls, sha) in seen.items():
            exact[name][f"transcript.{fn_name}"] = [calls, sha.hexdigest()]
    # Through JSON so tuples compare as the lists the file holds.
    return json.loads(json.dumps(exact))


def test_model_exact_quantities_match_the_golden():
    golden = json.loads(GOLDEN.read_text())
    measured = measure()
    moved = [
        f"{name}.{key}: golden {golden[name].get(key)!r}, now {value!r}"
        for name, exact in measured.items()
        for key, value in exact.items()
        if golden.get(name, {}).get(key) != value
    ]
    missing = [
        f"{name}.{key}"
        for name, exact in golden.items()
        for key in exact
        if key not in measured.get(name, {})
    ]
    assert not moved and not missing, (
        "exact quantities moved: " + "; ".join(moved + missing)
        + f".  If the change is meant to alter behaviour, regenerate with "
        f"`{REGENERATE}` and say why in the change."
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {REGENERATE}")
    GOLDEN.write_text(json.dumps(measure(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
