"""Golden digests of the work-sharing bit-identity scenario.

``benchmarks/sharing_determinism.py`` hashes every query's result rows
for workload seeds 0..2 with sharing off and on.  The simulated
backend's digests and fold counters are held in
``sharing_digests.json``; every backend the script runs must reproduce
them with ``==``, the process backend included.  A behaviour change
regenerates the file in the same change and says why::

    PYTHONPATH=src python -m tests.golden.test_sharing_digests --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from benchmarks import sharing_determinism as scenario

GOLDEN = Path(__file__).with_name("sharing_digests.json")
REGENERATE = "PYTHONPATH=src python -m tests.golden.test_sharing_digests --write"
SEEDS = (0, 1, 2)


def _database():
    from repro.engine import generate_tpch

    return generate_tpch(scale_factor=scenario.SCALE_FACTOR, seed=7)


def measure(database, backend: str = "simulated") -> dict:
    out = {}
    for seed in SEEDS:
        row = scenario.measure(seed, database, backend)
        assert not row.pop("mismatches"), f"seed {seed}: sharing changed results"
        out[str(seed)] = row
    return out


@pytest.fixture(scope="module")
def database():
    return _database()


@pytest.mark.parametrize("backend", scenario.BACKENDS)
def test_sharing_digests_match_the_golden(database, backend):
    golden = json.loads(GOLDEN.read_text())
    measured = json.loads(json.dumps(measure(database, backend)))
    moved = [
        f"seed {seed} {key}: golden {golden[seed][key]!r}, now {value!r}"
        for seed, row in measured.items()
        for key, value in row.items()
        if golden[seed][key] != value
    ]
    assert not moved and golden == measured, (
        f"{backend} sharing digests moved: " + "; ".join(moved)
        + f".  If the change is meant to alter behaviour, regenerate with "
        f"`{REGENERATE}` and say why in the change."
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {REGENERATE}")
    GOLDEN.write_text(
        json.dumps(measure(_database()), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")
