"""Bit-identity gate: work sharing must not change any query's result.

Runs a high-overlap engine-mode scenario twice — ``sharing=False`` and
``sharing=True`` — against the same generated database, on the
simulated backend and again on the process backend, and demands that
every per-query result row set is bit-identical across all four runs.
CI repeats the script under ``PYTHONHASHSEED`` 0..2 and several workload
seeds, so any dict- or set-iteration-order dependence in the
fold/attach/replay path shows up as a digest mismatch.  The simulated
digests of seeds 0..2 are also a committed golden
(``tests/golden/test_sharing_digests.py``).

Specs are pinned to fixed-size morsels (``supports_adaptive=False``):
adaptive sizing feeds *measured wall time* into the morsel boundaries,
which perturbs numpy's pairwise summation at the last ulp between any
two runs — sharing or not — and would make this gate flaky for reasons
unrelated to sharing.  The fold's extra share is granted through its
stride weight (scheduling passes), so fixed morsels lose nothing.

Usage::

    PYTHONPATH=src python benchmarks/sharing_determinism.py --seed 0

Exit status 0 when every run agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
from dataclasses import replace

import numpy as np

from repro.engine import generate_tpch
from repro.server import AnalyticsServer
from repro.workloads import DEFAULT_MIX_NAMES

SCALE_FACTOR = 0.02
N_QUERIES = 16
#: The simulated row is the reference every other backend must print.
BACKENDS = ("simulated", "process")


def fixed_spec(server: AnalyticsServer, name: str):
    """The named query's spec with adaptive morsel sizing pinned off."""
    spec = server.query_spec(name)
    return replace(
        spec,
        pipelines=tuple(
            replace(p, supports_adaptive=False) for p in spec.pipelines
        ),
    )


def run_scenario(database, names, sharing: bool, backend: str = "simulated"):
    """Submit the sampled queries and return per-query result reprs."""
    server = AnalyticsServer(
        scale_factor=SCALE_FACTOR,
        scheduler="stride",
        n_workers=4,
        seed=7,
        database=database,
        sharing=sharing,
        backend=backend,
    )
    tickets = [server.submit_spec(fixed_spec(server, name)) for name in names]
    server.run()
    rows = [(name, repr(server.result(t))) for name, t in zip(names, tickets)]
    return rows, server.sharing_stats.as_dict()


def sampled_names(seed: int) -> list:
    """The ``N_QUERIES`` query names workload seed ``seed`` samples."""
    rng = np.random.default_rng(seed)
    return [
        DEFAULT_MIX_NAMES[int(i)]
        for i in rng.integers(0, len(DEFAULT_MIX_NAMES), size=N_QUERIES)
    ]


def digest(rows) -> str:
    return hashlib.sha1(repr(rows).encode()).hexdigest()[:16]


def measure(seed: int, database, backend: str) -> dict:
    """Both sharing modes of one backend: rows, digests and counters."""
    names = sampled_names(seed)
    rows_off, _ = run_scenario(database, names, False, backend)
    rows_on, stats = run_scenario(database, names, True, backend)
    return {
        "queries": names,
        "off": digest(rows_off),
        "on": digest(rows_on),
        "stats": stats,
        "mismatches": [
            name
            for (name, off), (_, on) in zip(rows_off, rows_on)
            if off != on
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="workload sampling seed (CI sweeps 0..2)",
    )
    args = parser.parse_args(argv)

    database = generate_tpch(scale_factor=SCALE_FACTOR, seed=7)
    rows = {backend: measure(args.seed, database, backend) for backend in BACKENDS}
    reference = rows["simulated"]
    print(f"seed={args.seed} queries={reference['queries']}")
    print(f"sharing off digest: {reference['off']}")
    print(f"sharing on  digest: {reference['on']}")
    print(f"sharing stats     : {reference['stats']}")
    for backend in BACKENDS[1:]:
        print(f"{backend} off digest: {rows[backend]['off']}")
        print(f"{backend} on  digest: {rows[backend]['on']}")
        print(f"{backend} stats     : {rows[backend]['stats']}")
    status = 0
    for backend, row in rows.items():
        if row["mismatches"]:
            print(f"MISMATCH: {backend} results differ for {row['mismatches']}")
            status = 1
        elif any(row[key] != reference[key] for key in ("off", "on", "stats")):
            print(f"MISMATCH: {backend} row differs from the simulated row")
            status = 1
        if row["stats"]["folds"] == 0 and row["stats"]["cache_hits"] == 0:
            # A determinism gate that never folds anything gates nothing.
            print(f"MISMATCH: {backend} sharing run neither folded nor hit the cache")
            status = 1
    if status == 0:
        print("identical per-query results with sharing on and off, on every backend")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
