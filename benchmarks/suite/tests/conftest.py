"""Self-tests of the benchmark harness.

Run by explicit path (tier-1 collects ``tests/`` only)::

    PYTHONPATH=src python -m pytest benchmarks/suite/tests -q
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

#: The subprocess tests run the workloads at the ``--smoke`` size.
from benchmarks.suite.run import SMOKE_SCALE  # noqa: E402,F401
