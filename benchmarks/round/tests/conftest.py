"""Make the benchmark's modules and the program under test importable.

Run these tests by explicit path (tier-1 ``testpaths`` does not include
them)::

    PYTHONPATH=src python -m pytest benchmarks/round/tests -q
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
for path in (BENCH_DIR.parents[1] / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
