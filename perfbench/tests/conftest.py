"""Make the benchmark's modules and the program importable in its tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.load_program()
