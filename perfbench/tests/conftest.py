"""Make the benchmark's modules importable as top-level modules, the way
``perfbench/run.py`` imports them, and the program under test from the
checkout's ``src``."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))
