"""Run the tests from a checkout: subprocesses that start `python -m randfan.cli`
find the package under src/ too (pyproject's pythonpath covers this process)."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
