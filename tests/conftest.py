"""Test-session setup: child processes (``python -m wparab.cli``) import
the package from this checkout's ``src`` even when it is not installed."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
