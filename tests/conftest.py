"""Fixtures shared by the test suite."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def src_on_child_pythonpath(monkeypatch):
    """Put this checkout's ``src`` first on PYTHONPATH, so that child
    interpreters a test starts (``python -m cbpsk.cli``) import the package
    under test even when pytest runs without PYTHONPATH set. The pytest
    ``pythonpath`` setting covers only the test process itself."""
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
