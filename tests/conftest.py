"""Shared fixtures."""

import os
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def src_env() -> dict:
    """Environment for child interpreters that import the package from src/,
    whether or not the test run itself was given ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env
