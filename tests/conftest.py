"""Subprocesses started by the tests import the opasim the tests import."""

import os
from pathlib import Path

import opasim

_SRC = str(Path(opasim.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    entry for entry in (_SRC, os.environ.get("PYTHONPATH")) if entry
)
