"""The README's library example runs, and the package exports what it uses."""

import contextlib
import io
import re
from pathlib import Path

import pytest

import opasim

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text().split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_squeezes_by_six_db():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(_library_example(), str(README), "exec"), {})
    assert float(printed.getvalue()) == pytest.approx(-6.02, abs=0.1)


def test_every_exported_name_resolves():
    assert opasim.__all__
    for name in opasim.__all__:
        assert hasattr(opasim, name), name
