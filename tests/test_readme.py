"""The README's library example runs, and the names, labels and sections it gives exist."""

import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import pytest

import opasim
from opasim.cli import main

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


def test_the_package_exports_exactly_the_example_names():
    imported = re.search(r"from opasim import \(?([\w\s,]+)\)?\n", _library_example())
    names = {name.strip() for name in imported.group(1).split(",")}
    assert sorted(opasim.__all__) == sorted(names)


def _qualified_names() -> list[str]:
    """Every `module.name` (or `module.Class.attr`) the README names in code spans."""
    modules = {info.name for info in pkgutil.iter_modules(opasim.__path__)}
    spans = re.findall(r"`(\w+(?:\.\w+)+)(?:\([^`]*\))?`", README.read_text())
    return sorted({span for span in spans if span.split(".")[0] in modules})


def test_every_qualified_name_resolves():
    names = _qualified_names()
    assert len(names) >= 10
    for name in names:
        module, *attrs = name.split(".")
        target = importlib.import_module(f"opasim.{module}")
        for attr in attrs:
            assert hasattr(target, attr), name
            target = getattr(target, attr)


def _oracle_labels() -> list[str]:
    """The labels of the README's "`oracle` prints" paragraph, in its order."""
    paragraph = re.search(r"^`oracle` prints .*?\n\n", README.read_text(), re.M | re.S)
    return re.findall(r"`([^`]+)`", paragraph.group(0))[1:]


def test_every_oracle_label_the_readme_quotes_is_printed(capsys):
    # A > 0 prints the amplitude gain line too; each line is "label = values"
    assert main(["oracle", "--A", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    labels = _oracle_labels()
    assert "v_min, v_max" in labels
    assert labels == [line.split(" =", 1)[0].rstrip() for line in lines]


def _section_references(text: str) -> list[str]:
    """Every quoted section the README points to: see "X", or "X" below/above."""
    flat = re.sub(r"\s+", " ", text)
    pattern = r'\b[Ss]ee "([^"]+)"|"([^"]+)" (?:below|above)\b'
    return [see or placed for see, placed in re.findall(pattern, flat)]


def _section_titles(text: str) -> set[str]:
    """The README's # headings and the labels of its bold-led paragraphs and bullets."""
    headings = re.findall(r"^#+ (.+?)\s*$", text, re.M)
    labels = re.findall(r"^(?:- )?\*\*(.+?)\.?\*\*", text, re.M)
    return set(headings) | set(labels)


def test_every_section_reference_resolves():
    text = README.read_text()
    references = _section_references(text)
    assert len(references) >= 3
    titles = _section_titles(text)
    assert [name for name in references if name not in titles] == []


def test_a_dangling_section_reference_is_caught():
    text = '# Top\n\n- **Narrow blocks.** x\n\nSee "Top", see "Narrow\nblocks", "Gone" below.\n'
    references = _section_references(text)
    assert references == ["Top", "Narrow blocks", "Gone"]
    assert [name for name in references if name not in _section_titles(text)] == ["Gone"]


SRC = Path(opasim.__file__).resolve().parent
# a quoted duration or memory figure; computed sizes in KiB/MiB are allowed
MEASURED = re.compile(r"\d\s*(?:µs|us|ms|ns|MB)\b")


def test_no_timing_or_rss_figure_is_quoted():
    # measurements belong to CHANGES.md and ROADMAP.md, with their host
    texts = {README.name: README.read_text()}
    texts |= {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert {name: MEASURED.findall(text) for name, text in texts.items()} == {
        name: [] for name in texts
    }


# a Sphinx cross-reference role; a leading ~ only shortens the rendered name
ROLE = re.compile(r":(?:func|meth|class|mod|data):`~?([\w.]+)`")


def _lookup(target, attrs) -> bool:
    for attr in attrs:
        if not hasattr(target, attr):
            return False
        target = getattr(target, attr)
    return True


def _resolves(module, name: str) -> bool:
    """Whether a reference made in module names something that exists.

    An ``opasim.``-qualified name is looked up from its longest importable
    module; any other name in the module's namespace or in a class the
    module defines.
    """
    parts = name.split(".")
    if parts[0] == "opasim":
        for cut in range(len(parts), 0, -1):
            try:
                target = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            return _lookup(target, parts[cut:])
        return False
    classes = [
        value
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]
    return any(_lookup(scope, parts) for scope in (module, *classes))


def test_every_docstring_reference_resolves():
    references = []
    for path in sorted(SRC.glob("*.py")):
        names = ROLE.findall(path.read_text())
        if names:
            module = importlib.import_module(f"opasim.{path.stem}")
            references += [(module, name) for name in names]
    assert len(references) >= 50
    dangling = [
        f"{module.__name__}: {name}"
        for module, name in references
        if not _resolves(module, name)
    ]
    assert dangling == []
