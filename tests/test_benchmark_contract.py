"""What the benchmark in perfbench/ needs from opasim still exists.

The tracer wraps opasim functions by (module, attribute) and the loop
imports names from opasim modules and runs CLI command lines. A rename
would otherwise only show as per-layer metrics that silently read zero,
or as a benchmark that cannot start or whose every operation fails. These tests read perfbench/ and never change it.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _opasim_imports():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "opasim"
            ):
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_every_traced_layer_is_a_callable(monkeypatch):
    tracing = _load(monkeypatch, "tracing")
    assert tracing.LAYERS
    for _, module, attribute, _ in tracing.LAYERS:
        target = getattr(importlib.import_module(module), attribute, None)
        assert callable(target), f"{module}.{attribute}"
    # the chunk counts and pool attribution key on these span names
    names = {name for name, *_ in tracing.LAYERS}
    assert tracing.POOL_PARENTS | {tracing.CHUNK_MARK} <= names


def test_every_traced_validate_check_exists(monkeypatch):
    # per-check busy_s metrics key on these names; a renamed check reads 0
    from opasim.validate import CHECKS

    tracing = _load(monkeypatch, "tracing")
    names = {name for name, _ in CHECKS}
    assert tracing.VALIDATE_CHECKS
    assert set(tracing.VALIDATE_CHECKS) <= names


@pytest.mark.parametrize(
    "source, module, name", list(_opasim_imports()), ids=str
)
def test_names_the_benchmark_imports_exist(source, module, name):
    parent = importlib.import_module(module)
    found = hasattr(parent, name) or importlib.util.find_spec(f"{module}.{name}")
    assert found, f"{source}: from {module} import {name}"


def test_every_benchmark_command_line_parses(monkeypatch, tmp_path):
    # every op of a workload whose flags the CLI no longer takes would fail
    from opasim import cli

    loop = _load(monkeypatch, "loop")
    assert loop.WORKLOADS
    parser = cli.build_parser()
    for name in loop.WORKLOADS:
        args = parser.parse_args(loop.cli_argv(name, 1, 1000, tmp_path))
        assert args.command == loop.WORKLOADS[name].argv[0], name


def test_chunk_is_an_int():
    from opasim.ensemble import CHUNK

    assert type(CHUNK) is int and CHUNK >= 1


def test_traced_scan_reaches_every_kernel_layer(monkeypatch, tmp_path, capsys):
    # the kernel must call its layers through the names the tracer patches;
    # one that bypassed them would read 0 in the benchmark, not fail
    from opasim import cli
    from opasim.config import RunConfig
    from opasim.ensemble import CHUNK
    from opasim.medium import channel_samples

    tracing = _load(monkeypatch, "tracing")
    tracer = tracing.Tracer()
    n = 2 * CHUNK + 1
    uninstall = tracing.install(tracer)
    try:
        argv = ["scan", "--n-realizations", str(n), "-o", str(tmp_path / "scan.csv")]
        assert cli.main(argv) == 0
    finally:
        uninstall()
    capsys.readouterr()
    metrics = tracing.layer_metrics(tracer.spans)
    # one block per span, plus the channel's centre row
    blocks = -(-n // CHUNK) + 1
    assert metrics["ensemble.synthesize_rows.calls"] == blocks
    assert metrics["ensemble.lockin_rows.calls"] == blocks
    # the channel's period of the default chi2 medium
    samples = channel_samples(RunConfig().medium)
    assert metrics["medium.transfer_values.samples"] == samples * (n + 1)
    assert metrics["rng.standard_normal_pairs.rows"] == n
