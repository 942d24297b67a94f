"""The CLI contract, fuzzed: every subcommand under random flags.

Each call passes 0-5 flags, each with a typical value of its own or an
extreme one (zeros, the smallest subnormal, huge and non-finite values,
negatives). The pipeline under test is correct, so:

- no call raises past ``main``;
- exit 2 prints one ``error:`` line to stderr, and nothing to stdout,
  and writes no file;
- exit 0 prints no nan or inf, in its output or in a written file;
- exit 1 comes only from a failing check: validate's statistical bounds
  can fail a correct run on a tiny ensemble, but no rounding gate fails,
  and a scan that may overflow (``--chi2 1e200``: the k = 1 rounding
  residue of the E^2 term squared) exits 2;
- no call leaves a numpy warning.

The examples are derandomized, so every run replays the same calls.
"""

import re
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from opasim.cli import main
from opasim.figures import FIGURE_NAMES

EXTREMES = ["0", "-0", "5e-324", "1e-300", "1e200", "1.7e308", "nan", "inf", "-inf", "-1", "-2.5"]

# small grids and ensembles keep a call to a few milliseconds; the large
# finite values round far above 1e-9 of a unit in spectrum's bins
TYPICAL = {
    "--chi1": ["1", "0.7", "2"],
    "--chi2": ["0.5", "-0.4", "0.9", "1e8"],
    "--chi3": ["0.05", "-0.1"],
    "--eps0": ["1", "2.5"],
    "--A": ["0", "0.5", "1.5", "1e3", "1e6"],
    "--phi-deg": ["30", "200"],
    "--B": ["1", "0.3", "1e3", "1e5", "1e8"],
    "--pump-phase-deg": ["37", "90", "360"],
    "--samples-per-period": ["9", "13", "32"],
    "--n-periods": ["1", "3"],
    "--n-realizations": ["3", "100", "1000"],
    "--seed": ["1", "9", "18446744073709551615"],
    "--var-zp": ["1", "2.5", "1e10"],
    "--thetas": ["3", "61"],
    "--mode": ["raw", "symplectic"],
    "--band-sigma": ["1", "2"],
}
WORKERS = {"--workers": ["1", "2"]}
SPECTRUM_FLAGS = [
    "--chi1", "--chi2", "--chi3", "--eps0", "--A", "--phi-deg", "--B", "--pump-phase-deg",
    "--samples-per-period", "--n-periods",
]

COMMANDS = ["spectrum", "scan", "figure", "oracle", "validate", "config"]

# validate's checks that a correct run can fail: an n-sigma bound of the ensemble
SCAN_FAILURE = re.compile(r"FAIL (vacuum-scan-flat|heisenberg-symplectic): .*sigma bound")


@st.composite
def calls(draw):
    command = draw(st.sampled_from(COMMANDS))
    argv = [command, "--n-realizations", "300"]
    flags = TYPICAL
    if command == "figure":
        # most figures need a coherent input
        argv[1:1] = [draw(st.sampled_from(FIGURE_NAMES)), "--A", "1"]
    if command in ("scan", "figure"):
        flags = dict(TYPICAL, **WORKERS)
    if command == "spectrum":
        # spectrum reads one draw of the medium and the fields, nothing else
        flags = {name: flags[name] for name in SPECTRUM_FLAGS}
    names = draw(st.lists(st.sampled_from(sorted(flags)), max_size=5, unique=True))
    for name in names:
        # one value in four extreme, so that most calls get past the config
        extreme = draw(st.integers(0, 3)) == 0
        argv += [name, draw(st.sampled_from(EXTREMES if extreme else flags[name]))]
    return argv


def _run(argv, tmp_path, capsys):
    """(code, stdout, stderr, written files, warnings) of one in-process call."""
    outdir = tmp_path / "out"
    outdir.mkdir()
    if argv[0] == "scan":
        argv = [*argv, "-o", str(outdir / "scan.csv")]
    elif argv[0] == "figure":
        argv = [*argv, "--outdir", str(outdir)]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag's value
            code = exc.code
    out, err = capsys.readouterr()
    files = [path.read_text() for path in sorted(outdir.iterdir())]
    return code, out, err, files, [str(w.message) for w in caught]


@settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=calls())
def test_every_subcommand_keeps_the_contract(argv, tmp_path_factory, capsys):
    _keeps_the_contract(argv, *_run(argv, tmp_path_factory.mktemp("call"), capsys))


def _keeps_the_contract(argv, code, out, err, files, caught):
    assert caught == [], argv
    if code == 2:
        assert out == "" and files == [], argv
        assert [line for line in err.splitlines() if "error:" in line] == [
            err.splitlines()[-1]
        ], (argv, err)
    elif code == 0:
        for text in (out, err, *files):
            assert not re.search(r"nan|inf", text, re.IGNORECASE), (argv, text)
    else:
        assert code == 1 and argv[0] == "validate", (argv, out)
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert failed and all(SCAN_FAILURE.match(line) for line in failed), (argv, out)


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--chi2", "1e200"],
        ["spectrum", "--B", "5e-324"],
        ["validate", "--B", "1e200"],
        ["validate", "--chi2", "1e200"],
        ["scan", "--chi2", "1e150", "--B", "0"],
    ],
    ids=" ".join,
)
def test_calls_the_fuzz_found(argv, tmp_path, capsys):
    result = _run(argv, tmp_path, capsys)
    assert result[0] == (0 if argv[0] == "spectrum" else 2)
    _keeps_the_contract(argv, *result)
