"""Bits that do not depend on the host's SIMD level or BLAS kernels.

Each case starts a child process with one environment variable set on
that child only: ``NPY_DISABLE_CPU_FEATURES`` turns off numpy's AVX-512
loops, as on a host without them, and ``OPENBLAS_CORETYPE=Nehalem`` makes
OpenBLAS use its pre-AVX kernels, which do not fuse multiply-adds. The
child must reproduce this process's bits for the stream's uniforms, the
Box-Muller angle, the 2x2 maps of a squeezed state and the closed-form
spectrum of a pumped Kerr medium. The Box-Muller
radius is left out: it takes numpy's ``log``, whose AVX-512 loop differs
from the others by one rounding on a small share of arguments, so
sampled values still depend on the host's SIMD level.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opasim
from opasim.config import RunConfig, with_overrides
from opasim.ensemble import map_pairs
from opasim.figures import figure_state
from opasim.oracle import PassGain, map_quadratures
from opasim.rng import angle_cos_sin, raw_uint64, uniforms
from opasim.spectral import predict_spectrum

N_ANGLES = 100_000

CHILD = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import test_portability as t; "
    "print(json.dumps(t.digests()))"
)


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def digests() -> dict:
    """SHA-256 of each host-independent result, and the SIMD level it ran at."""
    from numpy._core._multiarray_umath import __cpu_features__

    odd = raw_uint64(20260811, np.arange(N_ANGLES, dtype=np.uint64) * np.uint64(2) + np.uint64(1))
    # fixed pairs in (-4, 4) from integer draws: no log, no library RNG
    bits = raw_uint64(5, np.arange(2 * (4096 + 3), dtype=np.uint64)) >> np.uint64(11)
    z = (bits.astype(np.float64) * 2.0**-53 - 0.5).reshape(-1, 2) * 8.0
    # pump phase 37 degrees: the squeezed axis is tilted, so the maps
    # have off-diagonal terms
    state = figure_state("fig1b", with_overrides(RunConfig(), pump_phase_deg=37.0))
    # draws of (a, b, phi, pump_phase, chi1, chi2, chi3) up to these highs
    high = np.array([2.0, 2.0, 2 * np.pi, 2 * np.pi, 2.0, 1.0, 0.3])
    draws = high[:, None] * uniforms(7, 0, 7 * 4096).reshape(7, -1)
    lines = [x for line in predict_spectrum(*draws) for x in line]
    return {
        "angle": _sha(angle_cos_sin(odd)),
        "uniforms": _sha(uniforms(20260811, 0, N_ANGLES)),
        "state": _sha(np.stack([state.cov, state.noise])),
        "noise_map": _sha(map_pairs(z, state.noise)),
        "gain_map": _sha(map_quadratures(z, PassGain(0.5, "symplectic"), 0.6)),
        "closed_form": _sha(np.stack(np.broadcast_arrays(*lines))),
        "x86_v4": bool(__cpu_features__.get("X86_V4", False)),
    }


@pytest.mark.parametrize(
    "variable, value",
    [
        ("NPY_DISABLE_CPU_FEATURES", "AVX512_SPR AVX512_ICL X86_V4"),
        ("OPENBLAS_CORETYPE", "Nehalem"),
    ],
)
def test_child_without_avx512_or_fma_kernels_reproduces_the_bits(variable, value):
    src = str(Path(opasim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, variable: value}
    result = subprocess.run(
        [sys.executable, "-c", CHILD, str(Path(__file__).parent)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    child = json.loads(result.stdout.splitlines()[-1])
    here = digests()
    if variable == "NPY_DISABLE_CPU_FEATURES":
        # the switch took effect: the child runs numpy's AVX2 loops at most
        assert not child.pop("x86_v4")
        here.pop("x86_v4")
    assert child == here
