"""Counter-based Gaussian noise source for reproducible ensembles.

Draw j of stream ``seed`` is the j-th output of a SplitMix64 sequence
started at ``seed``: out(j) = mix64(seed + (j+1)*GOLDEN). Because any
output is computable directly from its index, realizations can be
generated in any order and in any chunking, and the ensemble is always
bitwise identical. Standard normals come from the Box-Muller transform on
pairs of consecutive outputs.

The generator is deliberately self-contained (no dependence on library
RNG streams) so that frozen test values survive library upgrades.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53_SCALE = 2.0**-53

# rows per sampling block: the block's temporaries stay in cache, and a
# large draw holds little more than its result
_BLOCK = 4096


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output permutation (finalizer), elementwise on uint64."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def raw_uint64(seed: int, index: np.ndarray | int) -> np.ndarray:
    """uint64 output(s) at the given draw index(es) of stream ``seed``."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    idx = np.asarray(index, dtype=np.uint64)
    # 0-d inputs would take numpy's warning-prone scalar path; keep 1-d
    out = _mix64(np.uint64(seed) + (np.atleast_1d(idx) + np.uint64(1)) * _GOLDEN)
    return out.reshape(idx.shape)


def _to_open_unit(x: np.ndarray) -> np.ndarray:
    # top 53 bits, offset by half a step: values lie strictly inside (0, 1)
    return ((x >> np.uint64(11)).astype(np.float64) + 0.5) * _U53_SCALE


def standard_normal_pairs(seed: int, start: int, count: int) -> np.ndarray:
    """Rows ``start .. start+count-1`` of the stream's N(0,1) pair table.

    Row i is Box-Muller applied to draws (2i, 2i+1), so row content
    depends only on (seed, i). Returns an array of shape (count, 2),
    filled _BLOCK rows at a time with the same elementwise operations.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    out = np.empty((count, 2))
    for lo in range(0, count, _BLOCK):
        hi = min(lo + _BLOCK, count)
        rows = np.arange(start + lo, start + hi, dtype=np.uint64)
        u1 = _to_open_unit(raw_uint64(seed, rows * np.uint64(2)))
        u2 = _to_open_unit(raw_uint64(seed, rows * np.uint64(2) + np.uint64(1)))
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = (2.0 * np.pi) * u2
        np.multiply(radius, np.cos(angle), out=out[lo:hi, 0])
        np.multiply(radius, np.sin(angle), out=out[lo:hi, 1])
    return out
