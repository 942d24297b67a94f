"""Counter-based Gaussian noise source for reproducible ensembles.

Draw j of stream ``seed`` is the j-th output of a SplitMix64 sequence
started at ``seed``: out(j) = mix64(seed + (j+1)*GOLDEN). Because any
output is computable directly from its index, realizations can be
generated in any order and in any chunking, and the ensemble is always
bitwise identical. Standard normals come from the Box-Muller transform
(Box & Muller, Ann. Math. Stat. 29, 1958) on pairs of consecutive
outputs; :func:`uniforms` gives the outputs' uniforms in (0, 1].

Every random number in the package comes from this one stream, the
sampled ensembles and the check inputs of :mod:`opasim.validate` alike;
no library RNG is loaded. Which bits depend on the host:

- :func:`raw_uint64` is integer arithmetic; its outputs are frozen. So
  are the uniforms of :func:`uniforms`: a shift, an exact conversion, an
  add and a multiply.
- The Box-Muller angle (:func:`angle_cos_sin`) is built from integer
  shifts and masks, a 256-entry table lookup and IEEE multiplies and
  adds, which numpy never fuses. Its bits are the same at every SIMD
  level and with any libm. So are those of the 2x2 noise map
  (:func:`opasim.ensemble.map_pairs`).
- The radius sqrt(-2 log u) is not: numpy's AVX-512 ``log`` differs from
  its other loops by one rounding on a small share of arguments. Every
  sampled value carries that, so frozen sample values (the golden
  hashes) hold only for hosts with the SIMD level they were recorded on.
"""

from __future__ import annotations

import math
import threading

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53_SCALE = 2.0**-53

# the largest Box-Muller radius sqrt(-2 log u), to a rounding: no uniform
# of the stream is below 2**-54
MAX_RADIUS = math.sqrt(-2.0 * math.log(0.5 * _U53_SCALE))

# rows per sampling block: the block's buffers stay in cache, and a large
# draw holds little more than its result
_BLOCK = 4096

# row i's counters are 2*GOLDEN past row i - 1's (modulo 2**64), so a
# block's even counters are its first one plus these steps
_STEPS = np.arange(_BLOCK, dtype=np.uint64) * np.uint64(2 * int(_GOLDEN) % 2**64)
_STEPS.setflags(write=False)

# sin(2*pi*j/256) for j = 0..64, correctly rounded (200-bit mpmath);
# math.sin of the rounded argument misses one of them by more than 1 ulp
_QUARTER_SINES = (
    0.0, 0.024541228522912288, 0.049067674327418015, 0.07356456359966743,
    0.0980171403295606, 0.1224106751992162, 0.14673047445536175, 0.17096188876030122,
    0.19509032201612828, 0.2191012401568698, 0.2429801799032639, 0.26671275747489837,
    0.2902846772544624, 0.31368174039889146, 0.33688985339222005, 0.35989503653498817,
    0.3826834323650898, 0.40524131400498986, 0.4275550934302821, 0.4496113296546066,
    0.47139673682599764, 0.49289819222978404, 0.5141027441932218, 0.5349976198870973,
    0.5555702330196022, 0.5758081914178453, 0.5956993044924334, 0.6152315905806268,
    0.6343932841636455, 0.6531728429537768, 0.6715589548470184, 0.6895405447370669,
    0.7071067811865476, 0.7242470829514669, 0.7409511253549591, 0.7572088465064846,
    0.773010453362737, 0.7883464276266062, 0.8032075314806449, 0.8175848131515837,
    0.8314696123025452, 0.8448535652497071, 0.8577286100002721, 0.8700869911087115,
    0.881921264348355, 0.8932243011955153, 0.9039892931234433, 0.9142097557035307,
    0.9238795325112867, 0.9329927988347388, 0.9415440651830208, 0.9495281805930367,
    0.9569403357322088, 0.9637760657954398, 0.970031253194544, 0.9757021300385286,
    0.9807852804032304, 0.9852776423889412, 0.989176509964781, 0.99247953459871,
    0.9951847266721969, 0.9972904566786902, 0.9987954562051724, 0.9996988186962042,
    1.0,
)


def _turn_table() -> np.ndarray:
    """Read-only rows cos(2*pi*j/256), sin(2*pi*j/256) for j = 0..255.

    Built from the quarter wave by symmetry, so the zeros and ones are
    exact and every entry is correctly rounded.
    """
    half = np.array(_QUARTER_SINES + _QUARTER_SINES[-2::-1])  # j = 0..128
    sin = np.concatenate([half, -half[1:-1]])
    table = np.stack([np.roll(sin, -64), sin])
    table.setflags(write=False)
    return table


_TURNS = _turn_table()
# the angle's 53 bits k = j*2**45 + rest: j (the top 8) picks the table
# entry, the 45 below give the offset delta = 2*pi*(rest + 1/2)/2**53
_TURN_SHIFT = np.uint64(64 - 8)
_K_SHIFT = np.uint64(64 - 53)
_REST_MASK = np.uint64(2**45 - 1)
_DELTA_SCALE = 2.0 * math.pi * 2.0**-53
# Taylor coefficients in delta**2 of (sin(delta) - delta)/delta**3 and
# (cos(delta) - 1)/delta**2; 0 < delta < 2*pi/256 leaves the next terms
# below 1e-20
_SIN_TERMS = (-1.0 / 6.0, 1.0 / 120.0, -1.0 / 5040.0)
_COS_TERMS = (-1.0 / 2.0, 1.0 / 24.0, -1.0 / 720.0)


def _mix64(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SplitMix64 output permutation (finalizer), in place on uint64 z."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=scratch)
        z ^= scratch
        z *= mult
    np.right_shift(z, np.uint64(31), out=scratch)
    z ^= scratch
    return z


def raw_uint64(seed: int, index: np.ndarray | int) -> np.ndarray:
    """uint64 output(s) at the given draw index(es) of stream ``seed``."""
    _check_seed(seed)
    idx = np.asarray(index, dtype=np.uint64)
    # 0-d inputs would take numpy's warning-prone scalar path; keep 1-d
    z = np.uint64(seed) + (np.atleast_1d(idx) + np.uint64(1)) * _GOLDEN
    return _mix64(z, np.empty_like(z)).reshape(idx.shape)


def _check_rows(seed: int, start: int, count: int) -> None:
    _check_seed(seed)
    if count < 0:
        raise ValueError("count must be non-negative")
    if start < 0:
        # the counters are taken modulo 2**64 and would wrap
        raise ValueError("start must be non-negative")


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")


def _unit(draws: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """u = (k + 1/2)/2**53 of each uint64 draw into out, k its top 53 bits.

    The one map from the stream's integers to (0, 1]: k + 1/2 rounds to
    even above 2**52, so the largest k gives exactly 1. ``scratch`` is
    uint64 and as wide as draws.
    """
    np.right_shift(draws, _K_SHIFT, out=scratch)
    out[...] = scratch.view(np.int64)  # exact: under 2**53
    out += 0.5
    out *= _U53_SCALE
    return out


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms u of draws ``start .. start+count-1`` of stream ``seed``.

    u = (k + 1/2)/2**53 with k a draw's top 53 bits, in (0, 1]: the u
    whose log gives :func:`standard_normal_pairs` its radius. Each value
    depends only on (seed, index).
    """
    _check_rows(seed, start, count)
    draws = raw_uint64(seed, np.arange(start, start + count, dtype=np.uint64))
    return _unit(draws, np.empty(count), np.empty_like(draws))


_held = threading.local()


def aligned_empty(shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """An uninitialized array whose data starts on a 64-byte boundary.

    malloc aligns to 16 bytes, so where a held buffer starts within a
    cache line depended on every earlier allocation of the process, and
    numpy's AVX-512 loops run slower on rows that start off a line. The
    held sampling and kernel buffers are made here, so their speed does
    not move with unrelated code.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    raw = np.empty(nbytes + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + nbytes].view(dtype).reshape(shape)


def _buffers(width: int) -> list[np.ndarray]:
    """Views, ``width`` columns wide, of the calling thread's block buffers.

    Two rows of uint64 draws, two of uint64 scratch and eight of float64.
    Each thread keeps its own across calls, as the span kernels keep
    theirs: ``scan`` samples one 4096-row block per span, and fresh
    block-sized arrays on every call cost allocator work and page faults.
    """
    held = getattr(_held, "buffers", None)
    if held is None:
        held = _held.buffers = (
            aligned_empty((2, _BLOCK), np.uint64),
            aligned_empty((2, _BLOCK), np.uint64),
            aligned_empty((8, _BLOCK)),
        )
    return [buffer[:, :width] for buffer in held]


def _angle(draws: np.ndarray, out: np.ndarray, index: np.ndarray, work: np.ndarray) -> None:
    """cos and sin of each draw's angle into the rows of out, in place.

    The angle is 2*pi*(k + 1/2)/2**53 for k the draw's top 53 bits, that is
    2*pi*j/256 + delta. The table gives the turn j's (C, S); delta's sine p
    and cos(delta) - 1 = q are Horner polynomials, and the angle addition
    C + (C*q - S*p), S + (S*q + C*p) adds the table entry last, so only
    that sum rounds at the result's scale. ``index`` is uint64 scratch
    and ``work`` five rows of float64 scratch, all as wide as draws.
    """
    table, delta, delta2, p = work[0:2], work[2], work[3], work[4]
    np.right_shift(draws, _TURN_SHIFT, out=index)
    # j < 256, so "clip" never clips; it skips the bounds check
    np.take(_TURNS, index.view(np.int64), axis=1, out=table, mode="clip")
    np.right_shift(draws, _K_SHIFT, out=index)
    index &= _REST_MASK
    delta[...] = index.view(np.int64)  # exact: under 2**45
    delta += 0.5
    delta *= _DELTA_SCALE
    np.multiply(delta, delta, out=delta2)
    s3, s5, s7 = _SIN_TERMS
    np.multiply(delta2, s7, out=p)
    p += s5
    p *= delta2
    p += s3
    p *= delta2
    p *= delta
    p += delta
    q = delta  # delta is not needed past the sine
    c2, c4, c6 = _COS_TERMS
    np.multiply(delta2, c6, out=q)
    q += c4
    q *= delta2
    q += c2
    q *= delta2
    np.multiply(table, q, out=out)
    np.multiply(table[1], p, out=delta2)
    out[0] -= delta2
    np.multiply(table[0], p, out=delta2)
    out[1] += delta2
    out += table


def angle_cos_sin(draws: np.ndarray) -> np.ndarray:
    """(2, n) rows cos(theta), sin(theta) of the Box-Muller angle of each draw.

    ``draws`` are uint64 stream outputs; theta = 2*pi*(k + 1/2)/2**53 with
    k a draw's top 53 bits, the angle :func:`standard_normal_pairs` gives
    the odd draw of a row.
    """
    draws = np.asarray(draws, dtype=np.uint64).ravel()
    out = np.empty((2, draws.size))
    for lo in range(0, draws.size, _BLOCK):
        hi = min(lo + _BLOCK, draws.size)
        _, ints, floats = _buffers(hi - lo)
        _angle(draws[lo:hi], out[:, lo:hi], ints[0], floats[3:])
    return out


def standard_normal_pairs(seed: int, start: int, count: int) -> np.ndarray:
    """Rows ``start .. start+count-1`` of the stream's N(0,1) pair table.

    Row i is Box-Muller applied to draws (2i, 2i+1): the radius
    sqrt(-2 log u) of the even draw's uniform u (:func:`uniforms`) times
    the cos and sin of the odd draw's angle (:func:`angle_cos_sin`). So
    row content depends only on (seed, i).
    Returns an array of shape (count, 2), filled _BLOCK rows at a time in
    the calling thread's buffers with the same elementwise operations. It
    is the transpose of a (2, count) array, so each quadrature is one
    contiguous column.
    """
    _check_rows(seed, start, count)
    out = np.empty((2, count))
    for lo in range(0, count, _BLOCK):
        hi = min(lo + _BLOCK, count)
        draws, ints, floats = _buffers(hi - lo)
        # counters seed + (2i+1)*GOLDEN and seed + (2i+2)*GOLDEN of row i
        first = (seed + (2 * (start + lo) + 1) * int(_GOLDEN)) % 2**64
        np.add(_STEPS[: hi - lo], np.uint64(first), out=draws[0])
        np.add(draws[0], _GOLDEN, out=draws[1])
        _mix64(draws, ints)
        radius, cos_sin = floats[0], floats[1:3]
        np.log(_unit(draws[0], radius, ints[0]), out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        _angle(draws[1], cos_sin, ints[0], floats[3:])
        np.multiply(cos_sin, radius, out=out[:, lo:hi])
    return out.T
