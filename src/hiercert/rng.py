"""Deterministic counter-mode random streams.

Every random quantity in the package is a pure function of
(seed, stream id, counter): a 64-bit mix finalizer applied to equally
spaced counter states, split-mix style. Values depend only on their
counter, never on how many values were drawn before them, so chunked,
parallel, and serial generation agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from .numerics import special

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_STREAM_SALT = np.uint64(0xD6E8FEB86659FD93)

# Stream ids used by the package. Callers may use any other ids for their
# own draws; distinct ids give statistically independent streams.
STREAM_NOISE = 1        # smoothing estimation noise
STREAM_SELECT = 2       # smoothing selection noise
STREAM_INIT = 3         # model parameter init
STREAM_TRAIN = 4        # per-epoch training noise
STREAM_PGD = 5          # attack restart offsets
STREAM_KMEANS = 6       # k-means++ seeding
STREAM_SUBSETS = 7      # subset sampling in sweeps


def _mix(x):
    """Split-mix finalizer; updates a uint64 array in place and returns it."""
    # uint64 wraparound is the point here; silence the overflow warnings.
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(30)
        x *= _M1
        x ^= x >> np.uint64(27)
        x *= _M2
        x ^= x >> np.uint64(31)
    return x


def mix64(x):
    """Public 64-bit mix finalizer for ints or uint64 arrays."""
    if isinstance(x, (int, np.integer)):
        return int(_mix(np.uint64(int(x) & 0xFFFFFFFFFFFFFFFF)))
    return _mix(np.array(x, dtype=np.uint64))


def stream_seed(seed, stream: int):
    """Derive the base state of one named substream of a master seed.

    An int seed gives an int; an array of uint64 seeds gives the uint64
    array of their states, element for element the same values.
    """
    with np.errstate(over="ignore"):
        salt = _mix(np.uint64(stream & 0xFFFFFFFFFFFFFFFF) * _STREAM_SALT)
    if isinstance(seed, (int, np.integer)):
        return int(_mix(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ salt))
    s = np.array(seed, dtype=np.uint64)
    s ^= salt
    return _mix(s)


def raw64(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """uint64 words at counters start .. start+count-1 of a substream."""
    x = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x *= _GAMMA
        x += np.uint64(stream_seed(seed, stream))
    return _mix(x)


def _unit_interval(bits: np.ndarray) -> np.ndarray:
    """Mixed words to floats in (0, 1): the top 53 bits plus half an ulp.

    Shifts `bits` in place."""
    bits >>= np.uint64(11)
    u = bits.astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    return u


def uniforms(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """Uniform floats in the open interval (0, 1)."""
    return _unit_interval(raw64(seed, stream, start, count))


#: The unit of noise work: 64k draws, 512 KB per float64 or uint64 array,
#: so a piece's bits and uniforms stay in cache between being written and
#: being read by ndtri. `smoothing.vote_counts` and the `toymodels` Gaussian
#: sample size their units by it too.
PIECE = 1 << 16


def normals(seed, stream: int, start: int, count: int) -> np.ndarray:
    """Standard-normal draws via the quantile transform of `uniforms`.

    `seed` is an int, or a 1-D array of uint64 seeds: then row r of the
    (len(seed), count) result equals normals(int(seed[r]), ...) bit for
    bit. Generated in pieces of at most 64k draws (whole rows when a row
    is shorter) into one output array; counter-mode generation makes the
    pieces invisible. The uniforms lie strictly inside (0, 1), so ndtri is
    called without the domain check of `numerics.normal_quantile`.
    """
    single = isinstance(seed, (int, np.integer))
    ndtri = special().ndtri
    bases = np.array(stream_seed(seed, stream), dtype=np.uint64).reshape(-1, 1)
    out = np.empty((bases.shape[0], count))
    rows = max(1, PIECE // max(count, 1))
    for r in range(0, bases.shape[0], rows):
        for off in range(0, count, PIECE):
            block = min(PIECE, count - off)
            bits = np.arange(start + off + 1, start + off + block + 1, dtype=np.uint64)
            with np.errstate(over="ignore"):
                bits *= _GAMMA
            # One row adds its base in place, so a 64k piece holds no extra
            # array; rows shorter than a piece share its counter steps.
            if rows == 1:
                bits += bases[r]
            else:
                bits = bits + bases[r:r + rows]
            ndtri(_unit_interval(_mix(bits)), out=out[r:r + rows, off:off + block])
    return out[0] if single else out


def integers(seed: int, stream: int, start: int, count: int, bound: int) -> np.ndarray:
    """Integers in [0, bound); negligible (2^-53) floor bias."""
    return np.minimum(
        (uniforms(seed, stream, start, count) * bound).astype(np.int64), bound - 1
    )
