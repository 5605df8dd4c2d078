"""Deterministic random numbers for the synthetic-data generators.

Uniform variates come from SplitMix64, a counter-based 64-bit generator:
output ``k`` of stream ``seed`` is ``mix64(seed + (k + 1) * GOLDEN)`` with
all arithmetic modulo 2**64.  Gaussian variates are produced from
consecutive uniform pairs by the Box-Muller transform.  Both mappings are
pure functions of (seed, index), so identical seeds give bit-identical
streams regardless of chunking, platform, or process count.

Every entry point reads its seeds with :func:`seed_words`, the package's
one seed check.

:func:`normal_grid` allocates its output once and fills it one block of
:data:`_BLOCK_PAIRS` Box-Muller pairs (over all its seeds) at a time, so
beyond the output it holds under 2 MB of temporaries at any size (plus one
copy of the output when several seeds draw an odd number of values).  The
arithmetic runs in place: a block's counter states are mixed, shifted and
scaled to uniforms in one uint64 buffer, read back as float64; r and the
angle are formed in that buffer's even and odd slots, and ``cos`` and
``sin`` are written straight into the output and scaled by r there.
"""

from __future__ import annotations

import operator

import numpy as np

from .signals import BLOCK

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0 ** -53

#: Box-Muller pairs per block of :func:`normal_grid`, over all its seeds: the
#: package's block of :data:`~sparsebss.signals.BLOCK` values.  A 250-run
#: Monte Carlo chunk of 2 x 50 records (50 pairs a run) is one block.
_BLOCK_PAIRS = BLOCK // 2


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output mix of the uint64 states ``z``, written into ``z``."""
    shift = np.empty_like(z)
    for bits, factor in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, np.uint64(bits), out=shift)
        z *= factor
    z ^= np.right_shift(z, np.uint64(31), out=shift)
    return z


def seed_words(seeds) -> np.ndarray:
    """``seeds`` as uint64 words, each seed taken exactly modulo 2**64.

    ``seeds`` is an integer array, cast to uint64, which wraps it so, or a
    sequence of Python or numpy integers, each reduced as a Python int.  Any
    other seed raises ``TypeError`` rather than being truncated to another
    seed's stream: a float, and a boolean, which ``ScenarioConfig`` refuses
    too.
    """
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind in "iu":
        return seeds.astype(np.uint64, copy=False)
    words = []
    for seed in seeds:
        if isinstance(seed, (bool, np.bool_)):
            raise TypeError(f"a seed must be an integer, not a boolean, got {seed!r}")
        words.append(operator.index(seed) % 2**64)
    return np.array(words, dtype=np.uint64)


def derive_seed(master_seed: int, index: int) -> int:
    """Per-run seed: ``master_seed + index`` modulo 2**64, each read by :func:`seed_words`."""
    master, offset = seed_words([master_seed, index]).tolist()
    return (master + offset) % 2**64


def uniform_values(seed: int, count: int, start: int = 0) -> np.ndarray:
    """``count`` uniforms on [0, 1) from stream ``seed`` starting at ``start``."""
    return _uniform_grid(seed_words([seed]), count, start)[0]


def _uniform_grid(words: np.ndarray, count: int, start: int = 0) -> np.ndarray:
    """(len(words), count) uniforms: row ``q`` is the stream of uint64 seed ``words[q]``."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        idx *= _GOLDEN
        state = _mix64(np.add(words[:, None], idx))
    state >>= np.uint64(11)
    # Each 53-bit integer converts exactly, into the float64 that overlays it.
    return np.multiply(state, _U53, out=state.view(np.float64))


def normal_matrix(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard-normal array of ``shape``, filled in C (row-major) order."""
    return normal_grid([seed], shape)[0]


def normal_grid(seeds, shape: tuple[int, ...]) -> np.ndarray:
    """One :func:`normal_matrix` per seed, stacked: shape ``(len(seeds), *shape)``.

    Uniform pairs (u[2i], u[2i+1]) of a stream map to the Box-Muller pair
    (r*cos, r*sin) with r = sqrt(-2*log(1 - u[2i])); outputs are
    interleaved in that order and truncated to the shape's size.  Each row
    depends only on its own seed, so a stream comes out the same whichever
    other seeds share the call.
    """
    words = seed_words(seeds)
    count = int(np.prod(shape))
    if count < 0:
        raise ValueError("count must be nonnegative")
    pairs = (count + 1) // 2
    out = np.empty((len(words), 2 * pairs))
    width = max(1, _BLOCK_PAIRS // max(1, len(words)))
    for start in range(0, pairs, width):
        stop = min(start + width, pairs)
        u = _uniform_grid(words, 2 * (stop - start), 2 * start)
        r, theta = u[:, 0::2], u[:, 1::2]
        np.negative(r, out=r)
        np.log1p(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta *= 2.0 * np.pi
        block = out[:, 2 * start : 2 * stop]
        cos, sin = block[:, 0::2], block[:, 1::2]
        np.cos(theta, out=cos)
        np.sin(theta, out=sin)
        cos *= r
        sin *= r
    return out[:, :count].reshape((len(words), *shape))
