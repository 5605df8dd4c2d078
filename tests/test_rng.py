import numpy as np
import pytest

from sparsebss.rng import (
    _BLOCK_PAIRS,
    _uniform_grid,
    derive_seed,
    normal_grid,
    normal_matrix,
    uniform_values,
)
from sparsebss.simulate import add_noise

#: Counts around one block edge, and an odd count over several blocks.
BLOCK_COUNTS = [1, 2 * _BLOCK_PAIRS - 1, 2 * _BLOCK_PAIRS + 1, 5 * _BLOCK_PAIRS + 3]


def unblocked_normal_grid(seeds, shape):
    """Box-Muller over the whole count at once: the bits blocking must keep."""
    count = int(np.prod(shape))
    pairs = (count + 1) // 2
    u = _uniform_grid(seeds, 2 * pairs)
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    theta = (2.0 * np.pi) * u[:, 1::2]
    out = np.empty((len(seeds), 2 * pairs))
    out[:, 0::2] = r * np.cos(theta)
    out[:, 1::2] = r * np.sin(theta)
    return out[:, :count].reshape((len(seeds), *shape))


def splitmix64_uniforms(seed, count, start):
    """SplitMix64 on Python integers: outputs ``start`` .. ``start + count - 1``."""
    out = []
    for k in range(start, start + count):
        z = (seed + (k + 1) * 0x9E3779B97F4A7C15) % 2**64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        z ^= z >> 31
        out.append((z >> 11) * 2.0**-53)
    return out


@pytest.mark.parametrize("start", [0, 1, 2 * _BLOCK_PAIRS - 1])
def test_uniform_grid_matches_integer_splitmix64(start):
    # Independent of the array kernel, so an in-place mix that drifted fails here.
    seeds = [0, 1, 2**63, 2**64 - 1, 20240707]
    expected = np.array([splitmix64_uniforms(seed, 7, start) for seed in seeds])
    assert _uniform_grid(seeds, 7, start).tobytes() == expected.tobytes()
    for seed, row in zip(seeds, expected):
        assert uniform_values(seed, 7, start).tobytes() == row.tobytes()


def test_same_seed_bit_identical():
    a = uniform_values(12345, 1000)
    b = uniform_values(12345, 1000)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(uniform_values(1, 100), uniform_values(2, 100))


def test_uniform_range_and_mean():
    u = uniform_values(99, 200_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.001


def test_stream_is_counter_based():
    # chunked generation must match one-shot generation
    whole = uniform_values(42, 100)
    parts = np.concatenate([uniform_values(42, 60), uniform_values(42, 40, start=60)])
    assert np.array_equal(whole, parts)


def test_normal_moments():
    g = normal_matrix(7, (400_000,))
    assert abs(g.mean()) < 0.01
    assert abs(g.std() - 1.0) < 0.01
    # kurtosis of a Gaussian is 3
    assert abs(np.mean(g**4) - 3.0) < 0.05


def test_normal_matrix_shape_and_order():
    for shape in [(4, 5), (4, _BLOCK_PAIRS + 1), (3, 3 * _BLOCK_PAIRS + 1)]:
        m = normal_matrix(3, shape)
        assert m.shape == shape
        assert np.array_equal(m.ravel(), normal_matrix(3, (m.size,)))


def test_odd_count_truncates_pair():
    for count in [5, 2 * _BLOCK_PAIRS + 1]:
        assert np.array_equal(normal_matrix(11, (count,)), normal_matrix(11, (count + 1,))[:count])


@pytest.mark.parametrize("seeds", [[], [5], [1, 2**64 - 1, 77]])
@pytest.mark.parametrize("count", BLOCK_COUNTS)
def test_normal_grid_equals_unblocked_reference(seeds, count):
    grid = normal_grid(seeds, (count,))
    assert grid.shape == (len(seeds), count)
    assert grid.tobytes() == unblocked_normal_grid(seeds, (count,)).tobytes()
    for seed, row in zip(seeds, grid):
        assert row.tobytes() == normal_matrix(seed, (count,)).tobytes()


def test_derive_seed_wraps():
    assert derive_seed(5, 7) == 12
    assert derive_seed(2**64 - 1, 1) == 0


def test_negative_counts_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        uniform_values(1, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        normal_matrix(1, (-1, 2))


@pytest.mark.parametrize(
    "seed, word",
    [
        (np.int64(3), 3),
        (np.uint64(3), 3),
        (np.int64(-3), 2**64 - 3),
        (np.uint64(2**64 - 1), 2**64 - 1),
        (np.int8(-1), 2**64 - 1),
        (2**64 + 5, 5),
        (-(2**65) - 2, 2**64 - 2),
    ],
)
def test_numpy_and_large_seeds_reduce_exactly_modulo_2_64(seed, word):
    assert derive_seed(seed, 1) == (word + 1) % 2**64
    assert uniform_values(seed, 4).tobytes() == uniform_values(word, 4).tobytes()
    assert normal_matrix(seed, (2, 2)).tobytes() == normal_matrix(word, (2, 2)).tobytes()
    assert add_noise(np.ones((2, 3)), 0.1, seed).tobytes() == add_noise(np.ones((2, 3)), 0.1, word).tobytes()


@pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int32, np.uint8])
def test_integer_seed_arrays_draw_each_seeds_stream(dtype):
    seeds = np.array([1, 2, 250], dtype=dtype)
    grid = normal_grid(seeds, (2, 3))
    assert grid.tobytes() == normal_grid([1, 2, 250], (2, 3)).tobytes()
    negative = normal_grid(np.array([-1, -7]), (5,))
    assert negative.tobytes() == normal_grid([2**64 - 1, 2**64 - 7], (5,)).tobytes()
