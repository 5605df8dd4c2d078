import numpy as np

from sparsebss.rng import derive_seed, normal_matrix, uniform_values


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
    m = normal_matrix(3, (4, 5))
    assert m.shape == (4, 5)
    assert np.array_equal(m.ravel(), normal_matrix(3, (20,)))


def test_odd_count_truncates_pair():
    assert np.array_equal(normal_matrix(11, (5,)), normal_matrix(11, (6,))[:5])


def test_derive_seed_wraps():
    assert derive_seed(5, 7) == 12
    assert derive_seed(2**64 - 1, 1) == 0
