import numpy as np
import pytest

from sparsebss import (
    TooShortError,
    apply_velocity_threshold,
    compute_headings,
    compute_velocities,
    normalize_headings,
)
from sparsebss.headings import _accept
from sparsebss.signals import BLOCK


def test_velocities_are_consecutive_differences():
    e = np.array([[0.0, 1.0, 3.0], [0.0, 2.0, 2.0]])
    v = compute_velocities(e)
    np.testing.assert_array_equal(v, [[1.0, 2.0], [2.0, 0.0]])


def test_constant_signal_gives_zero_velocities():
    v = compute_velocities(np.ones((2, 10)))
    assert np.all(v == 0.0)


def test_too_short_raises():
    with pytest.raises(TooShortError):
        compute_velocities(np.ones((2, 1)))


def test_velocity_sum_telescopes():
    rng = np.random.default_rng(31)
    e = rng.normal(size=(3, 77))
    v = compute_velocities(e)
    np.testing.assert_allclose(v.sum(axis=0), e[:, -1] - e[:, 0], rtol=1e-12, atol=1e-12)


def test_normalize_headings_values():
    headings, zero_mask = normalize_headings([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]])
    np.testing.assert_allclose(np.abs(headings[0]), [0.4472, 0.8944], atol=5e-5)
    np.testing.assert_allclose(headings[1], [0.6, 0.8], atol=1e-15)
    assert list(zero_mask) == [False, False, True]
    assert np.all(headings[2] == 0.0)


def test_threshold_example():
    v = np.array([[1.0, 0.0], [0.5, 0.0], [0.9, 0.0]])
    mask = apply_velocity_threshold(v, 0.8)
    assert list(mask) == [True, False, True]


def test_threshold_small_vth_accepts_all_nonzero():
    v = np.array([[1.0, 0.0], [0.001, 0.0], [0.0, 0.0]])
    mask = apply_velocity_threshold(v, 1e-9)
    assert list(mask) == [True, True, False]


def test_threshold_single_nonzero_velocity():
    # axis-aligned, so the component max equals the vector norm and the
    # lone nonzero velocity passes at every threshold
    v = np.array([[0.0, 0.0], [0.3, 0.0], [0.0, 0.0]])
    for vth in (0.1, 0.5, 0.99):
        assert list(apply_velocity_threshold(v, vth)) == [False, True, False]


def test_threshold_mixes_component_and_vector_norms():
    # left side is the componentwise max: a diagonal vector of length 1
    # has component max 1/sqrt(2) and is rejected at v_th = 0.8 against a
    # same-length axis-aligned vector
    v = np.array([[1.0, 0.0], [1 / np.sqrt(2), 1 / np.sqrt(2)]])
    mask = apply_velocity_threshold(v, 0.8)
    assert list(mask) == [True, False]


def test_threshold_validates_vth():
    with pytest.raises(ValueError):
        apply_velocity_threshold(np.ones((3, 2)), 1.5)


def test_headings_scale_free():
    rng = np.random.default_rng(32)
    e = rng.normal(size=(2, 120))
    a = compute_headings(e, 0.4)
    b = compute_headings(3.7 * e, 0.4)
    np.testing.assert_allclose(a.headings, b.headings, atol=1e-12)
    np.testing.assert_array_equal(a.accepted, b.accepted)


def test_heading_set_consistency(example1):
    _, _, mixtures = example1
    from sparsebss import gram_schmidt_whiten

    hs = compute_headings(gram_schmidt_whiten(mixtures).components, 0.4)
    assert hs.velocities.shape[0] == mixtures.shape[1] - 1
    # accepted implies nonzero and unit heading
    assert not np.any(hs.accepted & ~hs.nonzero)
    norms = np.linalg.norm(hs.headings[hs.accepted], axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    assert hs.v_max == pytest.approx(hs.speeds.max())


def test_threshold_on_a_stack_matches_each_record():
    rng = np.random.default_rng(12)
    v = rng.standard_normal((3, 50, 4))
    v[1] *= 10.0
    v[2, 7] = 0.0
    mask = apply_velocity_threshold(v, 0.5)
    assert mask.shape == (3, 50)
    for q in range(3):
        np.testing.assert_array_equal(mask[q], apply_velocity_threshold(v[q], 0.5))


@pytest.mark.parametrize("n", [4, 9])
def test_channel_row_kernel_keeps_the_helpers_bits(n):
    # The deflation loop's kernel forms (N, L-1) channel rows in blocks; the
    # public helpers apply np.linalg.norm to the (L-1, N) view.  Speeds and
    # masks agree bit for bit on both sides of eight channels, across blocks,
    # and so do the velocities a direction step forms again from the samples.
    e = np.random.default_rng(n).standard_normal((n, 2 * BLOCK + 7))
    expected = compute_headings(e, 0.3)
    speeds, accepted, v_max = _accept(e[None], 0.3)
    assert speeds[0].tobytes() == expected.speeds.tobytes()
    np.testing.assert_array_equal(accepted[0], expected.accepted)
    assert v_max[0] == expected.v_max
    idx = np.flatnonzero(accepted[0])
    rows = np.take(e, idx + 1, axis=1) - np.take(e, idx, axis=1)
    assert rows.T.tobytes() == expected.velocities[idx].tobytes()
