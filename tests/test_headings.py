import numpy as np
import pytest

from sparsebss import (
    MethodParams,
    NonFiniteError,
    TooShortError,
    apply_velocity_threshold,
    compute_headings,
    compute_velocities,
    normalize_headings,
)
from sparsebss.headings import accept_stack, check_v_th, heading_rows, velocity_rows
from sparsebss.signals import BLOCK, ordered_row_norms


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
    # The deflation loop's kernel forms (N, L-1) channel rows in blocks and
    # keeps no speeds; the public helpers apply the same rule to the (L-1, N)
    # view.  Masks agree bit for bit on both sides of eight channels, across
    # blocks, and so do the velocities a direction step forms again from the
    # samples, their lengths and the headings it divides.  The last two
    # velocities have largest components v_th * v_max and the float below
    # it, so the masks agree only if both sides take v_max with one set of bits.
    v_th = 0.3
    e = np.random.default_rng(n).standard_normal((n, 2 * BLOCK + 7))
    e[:, -3:] = 0.0
    v_max = compute_headings(e, v_th).v_max
    edge = v_th * v_max
    e[0, -2:] = edge
    e[1, -1] = np.nextafter(edge, 0.0)
    expected = compute_headings(e, v_th)
    assert expected.v_max == v_max and list(expected.accepted[-2:]) == [True, False]
    accepted = accept_stack(e[None], v_th)
    np.testing.assert_array_equal(accepted[0], expected.accepted)
    idx = np.flatnonzero(accepted[0])
    rows = velocity_rows(e[None], np.zeros_like(idx), idx)
    assert rows.T.tobytes() == expected.velocities[idx].tobytes()
    lengths = ordered_row_norms(rows, np.empty(idx.size), np.empty(idx.size))
    assert lengths.tobytes() == expected.speeds[idx].tobytes()
    headings = heading_rows(e[None], np.zeros_like(idx), idx)
    assert headings.tobytes() == (expected.velocities[idx].T / expected.speeds[idx]).tobytes()


@pytest.mark.parametrize("n", [2, 4, 9])
def test_zero_speeds_are_never_accepted(n):
    # Record 0 repeats samples inside a block and across the first BLOCK
    # edge (velocity BLOCK - 1 ends one block, velocity BLOCK starts the
    # next).  Record 1 is constant and record 2 moves by steps whose squares
    # underflow: both have v_max = 0, and only the speeds, not the component
    # maxima, tell record 2's velocities have no direction.
    rng = np.random.default_rng(n)
    e = rng.standard_normal((3, n, 2 * BLOCK + 7))
    e[0, :, 100:110] = e[0, :, 100:101]
    e[0, :, BLOCK - 3:BLOCK + 4] = e[0, :, BLOCK - 3:BLOCK - 2]
    e[1] = 1.5
    e[2] = 1e-170 * np.round(e[2])
    accepted = accept_stack(e, 0.3)
    v_max = []
    for q in range(3):
        velocities = compute_velocities(e[q])
        expected = compute_headings(e[q], 0.3)
        np.testing.assert_array_equal(accepted[q], apply_velocity_threshold(velocities, 0.3))
        np.testing.assert_array_equal(accepted[q], expected.accepted)
        assert not np.any(accepted[q] & ~expected.nonzero)
        v_max.append(expected.v_max)
    still = np.r_[100:109, BLOCK - 3:BLOCK + 3]
    assert np.all(np.abs(compute_velocities(e[0])[still]) == 0.0) and not accepted[0, still].any()
    assert accepted[0].any() and v_max[0] > 0.0
    assert v_max[1:] == [0.0, 0.0] and not accepted[1:].any()
    assert np.abs(compute_velocities(e[2])).max(axis=1).any()  # nonzero components, zero speeds


def test_heading_helpers_do_not_depend_on_the_layout():
    # From 8 channels on, np.linalg.norm sums a contiguous row pairwise and a
    # strided one in order.  The helpers sum in channel order, as the loop's
    # kernel does, so C and Fortran velocities give the same bits.  The last
    # velocity's largest component is v_th times the smaller of the two
    # possible v_max, so a layout-dependent v_max would flip its acceptance.
    n, v_th = 9, 0.5
    rng = np.random.default_rng(n)
    v = rng.standard_normal((40, n))
    in_order = np.sqrt(sum(np.square(v[:, i]) for i in range(n)))
    # A velocity whose two sums differ, scaled by a power of two to be the fastest.
    fastest = np.flatnonzero(in_order != np.linalg.norm(v, axis=1))[0]
    v[fastest] *= 8.0
    in_order, pairwise = 8.0 * in_order[fastest], np.linalg.norm(v[fastest])
    assert in_order == np.sqrt(sum(np.square(v[fastest])))
    edge = np.zeros(n)
    edge[0] = v_th * min(in_order, pairwise)
    v = np.vstack([v, edge])
    assert np.argmax(np.linalg.norm(v, axis=1)) == fastest
    layouts = [np.ascontiguousarray(v), np.asfortranarray(v)]
    headings = [normalize_headings(x)[0] for x in layouts]
    assert headings[0].tobytes() == np.ascontiguousarray(headings[1]).tobytes()
    masks = [apply_velocity_threshold(x, v_th) for x in layouts]
    np.testing.assert_array_equal(masks[0], masks[1])
    assert masks[0][-1] == (in_order <= pairwise)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("helper", [normalize_headings, lambda v: apply_velocity_threshold(v, 0.4)],
                         ids=["normalize_headings", "apply_velocity_threshold"])
def test_non_finite_velocities_are_named(helper, bad):
    # normalize_headings gave NaN headings, and one NaN row made the
    # threshold reject every velocity.
    velocities = np.array([[1.0, 0.5], [bad, 1.0], [0.2, -0.3]])
    with pytest.raises(NonFiniteError, match="velocities"):
        helper(velocities)


@pytest.mark.parametrize("v_th", [0.0, 1.0, -0.1, 1.5, float("nan")])
def test_v_th_has_one_check(v_th):
    for check in (check_v_th, lambda v: MethodParams(v_th=v), lambda v: compute_headings(np.eye(2), v)):
        with pytest.raises(ValueError, match=r"^v_th must lie in \(0, 1\), got "):
            check(v_th)
