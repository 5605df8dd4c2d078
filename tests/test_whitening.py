import numpy as np
import pytest

from sparsebss import RankDeficientError, SparseBssError, ZeroChannelError, gram_schmidt_whiten
from sparsebss.signals import BLOCK
from sparsebss.whitening import whiten_stack


def sample_gram(x):
    """Matrix of sample inner products mean(x_i * x_j)."""
    return x @ x.T / x.shape[1]


def test_hand_derived_two_by_two():
    # z1 = [1, 0]: rms = 1/sqrt(2), e1 = [sqrt(2), 0].
    # z2 = [1, 1]: <z2, e1> = (sqrt(2) + 0)/2 = 1/sqrt(2);
    # residual = [1,1] - (1/sqrt(2))[sqrt(2), 0] = [0, 1]; e2 = [0, sqrt(2)].
    out = gram_schmidt_whiten([[1.0, 0.0], [1.0, 1.0]])
    np.testing.assert_allclose(out.components[0], [np.sqrt(2), 0.0], atol=1e-15)
    np.testing.assert_allclose(out.components[1], [0.0, np.sqrt(2)], atol=1e-15)


def test_orthonormal_input_passes_through():
    x = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])
    out = gram_schmidt_whiten(x)
    np.testing.assert_allclose(out.components, x, atol=1e-12)
    np.testing.assert_allclose(out.transform, np.eye(2), atol=1e-12)


def test_dependent_rows_raise():
    x = np.vstack([np.arange(8.0) + 1, 2 * (np.arange(8.0) + 1)])
    with pytest.raises(RankDeficientError):
        gram_schmidt_whiten(x)


def test_zero_channel_raises():
    with pytest.raises(ZeroChannelError):
        gram_schmidt_whiten([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])


@pytest.mark.parametrize("scale, way", [(1e300, "overflows"), (1e-300, "underflows")])
def test_out_of_range_scale_is_not_a_zero_channel(scale, way):
    z = scale * np.random.default_rng(25).normal(size=(2, 100))
    with pytest.raises(SparseBssError, match=f"channel 0 .* rms {way} float64") as excinfo:
        gram_schmidt_whiten(z)
    assert type(excinfo.value) is SparseBssError


def test_orthogonality_and_unit_rms():
    rng = np.random.default_rng(21)
    z = rng.normal(size=(4, 300)) * np.array([[3.0], [0.2], [11.0], [1.0]])
    out = gram_schmidt_whiten(z)
    gram = sample_gram(out.components)
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)
    np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-12)


def test_transform_reproduces_components():
    rng = np.random.default_rng(22)
    z = rng.normal(size=(3, 128))
    out = gram_schmidt_whiten(z)
    np.testing.assert_allclose(out.transform @ z, out.components, atol=1e-10)


def test_transform_is_lower_triangular_and_invertible():
    rng = np.random.default_rng(23)
    z = rng.normal(size=(4, 256))
    out = gram_schmidt_whiten(z)
    np.testing.assert_allclose(out.transform, np.tril(out.transform), atol=0)
    recon = np.linalg.inv(out.transform) @ out.components
    np.testing.assert_allclose(recon, z, rtol=1e-8, atol=1e-8 * np.abs(z).max())


def test_no_mean_subtraction():
    # a constant channel has nonzero rms and must whiten to a constant,
    # which centering would destroy
    z = np.vstack([np.full(50, 5.0), np.arange(50.0)])
    out = gram_schmidt_whiten(z)
    np.testing.assert_allclose(out.components[0], 1.0, atol=1e-12)


def test_order_dependence_keeps_contract():
    rng = np.random.default_rng(24)
    z = rng.normal(size=(3, 200))
    permuted = z[::-1].copy()
    for data in (z, permuted):
        out = gram_schmidt_whiten(data)
        np.testing.assert_allclose(out.transform @ data, out.components, atol=1e-10)


def test_subnormal_mean_square_is_named():
    # Finite, nonzero squares below float64's normal range would lose bits.
    z = 1e-160 * np.random.default_rng(26).normal(size=(2, 100))
    with pytest.raises(SparseBssError, match="channel 0 .* rms underflows float64") as excinfo:
        gram_schmidt_whiten(z)
    assert type(excinfo.value) is SparseBssError
    assert whiten_stack(z[None])[2][0] == 0


def test_subnormal_residual_is_named_not_rank_loss():
    # The channels are far from dependent (residual 1e-6 of the channel),
    # but at 1e-150 the residual's mean square is subnormal.
    a, b = np.random.default_rng(27).normal(size=(2, 100))
    z = 1e-150 * np.array([a, a + 1e-6 * b])
    with pytest.raises(SparseBssError, match="channel 1 .* residual rms underflows") as excinfo:
        gram_schmidt_whiten(z)
    assert type(excinfo.value) is SparseBssError
    assert whiten_stack(z[None])[2][0] == 1
    gram_schmidt_whiten(1e100 * z)  # the same record at a normal scale whitens


def reference_whiten(z):
    """Modified Gram-Schmidt of one record in plain numpy, with ``np.mean`` for every inner product."""
    components = np.empty_like(z)
    transform = np.zeros((len(z), len(z)))
    for i in range(len(z)):
        residual = z[i].copy()
        row = np.zeros(len(z))
        row[i] = 1.0
        for k in range(i):
            coeff = np.mean(residual * components[k])
            residual -= coeff * components[k]
            row -= coeff * transform[k]
        residual_rms = np.sqrt(np.mean(np.square(residual)))
        components[i] = residual / residual_rms
        transform[i] = row / residual_rms
    return components, transform


@pytest.mark.parametrize("length", [100, 2 * BLOCK + 5])
def test_stack_matches_each_record_and_the_plain_reference(length):
    # Short records whiten in a copy of the channel, long ones in place one
    # block at a time; both keep the bits of the plain loop.
    z = np.random.default_rng(28).normal(size=(3, 4, length)) * np.array([[3.0], [0.2], [11.0], [1.0]])
    components, transform, failed = whiten_stack(z)
    assert (failed == -1).all()
    for q in range(3):
        alone = gram_schmidt_whiten(z[q])
        expected = reference_whiten(z[q])
        for got in (alone.components, components[q]):
            assert got.tobytes() == expected[0].tobytes()
        for got in (alone.transform, transform[q]):
            assert got.tobytes() == expected[1].tobytes()
