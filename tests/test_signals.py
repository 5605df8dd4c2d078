import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

import sparsebss
from sparsebss import (
    NonFiniteError,
    SparseBssError,
    TooShortError,
    ZeroChannelError,
    normalize_rms,
    normalize_unit_norm,
    rms,
)
from sparsebss.io import write_csv
from sparsebss.signals import BLOCK, as_signal_matrix, ordered_row_norms, sum_of_products


def test_normalize_rms_two_sample_channel():
    # rms([3, 4]) = sqrt((9 + 16) / 2) = sqrt(12.5), by direct arithmetic
    out = normalize_rms([[3.0, 4.0]])
    expected = np.array([3.0, 4.0]) / np.sqrt(12.5)
    np.testing.assert_allclose(out[0], expected, rtol=0, atol=1e-15)
    assert out[0][0] == pytest.approx(0.848528137423857)


def test_normalize_rms_unit_channel_unchanged():
    x = np.array([[1.0, -1.0, 1.0, -1.0]])
    np.testing.assert_allclose(normalize_rms(x), x, atol=1e-15)


def test_normalize_rms_zero_channel_raises():
    with pytest.raises(ZeroChannelError):
        normalize_rms([[0.0, 0.0, 0.0]])


def test_normalize_rms_result_has_unit_rms():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 256)) * rng.uniform(0.1, 50.0, size=(4, 1))
    np.testing.assert_allclose(rms(normalize_rms(x)), 1.0, atol=1e-12)


def test_normalize_rms_idempotent():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 100))
    once = normalize_rms(x)
    np.testing.assert_allclose(normalize_rms(once), once, atol=1e-12)


@pytest.mark.parametrize("scale", [3.0, -2.5, 1e-6, 1e6])
def test_normalize_rms_scale_invariance(scale):
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 64))
    np.testing.assert_allclose(
        normalize_rms(scale * x), np.sign(scale) * normalize_rms(x), atol=1e-12
    )


def test_as_signal_matrix_accepts_finite_matrix():
    as_signal_matrix(np.zeros((2, 1000)))  # no exception


def test_as_signal_matrix_rejects_nan():
    x = np.ones((2, 10))
    x[1, 3] = np.nan
    with pytest.raises(NonFiniteError):
        as_signal_matrix(x)


def test_as_signal_matrix_rejects_single_sample():
    with pytest.raises(TooShortError):
        as_signal_matrix(np.ones((2, 1)))


def test_normalize_unit_norm():
    out = normalize_unit_norm([[3.0, 4.0]])
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-15)
    np.testing.assert_allclose(out[0], [0.6, 0.8])


@pytest.mark.parametrize("scale, way", [(1e300, "overflows"), (1e-300, "underflows")])
@pytest.mark.parametrize("normalize, name", [(normalize_rms, "rms"), (normalize_unit_norm, "norm")])
def test_out_of_range_scale_is_named(normalize, name, scale, way):
    x = scale * np.random.default_rng(10).normal(size=(2, 64))
    with pytest.raises(SparseBssError, match=f"{name} {way} float64") as excinfo:
        normalize(x)
    assert type(excinfo.value) is SparseBssError


@pytest.mark.parametrize(
    "consume",
    [
        lambda x, path: normalize_rms(x),
        lambda x, path: normalize_unit_norm(x),
        lambda x, path: write_csv(path / "x.csv", x),
    ],
    ids=["normalize_rms", "normalize_unit_norm", "write_csv"],
)
def test_complex_input_is_refused(consume, tmp_path):
    # Refused before numpy's ComplexWarning, which would mean the imaginary part was dropped.
    x = np.random.default_rng(11).normal(size=(2, 16)) * (1 - 2j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SparseBssError, match="complex128"):
            consume(x, tmp_path)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("normalize, name", [(normalize_rms, "rms"), (normalize_unit_norm, "norm")])
def test_subnormal_squares_are_named(normalize, name):
    # At 1e-160 the squares are subnormal: the scale would lose bits.
    x = np.random.default_rng(12).normal(size=(2, 64))
    with pytest.raises(SparseBssError, match=f"{name} underflows float64") as excinfo:
        normalize(1e-160 * x)
    assert type(excinfo.value) is SparseBssError
    np.testing.assert_allclose(normalize(1e-150 * x), normalize(x), rtol=1e-14)


@pytest.mark.parametrize("shape", [(2, 3, 4), (0, 5)])
def test_as_signal_matrix_rejects_other_shapes(shape):
    with pytest.raises(TooShortError, match="2-D channels x samples"):
        as_signal_matrix(np.ones(shape))


#: Lengths around numpy's pairwise cut-offs (8 and 128 values) and around one
#: to four blocks, odd and even.
SUM_LENGTHS = [2, 3, 7, 8, 9, 17, 127, 128, 129, 1001, BLOCK - 1, BLOCK, BLOCK + 1,
               BLOCK + 9, 2 * BLOCK - 1, 2 * BLOCK + 1, 3 * BLOCK + 7, 4 * BLOCK + 13]


@pytest.mark.parametrize("length", SUM_LENGTHS)
def test_blocked_sum_keeps_numpys_bits(length):
    # The blocked sum repeats numpy's pairwise split of a contiguous row.  A
    # numpy whose summation splits rows another way fails here by name.
    pool = np.random.default_rng(length).standard_normal((2, 3 * 9 * length))
    for scale in (1e-150, 1e150):
        for n in range(1, 10):
            for q in (1, 3):
                a, b = scale * pool[:, : q * n * length].reshape(2, q, n, length)
                assert sum_of_products(a, b).tobytes() == np.sum(a * b, axis=-1).tobytes()
                mean_square = sum_of_products(a) / length
                assert mean_square.tobytes() == np.mean(np.square(a), axis=-1).tobytes()


def channel_order_norms(rows):
    """Lengths of the vectors in (..., N, M) channel rows: squares added in channel order."""
    return np.sqrt(sum(np.square(rows[..., i, :]) for i in range(rows.shape[-2])))


@pytest.mark.parametrize("n", [*range(1, 21), 64, 127, 128, 129, 200, 257])
def test_row_norms_keep_numpys_bits(n):
    # The one length rule adds each vector's squares in channel order, the
    # order np.linalg.norm adds a strided row (numpy sums a contiguous row
    # in order below 8 values and pairwise from there).  The lengths must
    # not depend on the layout of the rows, nor on given scratch arrays.
    pool = np.random.default_rng(n).standard_normal(3 * n * 41)
    for scale in (1e-150, 1.0, 1e150):
        for q in (1, 3):
            rows = scale * pool[: q * n * 41].reshape(q, n, 41)
            rows[:, :, 7] = 0.0
            expected = channel_order_norms(rows)
            assert expected.tobytes() == np.linalg.norm(rows.swapaxes(-1, -2), axis=-1).tobytes()
            if n < 8:
                contiguous = np.ascontiguousarray(rows.swapaxes(-1, -2))
                assert expected.tobytes() == np.linalg.norm(contiguous, axis=-1).tobytes()
            assert ordered_row_norms(rows).tobytes() == expected.tobytes()
            assert ordered_row_norms(rows[0]).tobytes() == expected[0].tobytes()
            other = np.ascontiguousarray(rows.swapaxes(-1, -2)).swapaxes(-1, -2)
            assert ordered_row_norms(other).tobytes() == expected.tobytes()
            out = np.empty((q, 41))
            got = ordered_row_norms(rows, np.empty((q, 41)), out)
            assert got is out and out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("module", sorted(p.name for p in Path(sparsebss.__file__).parent.glob("*.py")))
def test_heading_lengths_have_one_rule(module):
    # np.linalg.norm sums a contiguous row pairwise from 8 values on and a
    # strided one in order, so a length taken with it would bring back a
    # second rule beside ordered_row_norms; along the samples, beside the
    # blocked sum_of_products.  No module of the package calls it.
    tree = ast.parse((Path(sparsebss.__file__).parent / module).read_text())
    uses = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "norm"
        or isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg")
    ]
    assert uses == [], f"{module} takes a length with np.linalg.norm at lines {uses}"


@pytest.mark.parametrize(
    "shape", [(2, 50), (250, 2, 50), (3, BLOCK + 7), (2, 4 * BLOCK + 13), (1, 4, 10**6), (5, 1), (2, 2)]
)
def test_norm_along_the_samples_is_the_blocked_sum(shape):
    # normalize_unit_norm and the Monte Carlo chunk's estimates take
    # sqrt(sum_of_products(x)), which has np.linalg.norm's bits on C-contiguous rows.
    x = np.random.default_rng(shape[-1]).standard_normal(shape)
    assert np.sqrt(sum_of_products(x)).tobytes() == np.linalg.norm(x, axis=-1).tobytes()
    rows = x.reshape(-1, shape[-1])
    if rows.shape[1] >= 2:
        expected = rows / np.linalg.norm(rows, axis=1)[:, None]
        assert normalize_unit_norm(rows).tobytes() == expected.tobytes()
