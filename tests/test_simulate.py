import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from sparsebss import (
    DimensionMismatchError,
    GaussianPulseSpec,
    NonFiniteError,
    ScenarioConfig,
    add_noise,
    generate_gaussian_sources,
    generate_shifted_uniform_sources,
    load_preset,
    min_peak_contribution,
    mix,
)
from sparsebss.rng import normal_matrix
from sparsebss.simulate import check_nonnegative, check_shift, noisy_stack

EXAMPLE1_MIXING = np.array([[1.3, 2.0], [1.0, 2.85]])


def example1_sources():
    specs = [
        GaussianPulseSpec(amplitude=1.0, center_s=0.1, width_s=0.0125),
        GaussianPulseSpec(amplitude=0.1, center_s=0.026, width_s=0.00625),
    ]
    return generate_gaussian_sources(specs, 250.0, 0.2)


class TestGaussianSources:
    def test_on_grid_center_hits_amplitude(self):
        s = example1_sources()
        # 0.1 s is sample 25 exactly
        assert s[0, 25] == 1.0
        assert s.shape == (2, 50)

    def test_truncated_to_zero_beyond_four_widths(self):
        s = example1_sources()
        t = np.arange(50) / 250.0
        assert np.all(s[0, np.abs(t - 0.1) > 0.05] == 0.0)
        assert np.all(s[1, np.abs(t - 0.026) > 0.025] == 0.0)

    def test_value_one_width_from_center(self):
        # grid chosen so center +/- width lands on samples
        spec = GaussianPulseSpec(amplitude=2.0, center_s=0.4, width_s=0.1)
        s = generate_gaussian_sources([spec], 10.0, 1.0)
        assert s[0, 3] == pytest.approx(2.0 * math.exp(-0.5), rel=1e-15)
        assert s[0, 5] == pytest.approx(2.0 * math.exp(-0.5), rel=1e-15)

    @pytest.mark.parametrize("rate", [0.0, -250.0])
    def test_validates_sample_rate(self, rate):
        with pytest.raises(ValueError, match="sample_rate_hz must be positive"):
            generate_gaussian_sources([GaussianPulseSpec(1.0, 0.1, 0.01)], rate, 0.2)

    def test_validates_width(self):
        with pytest.raises(ValueError):
            GaussianPulseSpec(amplitude=1.0, center_s=0.0, width_s=0.0)

    @pytest.mark.parametrize(
        "key, rate, duration",
        [
            ("duration_s", 250.0, math.inf),
            ("duration_s", 250.0, math.nan),
            ("duration_s", 250.0, 0.0),
            ("duration_s", 250.0, -0.2),
            ("sample_rate_hz", math.nan, 0.2),
            ("sample_rate_hz", math.inf, 0.2),
        ],
    )
    def test_rate_and_duration_are_checked_as_a_scenario_checks_them(self, key, rate, duration):
        # An infinite duration raised OverflowError, a NaN rate numpy's message.
        with pytest.raises(ValueError, match=f"^{key} must be positive and finite, got "):
            generate_gaussian_sources([GaussianPulseSpec(1.0, 0.1, 0.01)], rate, duration)

    @pytest.mark.parametrize("width", [1e-170, 2.0**-512, 1.35e154, -0.01, math.nan, math.inf])
    def test_width_whose_square_is_not_a_normal_float_is_refused(self, width):
        # 1e-170 gave a NaN centre sample: its square underflowed to 0.
        with pytest.raises(ValueError, match="^width_s must be at least 2\\*\\*-511 with a finite square"):
            GaussianPulseSpec(amplitude=1.0, center_s=0.0, width_s=width)

    @pytest.mark.parametrize("width", [2.0**-511, 2e-154, 1e154])
    def test_extreme_widths_give_finite_pulses_without_a_warning(self, width):
        # At 2e-154 the far samples' exponents overflow; exp gives them 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = generate_gaussian_sources([GaussianPulseSpec(1.0, 0.0, width)], 1.0, 100.0)
        assert np.isfinite(s).all() and s[0, 0] == 1.0
        assert (s[0, 1:] == (1.0 if width > 1.0 else 0.0)).all()

    @pytest.mark.parametrize("rate, duration", [(250.0, 1e308), (1e300, 1e10)])
    def test_sample_count_that_overflows_is_refused(self, rate, duration):
        # It raised OverflowError converting an infinite count to an integer.
        message = f"duration_s must give a finite sample count at {rate} Hz, got {duration}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_gaussian_sources([GaussianPulseSpec(1.0, 0.1, 0.01)], rate, duration)


class TestShiftedUniformSources:
    def test_full_shift_gives_disjoint_supports(self):
        s = generate_shifted_uniform_sources(100, 100, seed=5)
        assert s.shape == (2, 200)
        assert np.all(s[0] * s[1] == 0.0)

    def test_zero_shift_gives_full_overlap(self):
        s = generate_shifted_uniform_sources(50, 0, seed=5)
        assert s.shape == (2, 50)
        assert np.all(s[0] > 0) and np.all(s[1] > 0)

    def test_ninety_sample_shift_shape(self):
        s = generate_shifted_uniform_sources(100, 90, seed=5)
        assert s.shape == (2, 190)
        # overlap is exactly 10 samples
        both_active = (s[0] != 0) & (s[1] != 0)
        assert both_active.sum() == 10
        assert np.all(s[0, 100:] == 0.0) and np.all(s[1, :90] == 0.0)

    def test_deterministic(self):
        a = generate_shifted_uniform_sources(80, 40, seed=123)
        b = generate_shifted_uniform_sources(80, 40, seed=123)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "length, shift, message",
        [(0, 0, "^shifted_uniform scenario needs length >= 1$"),
         (-3, -3, "^shifted_uniform scenario needs length >= 1$"),
         (10, 11, r"^shift must lie in \[0, length\], got 11$"),
         (10, -1, r"^shift must lie in \[0, length\], got -1$")],
    )
    def test_shift_has_one_check(self, length, shift, message):
        # The generator gave two empty sources for length 0.
        for check in (
            check_shift,
            lambda n, s: generate_shifted_uniform_sources(n, s, 1),
            lambda n, s: ScenarioConfig(kind="shifted_uniform", mixing=((1.0, 0.5),), length=n, shift=s),
        ):
            with pytest.raises(ValueError, match=message):
                check(length, shift)


class TestMix:
    def test_unit_source_vector_maps_to_matrix_column(self):
        s = np.array([[1.0, 0.0], [0.0, 0.0]])
        z = mix(s, EXAMPLE1_MIXING)
        np.testing.assert_allclose(z[:, 0], [1.3, 1.0], atol=1e-15)

    def test_identity_mixing(self):
        rng = np.random.default_rng(61)
        s = rng.normal(size=(3, 20))
        np.testing.assert_array_equal(mix(s, np.eye(3)), s)

    def test_second_example_matrix(self):
        a = np.array([[0.799, -0.498], [-0.373, -0.133]])
        s = np.array([[0.0, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(mix(s, a)[:, 0], [-0.498, -0.133], atol=1e-15)

    def test_linearity_exact_on_integer_data(self):
        rng = np.random.default_rng(62)
        a = np.array([[2.0, -3.0], [1.0, 4.0]])
        s1 = rng.integers(-50, 50, size=(2, 30)).astype(float)
        s2 = rng.integers(-50, 50, size=(2, 30)).astype(float)
        np.testing.assert_array_equal(mix(s1 + s2, a), mix(s1, a) + mix(s2, a))

    def test_linearity_on_floats(self):
        rng = np.random.default_rng(64)
        s1 = rng.normal(size=(2, 30))
        s2 = rng.normal(size=(2, 30))
        np.testing.assert_allclose(
            mix(s1 + s2, EXAMPLE1_MIXING),
            mix(s1, EXAMPLE1_MIXING) + mix(s2, EXAMPLE1_MIXING),
            atol=1e-12,
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mix(np.ones((3, 10)), EXAMPLE1_MIXING)


class TestMinPeakContribution:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            min_peak_contribution(np.ones((3, 10)), EXAMPLE1_MIXING)

    def test_two_pulse_scenario_value(self):
        # the smaller pulse's center (0.026 s) falls between 250 Hz grid
        # points; its largest sample sits 0.002 s off-center:
        # 0.1 * exp(-0.002**2 / (2 * 0.00625**2)) scaled by the matrix
        # entry 2.0 gives the smallest peak contribution.  This is the
        # sampled counterpart of the nominal 0.2 (2.0 * 0.1) that
        # acceptance criterion 5 checks on the pulse amplitudes
        s = example1_sources()
        expected = 2.0 * 0.1 * math.exp(-(0.002**2) / (2 * 0.00625**2))
        assert min_peak_contribution(s, EXAMPLE1_MIXING) == pytest.approx(
            expected, rel=1e-15
        )
        assert min_peak_contribution(s, EXAMPLE1_MIXING) == pytest.approx(
            0.19001772676052542, rel=1e-15
        )

    def test_unit_peak_source_through_unit_mixing(self):
        s = np.array([[0.2, 1.0, -0.3]])
        assert min_peak_contribution(s, np.eye(1)) == 1.0

    def test_zero_mixing_entry_dominates_minimum(self):
        # an absent source/channel pairing contributes a zero peak
        s = np.array([[0.2, 1.0, -0.3], [0.5, -1.0, 0.0]])
        assert min_peak_contribution(s, np.eye(2)) == 0.0

    def test_zero_source_gives_zero(self):
        s = np.array([[1.0, 2.0], [0.0, 0.0]])
        assert min_peak_contribution(s, EXAMPLE1_MIXING) == 0.0

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(63)
        s = rng.normal(size=(2, 40))
        a = rng.normal(size=(2, 2))
        base = min_peak_contribution(s, a)
        assert min_peak_contribution(-s, a) == pytest.approx(base, rel=1e-15)
        flipped = a.copy()
        flipped[0, 1] *= -1
        assert min_peak_contribution(s, flipped) == pytest.approx(base, rel=1e-15)


class TestAddNoise:
    def test_zero_sd_is_exact_copy(self):
        z = np.arange(20.0).reshape(2, 10)
        out = add_noise(z, 0.0, seed=1)
        assert np.array_equal(out, z)

    def test_deterministic_given_seed(self):
        z = np.zeros((2, 100))
        assert np.array_equal(add_noise(z, 0.1, seed=9), add_noise(z, 0.1, seed=9))
        assert not np.array_equal(add_noise(z, 0.1, seed=9), add_noise(z, 0.1, seed=10))

    def test_empirical_sd_within_one_percent(self):
        z = np.zeros((100, 10_000))  # 1e6 entries
        noise = add_noise(z, 0.005, seed=77) - z
        assert abs(noise.std() - 0.005) < 0.005 * 0.01
        assert abs(noise.mean()) < 0.005 * 0.01

    @pytest.mark.parametrize("sd", [-0.1, -1e-300, math.nan, math.inf, -math.inf])
    def test_noise_level_has_one_check(self, sd):
        example1 = load_preset("example1").to_dict()
        for key, check in (
            ("sd", lambda v: check_nonnegative("sd", v)),
            ("sd", lambda v: add_noise(np.ones((1, 4)), v, seed=0)),
            ("sd", lambda v: noisy_stack(np.ones((1, 4)), v, [0, 1])),
            ("noise_sd", lambda v: ScenarioConfig.from_dict(dict(example1, noise_sd=v))),
        ):
            with pytest.raises(ValueError, match=f"^{key} must be finite and nonnegative, got "):
                check(sd)

    def test_overflowing_noise_raises_without_a_warning(self):
        # draws beyond 1.8 overflow 1e308 * draw; the error names the sd
        _, clean = load_preset("example1").generate()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=re.escape("sd 1e+308")):
                add_noise(clean, 1e308, 3)

    @pytest.mark.parametrize("shape", [(1, 4), (3, 7), (2, 40_001)])
    def test_new_array_with_the_bits_of_the_formula(self, shape):
        z = np.random.default_rng(8).normal(size=shape)
        before = z.copy()
        out = add_noise(z, 0.03, seed=21)
        assert z.tobytes() == before.tobytes()
        assert out.tobytes() == (z + 0.03 * normal_matrix(21, shape)).tobytes()

    @pytest.mark.parametrize("sd", [0.0, 0.03])
    def test_each_record_of_the_stack_is_add_noise_of_its_seed(self, sd):
        z = np.random.default_rng(5).normal(size=(3, 11))
        seeds = [4, 2**64 - 1, 4, 17]
        stack = noisy_stack(z, sd, seeds)
        assert stack.shape == (4, 3, 11)
        for record, seed in zip(stack, seeds):
            assert record.tobytes() == add_noise(z, sd, seed).tobytes()
        assert not np.shares_memory(stack, z)

    def test_peak_memory_is_near_one_record(self):
        # full-size Box-Muller temporaries would need about 5 records here
        z = np.ones((4, 250_000))
        tracemalloc.start()
        try:
            add_noise(z, 0.01, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * z.nbytes
