"""Unit tests for the stats and utils packages."""

import numpy as np
import pytest

from repro.stats.descriptive import standard_error, summarize
from repro.stats.significance import linear_fit_significance, paired_t_test, welch_t_test
from repro.utils.rng import derive_rng, ensure_rng, spawn_rngs, weighted_choice
from repro.utils.tables import format_series, format_table
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive_int,
    check_probability_vector,
)


class TestDescriptive:
    def test_summarize_basic(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.mean == 2.0
        assert summary.n == 3
        assert summary.ci_low < 2.0 < summary.ci_high

    def test_summarize_single_value(self):
        summary = summarize([5.0])
        assert summary.mean == 5.0
        assert summary.stderr == 0.0
        assert summary.ci_low == summary.ci_high == 5.0

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            summarize([1, 2], confidence=1.5)

    def test_standard_error(self):
        assert standard_error([1.0]) == 0.0
        assert standard_error([1.0, 3.0]) == pytest.approx(1.0)


class TestSignificance:
    def test_welch_detects_separation(self, rng):
        a = rng.normal(0.8, 0.05, 30)
        b = rng.normal(0.6, 0.05, 30)
        result = welch_t_test(a, b)
        assert result.significant(0.01)
        assert result.mean_difference > 0

    def test_welch_no_difference(self, rng):
        a = rng.normal(0.5, 0.05, 30)
        b = rng.normal(0.5, 0.05, 30)
        assert not welch_t_test(a, b).significant(0.001)

    def test_paired_requires_equal_sizes(self):
        with pytest.raises(ValueError):
            paired_t_test([1, 2, 3], [1, 2])

    def test_paired_detects_shift(self, rng):
        base = rng.normal(0.5, 0.1, 20)
        shifted = base + 0.2 + rng.normal(0, 0.01, 20)
        assert paired_t_test(shifted, base).significant(0.001)

    def test_tiny_samples_rejected(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [2.0, 3.0])

    def test_linear_fit_significance_ci(self):
        x = np.linspace(0, 1, 20)
        y = 2.0 * x + 1.0
        sig = linear_fit_significance(x, y + np.random.default_rng(0).normal(0, 0.01, 20))
        assert sig.slope_in_ci(2.0)
        assert sig.r_squared > 0.99


class TestRngHelpers:
    def test_ensure_rng_from_int_deterministic(self):
        assert ensure_rng(5).integers(100) == ensure_rng(5).integers(100)

    def test_ensure_rng_passthrough(self, rng):
        assert ensure_rng(rng) is rng

    def test_ensure_rng_rejects_garbage(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")

    def test_spawn_rngs_independent(self):
        a, b = spawn_rngs(1, 2)
        assert a.integers(10**9) != b.integers(10**9) or True  # streams differ
        assert len(spawn_rngs(1, 0)) == 0

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)

    def test_derive_rng_label_sensitive(self, rng):
        base = ensure_rng(7)
        d1 = derive_rng(base, "a")
        base2 = ensure_rng(7)
        d2 = derive_rng(base2, "a")
        assert d1.integers(10**9) == d2.integers(10**9)

    def test_weighted_choice_respects_weights(self, rng):
        picks = [weighted_choice(rng, ["a", "b"], [0.0, 1.0]) for _ in range(10)]
        assert set(picks) == {"b"}

    def test_weighted_choice_validation(self, rng):
        with pytest.raises(ValueError):
            weighted_choice(rng, [], [])
        with pytest.raises(ValueError):
            weighted_choice(rng, ["a"], [0.0])
        with pytest.raises(ValueError):
            weighted_choice(rng, ["a"], [1.0, 2.0])


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.34567]], precision=2)
        assert "a" in text and "bb" in text
        assert "2.35" in text

    def test_format_table_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_series(self):
        text = format_series("x", [1, 2], {"y": [0.1, 0.2]}, title="T")
        assert text.startswith("T")
        assert "0.1000" in text

    def test_format_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("x", [1, 2], {"y": [0.1]})


class TestValidation:
    def test_check_fraction(self):
        assert check_fraction("x", 0.5) == 0.5
        with pytest.raises(ValueError):
            check_fraction("x", -0.1)
        with pytest.raises(ValueError):
            check_fraction("x", 0.0, allow_zero=False)
        with pytest.raises(ValueError):
            check_fraction("x", float("nan"))

    def test_check_positive_int(self):
        assert check_positive_int("n", 3) == 3
        for bad in (0, -1, 1.5, True):
            with pytest.raises(ValueError):
                check_positive_int("n", bad)

    def test_check_non_negative(self):
        assert check_non_negative("v", 0.0) == 0.0
        with pytest.raises(ValueError):
            check_non_negative("v", -1)
        with pytest.raises(ValueError):
            check_non_negative("v", float("inf"))

    @pytest.mark.parametrize(
        "value, allow_zero, message",
        [
            (float("nan"), True, "x must not be NaN"),
            (np.float64("nan"), True, "x must not be NaN"),
            (float("inf"), True, "x must lie in [0, 1], got inf"),
            (float("-inf"), True, "x must lie in [0, 1], got -inf"),
            (np.float32(1.5), True, "x must lie in [0, 1], got 1.5"),
            (np.int64(2), True, "x must lie in [0, 1], got 2.0"),
            (-0.1, True, "x must lie in [0, 1], got -0.1"),
            (1.0000001, True, "x must lie in [0, 1], got 1.0000001"),
            (-0.0, False, "x must lie in (0, 1], got -0.0"),
        ],
    )
    def test_check_fraction_messages(self, value, allow_zero, message):
        with pytest.raises(ValueError) as raised:
            check_fraction("x", value, allow_zero=allow_zero)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "value, message",
        [
            (float("nan"), "v must be finite and >= 0, got nan"),
            (np.float64("nan"), "v must be finite and >= 0, got nan"),
            (float("inf"), "v must be finite and >= 0, got inf"),
            (float("-inf"), "v must be finite and >= 0, got -inf"),
            (np.float32(-2.5), "v must be finite and >= 0, got -2.5"),
            (-1, "v must be finite and >= 0, got -1.0"),
        ],
    )
    def test_check_non_negative_messages(self, value, message):
        with pytest.raises(ValueError) as raised:
            check_non_negative("v", value)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "value", [np.float64(0.25), np.float32(0.5), np.int32(0), 1, True]
    )
    def test_scalar_checks_return_python_floats(self, value):
        for checked in (check_fraction("x", value), check_non_negative("v", value)):
            assert type(checked) is float and checked == float(value)

    def test_check_probability_vector(self):
        out = check_probability_vector("p", [0.5, 0.5])
        assert out.sum() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            check_probability_vector("p", [0.5, 0.6])
        with pytest.raises(ValueError):
            check_probability_vector("p", [])
        with pytest.raises(ValueError):
            check_probability_vector("p", [-0.5, 1.5])
