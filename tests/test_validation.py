"""Tests for the shared validation helpers."""

import numpy as np
import pytest

from repro._validation import (
    check_dataset,
    check_in_choices,
    check_matrix,
    check_non_negative,
    check_positive,
    check_positive_int,
    check_probability,
    check_vector,
)
from repro.exceptions import ConfigurationError, DataShapeError, ReproError


class TestScalarChecks:
    def test_positive_ok(self):
        assert check_positive(2.5, "x") == 2.5

    @pytest.mark.parametrize("bad", [0, -1, float("nan"), float("inf")])
    def test_positive_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            check_positive(bad, "x")

    def test_non_negative_accepts_zero(self):
        assert check_non_negative(0, "x") == 0.0

    def test_non_negative_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            check_non_negative(-0.1, "x")

    def test_probability_bounds(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0
        with pytest.raises(ConfigurationError):
            check_probability(1.5, "p")

    def test_probability_open_bounds(self):
        with pytest.raises(ConfigurationError):
            check_probability(0.0, "p", allow_zero=False)
        with pytest.raises(ConfigurationError):
            check_probability(1.0, "p", allow_one=False)

    @pytest.mark.parametrize("allow_zero, allow_one, interval", [
        (True, True, "[0, 1]"),
        (True, False, "[0, 1)"),
        (False, True, "(0, 1]"),
        (False, False, "(0, 1)"),
    ])
    def test_probability_message_names_the_enforced_interval(
            self, allow_zero, allow_one, interval):
        with pytest.raises(ConfigurationError) as info:
            check_probability(2.0, "delta", allow_zero=allow_zero,
                              allow_one=allow_one)
        assert str(info.value) == (
            f"delta must be a probability in {interval}, got 2.0")

    def test_positive_int(self):
        assert check_positive_int(3, "k") == 3
        with pytest.raises(ConfigurationError):
            check_positive_int(0, "k")
        with pytest.raises(ConfigurationError):
            check_positive_int(2.5, "k")

    @pytest.mark.parametrize("value, shown", [
        (float("inf"), "inf"), (float("nan"), "nan"), (True, "True")])
    def test_positive_int_refuses_inf_nan_and_bool(self, value, shown):
        with pytest.raises(ConfigurationError) as info:
            check_positive_int(value, "n_samples")
        assert str(info.value) == (
            f"n_samples must be a positive integer, got {shown}")


class TestArrayChecks:
    def test_vector_coerces(self):
        out = check_vector([1, 2, 3], "v")
        assert out.dtype == float and out.shape == (3,)

    def test_vector_dim_mismatch(self):
        with pytest.raises(DataShapeError):
            check_vector([1, 2], "v", dim=3)

    def test_vector_rejects_matrix(self):
        with pytest.raises(DataShapeError):
            check_vector(np.ones((2, 2)), "v")

    def test_vector_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            check_vector([1.0, np.nan], "v")

    def test_matrix_rejects_vector(self):
        with pytest.raises(DataShapeError):
            check_matrix(np.ones(3), "m")

    def test_dataset_row_mismatch(self):
        with pytest.raises(DataShapeError):
            check_dataset(np.ones((4, 2)), np.ones(3))

    def test_dataset_empty(self):
        with pytest.raises(ConfigurationError):
            check_dataset(np.ones((0, 2)), np.ones(0))

    def test_dataset_ok(self):
        X, y = check_dataset(np.ones((4, 2)), np.ones(4))
        assert X.shape == (4, 2) and y.shape == (4,)


class TestChoices:
    def test_accepts_member(self):
        assert check_in_choices("a", "opt", ["a", "b"]) == "a"

    def test_rejects_other(self):
        with pytest.raises(ConfigurationError):
            check_in_choices("c", "opt", ["a", "b"])


class TestExceptionHierarchy:
    def test_configuration_is_value_error(self):
        assert issubclass(ConfigurationError, ValueError)
        assert issubclass(ConfigurationError, ReproError)

    def test_data_shape_is_configuration(self):
        assert issubclass(DataShapeError, ConfigurationError)
