"""Tests for the FitResult container."""

import numpy as np
import pytest

from repro.core import FitResult
from repro.privacy import PrivacyAccountant, PrivacyBudget


def _make_result(**overrides):
    accountant = PrivacyAccountant()
    accountant.spend(PrivacyBudget(1.0), "exponential")
    defaults = dict(
        w=np.array([0.5, -0.5]),
        n_iterations=3,
        accountant=accountant,
        advertised_budget=PrivacyBudget(1.0),
    )
    defaults.update(overrides)
    return FitResult(**defaults)


class TestFitResult:
    def test_privacy_spent_matches_ledger(self):
        result = _make_result()
        assert result.privacy_spent.epsilon == pytest.approx(1.0)

    def test_privacy_spent_none_for_empty_ledger(self):
        result = _make_result(accountant=PrivacyAccountant())
        assert result.privacy_spent is None

    def test_repr_mentions_iterations_and_budget(self):
        text = repr(_make_result())
        assert "n_iterations=3" in text
        assert "(1)-DP" in text

    def test_metadata_defaults_to_empty_dict(self):
        result = _make_result()
        assert result.metadata == {}
        result.metadata["key"] = 1  # mutable per-instance
        assert _make_result().metadata == {}
