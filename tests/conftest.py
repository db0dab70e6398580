"""Shared fixtures for the test suite."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_linear_data(rng):
    """A tiny well-conditioned linear dataset: (X, y, w_star)."""
    n, d = 400, 8
    w_star = np.zeros(d)
    w_star[:3] = [0.3, -0.2, 0.1]
    X = rng.normal(size=(n, d))
    y = X @ w_star + 0.05 * rng.normal(size=n)
    return X, y, w_star


@pytest.fixture
def record_loads(monkeypatch):
    """Every path ``ResultsStore.load`` reads and verifies, in order."""
    import repro.results.store as store_module

    loads = []
    real = store_module.load_record

    def counting(path):
        loads.append(path)
        return real(path)

    monkeypatch.setattr(store_module, "load_record", counting)
    return loads
