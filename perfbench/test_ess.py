"""Checks of the bulk ESS estimator against chains with known ESS.

Run with: python -m pytest perfbench/test_ess.py
"""
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from ess import bulk_ess  # noqa: E402


def ar1_chain(rho, n, seed):
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(n) * np.sqrt(1.0 - rho * rho)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for t in range(1, n):
        x[t] = rho * x[t - 1] + eps[t]
    return x


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_ar1_matches_analytic_ess(rho):
    n = 40_000
    expected = n * (1.0 - rho) / (1.0 + rho)
    estimates = [bulk_ess(ar1_chain(rho, n, seed)) for seed in range(5)]
    assert np.mean(estimates) == pytest.approx(expected, rel=0.08)


def test_iid_chain_has_ess_near_n():
    n = 20_000
    estimates = [bulk_ess(np.random.default_rng(seed).standard_normal(n))
                 for seed in range(5)]
    assert np.mean(estimates) == pytest.approx(n, rel=0.08)


def test_rank_normalisation_ignores_monotone_transforms():
    x = ar1_chain(0.7, 5_000, 11)
    assert bulk_ess(np.exp(3.0 * x)) == pytest.approx(bulk_ess(x), rel=1e-12)


def test_stuck_halves_have_small_ess():
    # each half is constant at a different level: no mixing between halves
    x = np.concatenate([np.zeros(500), np.ones(500)])
    x += 1e-9 * np.random.default_rng(0).standard_normal(1000)
    assert bulk_ess(x) < 50


def test_rejects_short_chain():
    with pytest.raises(ValueError):
        bulk_ess([1.0, 2.0, 3.0])
