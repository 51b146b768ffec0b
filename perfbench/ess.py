"""Rank-normalised split bulk effective sample size (Vehtari et al. 2021).

The chain is split in half, the pooled draws are replaced by the normal
scores of their ranks, and the effective sample size of the two halves
is estimated from their autocorrelations, truncated by Geyer's initial
positive sequence and made monotone (Stan's estimator).
"""
from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance at every lag, by FFT."""
    n = x.shape[0]
    centred = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, size)
    return np.fft.irfft(spectrum * np.conjugate(spectrum), size)[:n] / n


def _ess(chains: np.ndarray) -> float:
    """Effective sample size of an (n_chains, n_draws) array."""
    n_chains, n = chains.shape
    acov = np.array([_autocovariance(c) for c in chains])
    within = np.mean(acov[:, 0]) * n / (n - 1)
    var_plus = within * (n - 1) / n
    if n_chains > 1:
        var_plus += np.var(chains.mean(axis=1), ddof=1)
    if var_plus <= 0.0:
        return float(n_chains * n)
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0

    # Geyer: sum consecutive pairs while their sum stays positive, and
    # force the pair sums to be non-increasing
    pair_sum = 0.0
    previous = np.inf
    t = 0
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair < 0.0:
            break
        previous = min(previous, pair)
        pair_sum += previous
        t += 2
    tau = -1.0 + 2.0 * pair_sum
    total = n_chains * n
    tau = max(tau, 1.0 / np.log10(total))
    return float(total / tau)


def bulk_ess(draws) -> float:
    """Bulk ESS of one chain of scalar draws (at least 4 of them)."""
    x = np.asarray(draws, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] < 4:
        raise ValueError("need a 1-d chain of at least 4 draws")
    half = x.shape[0] // 2
    split = np.stack([x[:half], x[-half:]])
    ranks = rankdata(split, method="average").reshape(split.shape)
    z = ndtri((ranks - 0.375) / (split.size + 0.25))
    return _ess(z)
