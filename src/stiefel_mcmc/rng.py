"""Reproducible random streams.

All sampling code takes an explicit ``numpy.random.Generator``. The CLI
derives per-task generators from a single 64-bit seed through fixed,
labeled spawn keys, so independent chains get independent streams while
the whole run stays reproducible from one number.
"""
from __future__ import annotations

import numpy as np

from .errors import InputError

# Fixed labels for derived streams. Never renumber: changing a label
# changes every seeded output downstream.
STREAM_LABELS = {
    "svd-sim": 1,
    "svd-fit": 2,
    "eigen-fit": 3,
}


def derive_rng(seed: int, label: str, chain: int = 0) -> np.random.Generator:
    """Generator for stream `label`, chain index `chain`, under `seed`.
    Raises InputError for a negative seed."""
    if label not in STREAM_LABELS:
        raise KeyError(f"unknown stream label {label!r}")
    if seed < 0:
        raise InputError(f"seed must be a non-negative integer, got {seed}")
    ss = np.random.SeedSequence(seed, spawn_key=(STREAM_LABELS[label], chain))
    return np.random.Generator(np.random.PCG64(ss))
