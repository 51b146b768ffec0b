"""Orthonormal frames on the Stiefel manifold.

A frame is an m x R matrix U with U'U = I_R, i.e. a point on the Stiefel
manifold V_{R,m}.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, DimensionError, InputError

# Max-norm tolerance for U'U = I, enforced at construction and after
# every sampler step.
FRAME_TOL = 1e-10
# Tolerance for symmetry checks on A.
SYMMETRY_TOL = 1e-12


def frame_defect(entries: np.ndarray) -> float:
    """max |U'U - I|, the orthonormality defect of a candidate frame."""
    entries = np.asarray(entries, dtype=np.float64)
    gram = entries.T @ entries
    gram.flat[::entries.shape[1] + 1] -= 1.0
    return float(np.abs(gram).max())


def orthonormalize(entries: np.ndarray) -> np.ndarray:
    """Thin QR with the sign of diag(R) fixed to be positive.

    Used both to repair floating-point drift after long Gibbs runs and as
    the measure-preserving step of uniform sampling (the sign fix removes
    the QR sign ambiguity that would otherwise break Haar uniformity).
    """
    q, r = np.linalg.qr(np.asarray(entries, dtype=np.float64))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def require_symmetric(a: np.ndarray, tol: float = SYMMETRY_TOL, name: str = "A") -> np.ndarray:
    """a as a float array, checked square with max |a - a'| <= tol. a - a'
    is antisymmetric, so its largest entry is its largest absolute entry;
    a non-finite entry of a leaves a NaN there, reported as InputError."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, reported below
        if not (a - a.T).max(initial=0.0) <= tol:
            if not np.isfinite(a).all():
                raise InputError(f"{name} has non-finite entries")
            raise ConstraintError(f"{name} is not symmetric within {tol}")
    return a


@dataclass(frozen=True)
class OrthonormalFrame:
    """An m x R matrix with orthonormal columns (a point on V_{R,m})."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.ascontiguousarray(self.entries, dtype=np.float64)
        if entries.ndim != 2:
            raise DimensionError(f"frame must be 2-d, got ndim={entries.ndim}")
        m, r = entries.shape
        if r < 1 or m < 1:
            raise DimensionError(f"frame dimensions must be positive, got {m}x{r}")
        if r > m:
            raise DimensionError(f"frame has more columns than rows ({m}x{r})")
        defect = frame_defect(entries)
        if defect > FRAME_TOL:
            raise ConstraintError(
                f"columns not orthonormal: max |U'U - I| = {defect:.3e} "
                f"> {FRAME_TOL}")
        object.__setattr__(self, "entries", entries)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


def random_uniform_frame(m: int, r: int, rng: np.random.Generator) -> OrthonormalFrame:
    """Draw a frame uniformly (invariant Haar measure) on V_{r,m}.

    Standard construction: thin QR of an m x r matrix of independent
    standard normals, with diag(R) made positive.
    """
    if m < 1 or r < 1 or r > m:
        raise DimensionError(f"need 1 <= r <= m, got m={m}, r={r}")
    return OrthonormalFrame(orthonormalize(rng.standard_normal((m, r))))
