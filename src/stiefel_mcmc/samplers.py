"""Random-variate generation for MF and Bingham families on sphere and manifold.

Vector samplers are exact draws:

* ``sample_mf_vector`` -- tangent-normal decomposition with Wood's (1994)
  rejection sampler for the angle cosine.
* ``sample_bingham_vector`` -- rotation to the eigenbasis of A plus
  rejection from an angular-central-Gaussian envelope (Kent, Ganeiber &
  Mardia 2018).

Matrix samplers are column-wise Gibbs kernels: conditional on the other
columns, column j of a frame is confined to the unit sphere of their
orthogonal complement, where the target reduces to a vector MF (resp.
vector Bingham) law. Each column is redrawn exactly from that conditional,
so one call is one sweep of a Markov kernel whose stationary distribution
is the target; it is not an independent draw from the target. For an
approximately independent draw, ``sample_mf_matrix`` runs a documented
number of burn sweeps from a uniform start.

Both sweeps redraw a column through one kernel contract,
``kernels.mf_vector(c, rng, others)`` and
``kernels.bingham_spectral(lam, rng, others)``: the kernel is handed the
other columns and returns a unit vector orthogonal to them, and no basis
of their complement is formed. The Bingham sweep works in the eigenbasis
of A, decomposed once per sweep.

Square frames (R = m) are accepted but the sweep degenerates there: each
column is determined by the others up to sign, so the kernel only flips
signs and is not irreducible on the orthogonal group. Keep R < m when the
chain actually needs to move.
"""
from __future__ import annotations

import functools
import logging

import numpy as np

from . import kernels
from .errors import ConstraintError, DimensionError, InputError
from .frames import (
    FRAME_TOL,
    OrthonormalFrame,
    frame_defect,
    orthonormalize,
    random_uniform_frame,
    require_symmetric,
)

# Sweeps used by sample_mf_matrix to wash out the starting frame.
DEFAULT_BURN_SWEEPS = 25

log = logging.getLogger("stiefel_mcmc")


def sample_mf_vector(c: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Exact draw from density prop-to exp(c'u) on the unit sphere of R^m."""
    c = np.atleast_1d(np.asarray(c, dtype=np.float64))
    if c.ndim != 1 or c.shape[0] < 1:
        raise DimensionError("c must be a non-empty vector")
    if not np.all(np.isfinite(c)):
        raise InputError("c has non-finite entries")
    return kernels.mf_vector(c, rng)


def sample_bingham_vector(A: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Exact draw from density prop-to exp(u'Au) on the unit sphere of R^m."""
    a = require_symmetric(A)
    lam, evecs = np.linalg.eigh(a)
    y = kernels.bingham_spectral(lam, rng)
    u = evecs @ y
    return u / np.linalg.norm(u)


def _check_kernel_args(param: np.ndarray, current: OrthonormalFrame, name: str):
    if param.shape != (current.rows, current.cols):
        raise DimensionError(
            f"{name} has shape {param.shape}, expected "
            f"{(current.rows, current.cols)} to match the frame")


def _ensure_frame(entries: np.ndarray) -> OrthonormalFrame:
    # repair drift instead of failing, and say so; sweeps only compose
    # orthonormal pieces so this fires rarely even in very long runs. The
    # frame's own check is the one defect computation of a sweep.
    try:
        return OrthonormalFrame(entries)
    except ConstraintError:
        log.warning("frame drifted to max |U'U - I| = %.3e > %g; "
                    "re-orthonormalized the %dx%d frame",
                    frame_defect(entries), FRAME_TOL, *entries.shape)
        return OrthonormalFrame(orthonormalize(entries))


@functools.lru_cache(maxsize=16)
def _other_columns(r: int) -> tuple[np.ndarray, ...]:
    """For each column j of an r-column frame, the indices of the other
    columns, cached per r: indexing by them costs about a third of
    ``np.delete``. Read-only, since every sweep shares them."""
    rest = tuple(np.delete(np.arange(r), j) for j in range(r))
    for idx in rest:
        idx.flags.writeable = False
    return rest


def _sweep_columns(u: np.ndarray, draw) -> np.ndarray:
    """Redraw the columns of u in place, in order: column j becomes
    draw(j, others), others being the other columns as they stand (None
    for a single column). The one column-update shape of both sweeps."""
    if u.shape[1] == 1:
        u[:, 0] = draw(0, None)
        return u
    for j, rest in enumerate(_other_columns(u.shape[1])):
        u[:, j] = draw(j, u[:, rest])
    return u


def sample_mf_matrix_gibbs(C: np.ndarray,
                           current: OrthonormalFrame,
                           rng: np.random.Generator) -> OrthonormalFrame:
    """One Gibbs sweep over columns targeting density prop-to etr(C'U).

    Column j is redrawn from its full conditional, the vector MF law
    exp(c_j'u) on the unit sphere orthogonal to the other columns, by
    ``kernels.mf_vector(c_j, rng, others)``: no basis of that complement
    is formed, so a sweep costs O(m r^2). For R = 1 each sweep is one
    exact vector draw, the same draws as ``sample_mf_vector``.
    """
    c = np.asarray(C, dtype=np.float64)
    _check_kernel_args(c, current, "C")
    if not np.all(np.isfinite(c)):
        raise InputError("C has non-finite entries")
    u = _sweep_columns(current.entries.copy(),
                       lambda j, others: kernels.mf_vector(c[:, j], rng, others))
    return _ensure_frame(u)


def sample_mf_matrix(C: np.ndarray,
                     rng: np.random.Generator,
                     sweeps: int = DEFAULT_BURN_SWEEPS) -> OrthonormalFrame:
    """Approximately independent draw targeting etr(C'U).

    Runs `sweeps` Gibbs sweeps (default 25) from a uniform random frame.
    The result is a Markov-chain state, not an exact draw; 25 sweeps is
    ample for the moderate concentrations arising in the bundled models.
    """
    c = np.asarray(C, dtype=np.float64)
    if c.ndim != 2:
        raise DimensionError("C must be a matrix")
    state = random_uniform_frame(c.shape[0], c.shape[1], rng)
    for _ in range(max(1, sweeps)):
        state = sample_mf_matrix_gibbs(c, state, rng)
    return state


def sample_bingham_matrix_gibbs(A: np.ndarray,
                                b: np.ndarray,
                                current: OrthonormalFrame,
                                rng: np.random.Generator) -> OrthonormalFrame:
    """One Gibbs sweep over columns targeting density prop-to etr(diag(b) U'A U).

    A is centered by its mean diagonal entry before anything else; the
    target is invariant under A -> A + aI, and doing the shift up front
    makes the kernel honor that invariance by construction (identical
    random streams give identical output) while also keeping the
    exponentials well scaled.

    The centred A is decomposed once, A = E diag(lam) E', and the sweep
    holds Ut = E'U. Column j of Ut is redrawn from its full conditional, the
    vector Bingham law exp(b_j v' diag(lam) v) on the unit sphere
    orthogonal to the other columns, by
    ``kernels.bingham_spectral(b_j * lam, rng, others)``; U = E Ut is formed
    once at the end. One ``eigh`` per sweep and O(n k) work per proposal,
    k = R - 1; b_j = 0 gives a uniform draw on that sphere. For R = 1
    each sweep is one exact vector draw.
    """
    a = require_symmetric(A)
    bvec = np.atleast_1d(np.asarray(b, dtype=np.float64))
    if a.shape[0] != current.rows:
        raise DimensionError(
            f"A has shape {a.shape}, expected ({current.rows}, {current.rows})")
    if bvec.shape != (current.cols,):
        raise DimensionError(
            f"b has shape {bvec.shape}, expected ({current.cols},)")
    # a non-finite entry of A has already failed the symmetry check
    if not np.isfinite(bvec).all():
        raise InputError("b has non-finite entries")

    m = a.shape[0]
    a = a.copy()
    a.flat[::m + 1] -= a.trace() / m

    lam, evecs = np.linalg.eigh(a)
    ut = _sweep_columns(
        evecs.T @ current.entries,
        lambda j, others: kernels.bingham_spectral(bvec[j] * lam, rng, others))
    return _ensure_frame(evecs @ ut)
