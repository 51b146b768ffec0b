"""Random-variate generation for MF and Bingham families on sphere and manifold.

Vector samplers are exact draws:

* ``sample_mf_vector`` -- tangent-normal decomposition with Wood's (1994)
  rejection sampler for the angle cosine.
* ``sample_bingham_vector`` -- rejection from an angular-central-Gaussian
  envelope (Kent, Ganeiber & Mardia 2018) in A's own basis.

Matrix samplers are column-wise Gibbs kernels: conditional on the other
columns, column j of a frame is confined to the unit sphere of their
orthogonal complement, where the target reduces to a vector MF (resp.
vector Bingham) law. Each column is redrawn exactly from that conditional,
so one call is one sweep of a Markov kernel whose stationary distribution
is the target; it is not an independent draw from the target.

Both sweeps redraw a column through one kernel contract,
``kernels.mf_vector(c, rng, others)`` and
``kernels.bingham_spectral(b_j * A, rng, others, u_j, counts)``, the
latter on the matrix itself, started at the column's current value u_j:
the kernel is handed the other columns, m x 0 for a single column, and
returns a unit vector orthogonal to them; no basis of their complement is
formed, and neither sweep decomposes A or C.

Square frames (R = m) are accepted but the sweep degenerates there: each
column is determined by the others up to sign, so the kernel only flips
signs and is not irreducible on the orthogonal group. Keep R < m when the
chain actually needs to move.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConstraintError, DimensionError, InputError
from .frames import OrthonormalFrame, orthonormalize, require_symmetric

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
    """Exact draw from density prop-to exp(u'Au) on the unit sphere of R^m:
    ``kernels.bingham_spectral`` on A centred by its mean diagonal entry."""
    return kernels.bingham_spectral(_centred(A), rng)


def _centred(A: np.ndarray) -> np.ndarray:
    """A checked symmetric and non-empty, as a copy centred by its mean
    diagonal entry, which keeps the ACG envelope's shift small."""
    a = require_symmetric(A).copy()
    if not a.size:
        raise DimensionError("A must be a non-empty matrix")
    a.flat[::a.shape[0] + 1] -= a.trace() / a.shape[0]
    return a


def _sweep(current: OrthonormalFrame, draw, counts) -> OrthonormalFrame:
    """One Gibbs sweep from `current`, the column update of both samplers:
    on a copy of its entries, column j becomes draw(j, u_j, others) in
    order, u_j and others being column j and the other columns as they
    stand (m x 0 for a single column). Column j, once drawn, goes into
    slot j of the others, which turns column j's others into column
    j+1's. Returns the certified frame; `counts`, if given, counts a
    repair."""
    u = current.entries.copy()
    # Fortran order, as the gather u[:, rest] gave: BLAS sums the kernels'
    # products in an order set by the layout, and a C-ordered buffer
    # changes seeded draws in their last bits
    others = np.array(u[:, 1:], order="F")
    for j in range(u.shape[1]):
        u[:, j] = draw(j, u[:, j], others)
        if j < others.shape[1]:
            others[:, j] = u[:, j]
    # repair drift instead of failing, and say so and count it; sweeps only
    # compose orthonormal pieces so this fires rarely even in very long
    # runs. The frame's own check is the one defect computation of a sweep.
    try:
        return OrthonormalFrame(u)
    except ConstraintError as drift:
        log.warning("%s; re-orthonormalized the %dx%d frame", drift, *u.shape)
        if counts is not None:
            counts.frame_repairs += 1
        return OrthonormalFrame(orthonormalize(u))


def sample_mf_matrix_gibbs(C: np.ndarray,
                           current: OrthonormalFrame,
                           rng: np.random.Generator,
                           counts=None) -> OrthonormalFrame:
    """One Gibbs sweep over columns targeting density prop-to etr(C'U).

    Column j is redrawn from its full conditional, the vector MF law
    exp(c_j'u) on the unit sphere orthogonal to the other columns, by
    ``kernels.mf_vector(c_j, rng, others)``: no basis of that complement
    is formed, so a sweep costs O(m r^2). For R = 1 each sweep is one
    exact vector draw, the same draws as ``sample_mf_vector``. `counts`,
    if given, counts frame repairs.
    """
    c = np.asarray(C, dtype=np.float64)
    if c.shape != (current.rows, current.cols):
        raise DimensionError(
            f"C has shape {c.shape}, expected "
            f"{(current.rows, current.cols)} to match the frame")
    if not np.all(np.isfinite(c)):
        raise InputError("C has non-finite entries")
    return _sweep(current, lambda j, u_j, others:
                  kernels.mf_vector(c[:, j], rng, others), counts)


def sample_bingham_matrix_gibbs(A: np.ndarray,
                                b: np.ndarray,
                                current: OrthonormalFrame,
                                rng: np.random.Generator,
                                counts=None) -> OrthonormalFrame:
    """One Gibbs sweep over columns targeting density prop-to etr(diag(b) U'A U).

    A is centered by its mean diagonal entry before anything else; the
    target is invariant under A -> A + aI, and doing the shift up front
    makes the kernel honor that invariance by construction (identical
    random streams give identical output).

    Column j is redrawn from its full conditional, the vector Bingham law
    exp(b_j u'Au) on the unit sphere orthogonal to the other columns, by
    ``kernels.bingham_spectral(b_j * A, rng, others, u_j, counts)``, whose
    Lanczos run starts at the column's current value u_j: O(n^2 k) per
    column (k = R - 1), one Cholesky factorization and O(n^2) per proposal,
    with no eigendecomposition and no QR. b_j = 0 gives a uniform draw on
    that sphere. For R = 1 each sweep is one exact vector draw. `counts`,
    if given, also counts frame repairs.
    """
    a = _centred(A)
    bvec = np.atleast_1d(np.asarray(b, dtype=np.float64))
    if a.shape[0] != current.rows:
        raise DimensionError(
            f"A has shape {a.shape}, expected ({current.rows}, {current.rows})")
    if bvec.shape != (current.cols,):
        raise DimensionError(
            f"b has shape {bvec.shape}, expected ({current.cols},)")
    # require_symmetric has already rejected a non-finite entry of A
    if not np.isfinite(bvec).all():
        raise InputError("b has non-finite entries")
    return _sweep(current, lambda j, u_j, others: kernels.bingham_spectral(
        bvec[j] * a, rng, others, u_j, counts), counts)


# Saved draws stacked into one product of the posterior-mean sum: about
# this many columns of the left and right factors per block.
MEAN_BLOCK_COLUMNS = 64


@dataclass(frozen=True)
class Chain:
    """What ``run_chain`` returns: the start it was given, the saved rows,
    the posterior mean, the iteration number of each row, the chain's one
    ``kernels.DrawCounts`` and the seconds its iterations took."""

    start: object
    trace: np.ndarray
    mean: np.ndarray
    saved_iters: np.ndarray
    counts: kernels.DrawCounts
    seconds: float

    @property
    def saved_count(self) -> int:
        return len(self.saved_iters)


def run_chain(start, step, record, iters: int, burn: int, thin: int) -> Chain:
    """``state = step(state, counts)`` for iterations 1..iters from `start`,
    counts being the chain's one ``kernels.DrawCounts``, saving each
    iteration after `burn` that is a multiple of `thin`: ``record(state)``
    gives (row, left, right), row goes to the trace and left @ right.T to
    the mean, summed K = max(1, MEAN_BLOCK_COLUMNS // R) draws at a time,
    R being the columns of left, as one (m x KR)(KR x n) product. The
    Chain's seconds cover the iterations only."""
    if iters <= burn or burn < 0 or thin < 1:
        raise InputError(
            f"need iters > burn >= 0 and thin >= 1, got {iters}/{burn}/{thin}")
    if iters // thin <= burn // thin:
        raise InputError(
            f"the schedule iters={iters}, burn={burn}, thin={thin} saves no "
            f"draw: no multiple of {thin} lies in {burn + 1}..{iters}")
    counts = kernels.DrawCounts()
    state, trace, saved_iters, pending, msum = start, [], [], [], 0.0
    last = iters - iters % thin  # the last save also sums a partial block
    clock = time.perf_counter()
    for it in range(1, iters + 1):
        state = step(state, counts)
        if it > burn and it % thin == 0:
            row, left, right = record(state)
            trace.append(row)
            saved_iters.append(it)
            pending.append((left, right))
            if (it == last
                    or len(pending) == max(1, MEAN_BLOCK_COLUMNS // left.shape[1])):
                left, right = (np.hstack(cols) for cols in zip(*pending))
                msum += left @ right.T
                pending = []
    seconds = time.perf_counter() - clock
    return Chain(start, np.array(trace), msum / len(saved_iters),
                 np.array(saved_iters), counts, seconds)
