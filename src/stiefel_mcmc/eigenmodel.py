"""Latent-eigenmodel probit analysis of a symmetric binary network.

For an n x n symmetric adjacency matrix y (diagonal undefined, missing
entries allowed), the model places a latent symmetric Gaussian matrix Z
with

    z_ij = theta + u_i' Lambda u_j + eps_ij,     y_ij = 1(z_ij > 0),

where U (n x R, orthonormal columns) holds the latent node factors,
Lambda = diag(lambda), off-diagonal eps have variance 1 and diagonal
entries variance 2 (they correspond to no observation and are simply
carried by the augmentation). Priors: theta ~ N(0, t2_theta), lambda_r
i.i.d. N(0, t2_lambda), U uniform on the manifold.

Estimation is by Gibbs sampling on (Z, theta, lambda, U); the full
conditional of U is the matrix Bingham family etr(B U'AU) with A = Z - theta
and B = diag(lambda)/2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .errors import ConstraintError, DimensionError, InputError
from .frames import OrthonormalFrame, random_uniform_frame, require_symmetric
from .samplers import run_chain, sample_bingham_matrix_gibbs

MISSING = -1  # code for unobserved entries (includes the whole diagonal)


@dataclass(frozen=True)
class SymmetricBinaryNetwork:
    """Adjacency codes: 1 edge, 0 non-edge, -1 missing; diagonal always -1.
    ``probit_codes`` holds what every Z fill reads of them, taken once."""

    codes: np.ndarray
    probit_codes: kernels.ProbitCodes = field(init=False, repr=False,
                                              compare=False)

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.ndim != 2 or codes.shape[0] != codes.shape[1]:
            raise DimensionError("adjacency must be a square matrix")
        if codes.shape[0] < 2:
            raise DimensionError("a network needs at least 2 nodes to have a "
                                 f"dyad, got {codes.shape[0]}")
        valid = np.isin(codes, (-1, 0, 1))
        if not valid.all():
            bad = np.argwhere(~valid)[0]
            raise InputError(
                f"adjacency entries must be 0, 1 or missing; "
                f"offending cell ({bad[0] + 1},{bad[1] + 1})")
        codes = codes.astype(np.int8, copy=True)
        mismatch = np.argwhere(codes != codes.T)
        if mismatch.size:
            i, j = sorted(mismatch[0])
            raise ConstraintError(
                f"adjacency not symmetric: entries ({i + 1},{j + 1}) and "
                f"({j + 1},{i + 1}) disagree")
        np.fill_diagonal(codes, MISSING)
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "probit_codes", kernels.ProbitCodes(codes))

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    def observed_edge_density(self) -> float:
        """Fraction of observed off-diagonal entries equal to 1 (0.5 if none)."""
        sign = np.delete(self.probit_codes.sign, self.probit_codes.missing)
        if sign.size == 0:
            return 0.5
        return float(np.mean(sign > 0))


@dataclass(frozen=True)
class EigenHyperParams:
    t2_lambda: float
    t2_theta: float
    rank: int = 2

    def __post_init__(self):
        for name in ("t2_lambda", "t2_theta"):
            if not 0 < getattr(self, name) < np.inf:
                raise InputError(f"{name} must be finite and strictly positive")
        if self.rank < 1:
            raise InputError("rank must be a positive integer")


@dataclass(frozen=True)
class EigenmodelState:
    """Stepped by the updates through ``dataclasses.replace``; what builds
    it checks its inputs, so it has no checks of its own."""

    Z: np.ndarray
    U: OrthonormalFrame
    lam: np.ndarray
    theta: float

    def factor_matrix(self) -> np.ndarray:
        """U Lambda U', the latent low-rank part of the edge propensities."""
        return (self.U.entries * self.lam) @ self.U.entries.T


def sample_z_full_conditional(y: SymmetricBinaryNetwork, mean: np.ndarray,
                              rng: np.random.Generator) -> np.ndarray:
    """Draw the latent matrix given constraints: off-diagonal entries are
    N(mean, 1) forced positive where y = 1 and negative where y = 0,
    unconstrained where missing; diagonal entries are N(mean, 2)."""
    mean = require_symmetric(mean, tol=1e-8, name="mean")
    if mean.shape[0] != y.n:
        raise DimensionError(
            f"mean is {mean.shape}, expected ({y.n}, {y.n})")
    return kernels.zfill_probit(mean, y.probit_codes, rng)


def theta_conditional_moments(state: EigenmodelState,
                              hyper: EigenHyperParams) -> tuple[float, float]:
    """(mean, variance) of theta | Z, U, lambda: conjugate normal in the
    residuals R = Z - U Lambda U'. The n(n-1)/2 upper-triangle entries have
    variance 1 and the n diagonal entries variance 2, the same joint law
    the lambda, U and Z updates use, so the precision is
    1/t2_theta + n^2/2 and the mean is var (sum_{i<j} r_ij + sum_i r_ii/2).
    For symmetric Z that sum is half the sum of all of R, and the sum of
    U Lambda U' is lambda . (U'1)^2, so the mean is
    var (sum Z - lambda . (U'1)^2) / 2."""
    n = state.U.rows
    var = 1.0 / (1.0 / hyper.t2_theta + n * n / 2.0)
    colsum = state.U.entries.sum(axis=0)
    total = float(state.Z.sum()) - float(state.lam @ (colsum * colsum))
    return 0.5 * var * total, var


def update_theta(state: EigenmodelState, hyper: EigenHyperParams,
                 rng: np.random.Generator) -> EigenmodelState:
    mean, var = theta_conditional_moments(state, hyper)
    return replace(state, theta=float(rng.normal(mean, math.sqrt(var))))


def lambda_conditional_moments(state: EigenmodelState,
                               hyper: EigenHyperParams) -> tuple[np.ndarray, float]:
    """(mean vector, common variance) of lambda | Z, U, theta.

    With E = Z - theta the likelihood term for lambda_r is
    exp(lambda_r u_r'Eu_r / 2 - lambda_r^2 / 4), i.e. Gaussian with
    precision 1/2; combining with the N(0, t2_lambda) prior gives
    variance v = 2 t2 / (2 + t2) and mean v (u_r'Eu_r) / 2.
    """
    var = 2.0 * hyper.t2_lambda / (2.0 + hyper.t2_lambda)
    u = state.U.entries
    quad = (u * ((state.Z - state.theta) @ u)).sum(axis=0)
    return var * quad / 2.0, float(var)


def update_lambda(state: EigenmodelState, hyper: EigenHyperParams,
                  rng: np.random.Generator) -> EigenmodelState:
    mean, var = lambda_conditional_moments(state, hyper)
    return replace(state, lam=rng.normal(mean, math.sqrt(var)))


def update_u(state: EigenmodelState, rng: np.random.Generator,
             counts=None) -> EigenmodelState:
    new_u = sample_bingham_matrix_gibbs(state.Z - state.theta, state.lam / 2.0,
                                        state.U, rng, counts)
    return replace(state, U=new_u)


def gibbs_iteration(state: EigenmodelState, y: SymmetricBinaryNetwork,
                    hyper: EigenHyperParams, rng: np.random.Generator,
                    counts=None) -> EigenmodelState:
    """One Gibbs iteration given the network: Z, theta, lambda, U in that
    order, each from its full conditional; `counts` is the U sweep's."""
    z = sample_z_full_conditional(y, state.theta + state.factor_matrix(), rng)
    state = update_theta(replace(state, Z=z), hyper, rng)
    state = update_lambda(state, hyper, rng)
    return update_u(state, rng, counts)


def initial_state(y: SymmetricBinaryNetwork, hyper: EigenHyperParams,
                  rng: np.random.Generator) -> EigenmodelState:
    """Naive start: theta at the probit of the observed edge density,
    lambda = 0, U uniform; Z is drawn in the first sweep. ``scipy.special``
    is imported here and not with the module, like in
    ``kernels.truncnorm_left``."""
    from scipy.special import ndtri

    density = min(max(y.observed_edge_density(), 1.0 / (y.n * y.n)),
                  1.0 - 1.0 / (y.n * y.n))
    theta = float(ndtri(density))
    u = random_uniform_frame(y.n, hyper.rank, rng)
    z = np.zeros((y.n, y.n))
    return EigenmodelState(Z=z, U=u, lam=np.zeros(hyper.rank), theta=theta)


def check_sign_constraints(y: SymmetricBinaryNetwork, z: np.ndarray) -> None:
    """Raise if any latent entry contradicts an observed edge indicator."""
    codes = y.codes
    bad = ((codes == 1) & (z <= 0)) | ((codes == 0) & (z >= 0))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ConstraintError(
            f"latent z[{i + 1},{j + 1}] = {z[i, j]:.3e} violates observed "
            f"y = {codes[i, j]}")


@dataclass(frozen=True)
class EigenGibbsResult:
    lambda_trace: np.ndarray   # (saved, R), each row sorted increasing
    theta_trace: np.ndarray    # (saved,)
    m_bar: np.ndarray          # posterior mean of U Lambda U'
    saved_iters: np.ndarray    # (saved,), the iteration number of each row
    counts: kernels.DrawCounts  # the U sweeps' proposals, fallbacks and repairs

    @property
    def saved_count(self) -> int:
        return len(self.saved_iters)


def run_eigenmodel_gibbs(y: SymmetricBinaryNetwork, hyper: EigenHyperParams,
                         iters: int, burn: int, thin: int,
                         rng: np.random.Generator) -> EigenGibbsResult:
    """``samplers.run_chain`` from ``initial_state``, saving sorted lambda
    and theta and counting the U sweeps' diagnostics. Each step calls
    ``gibbs_iteration`` through this module's global, so a wrapper put
    there from outside sees every iteration."""
    counts = kernels.DrawCounts()
    trace, m_bar, saved = run_chain(
        initial_state(y, hyper, rng),
        lambda s: gibbs_iteration(s, y, hyper, rng, counts),
        lambda s: (np.append(np.sort(s.lam), s.theta), s.U.entries * s.lam,
                   s.U.entries),
        iters, burn, thin)
    return EigenGibbsResult(lambda_trace=trace[:, :-1], theta_trace=trace[:, -1],
                            m_bar=m_bar, saved_iters=saved, counts=counts)


def latent_positions(m_bar: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank-`rank` eigendecomposition of the posterior mean factor matrix.

    Returns (positions, eigenvalues): the eigenvectors whose eigenvalues
    are largest in absolute value, ordered by decreasing |eigenvalue|,
    each with its first nonzero coordinate made nonnegative so output is
    deterministic up to that convention.
    """
    m_bar = require_symmetric(m_bar, tol=1e-8, name="m_bar")
    n = m_bar.shape[0]
    if not 1 <= rank <= n:
        raise DimensionError(f"need 1 <= rank <= n, got rank={rank}")
    vals, vecs = np.linalg.eigh(m_bar)
    order = np.argsort(-np.abs(vals), kind="stable")[:rank]
    vals = vals[order]
    vecs = vecs[:, order]
    for k in range(rank):
        col = vecs[:, k]
        nz = np.nonzero(col)[0]
        if nz.size and col[nz[0]] < 0:
            vecs[:, k] = -col
    return vecs, vals


def generate_network(theta: float, lam: np.ndarray, u: OrthonormalFrame,
                     rng: np.random.Generator) -> SymmetricBinaryNetwork:
    """Simulate a network from the model: symmetric Gaussian latent matrix
    with the stated variance conventions, thresholded at zero."""
    lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    if lam.shape != (u.cols,):
        raise DimensionError("lambda must have one entry per column of U")
    n = u.rows
    mean = theta + (u.entries * lam) @ u.entries.T
    noise = rng.standard_normal((n, n))
    eps = np.triu(noise, 1)
    eps = eps + eps.T + np.diag(np.sqrt(2.0) * np.diag(noise))
    return SymmetricBinaryNetwork(((mean + eps) > 0).astype(np.int8))
