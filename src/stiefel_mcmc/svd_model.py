"""Bayesian reduced-rank mean estimation for a matrix of noisy observations.

Model: Y = U diag(d) V' + E with U, V orthonormal frames (m x R and
n x R), E i.i.d. normal(0, sigma^2). Priors: U, V uniform on their
manifolds; d_j i.i.d. normal(0, tau^2); inverse-gamma priors on sigma^2
and tau^2 through

    1/tau^2   ~ gamma(eta0/2, eta0*t20/2)
    1/sigma^2 ~ gamma(nu0/2,  nu0*s20/2).

Full conditionals used by the Gibbs sweep:

    U | rest ~ MF(Y V D / sigma^2)          (one column sweep per iteration)
    V | rest ~ MF(Y' U D / sigma^2)
    d_j | rest ~ normal(tau^2 u_j'Y v_j / (sigma^2 + tau^2),
                        tau^2 sigma^2 / (tau^2 + sigma^2))
    1/tau^2 | rest ~ gamma((eta0 + R)/2, (eta0*t20 + sum d_j^2)/2)
    1/sigma^2 | rest ~ gamma((nu0 + mn)/2, (nu0*s20 + |Y - UDV'|^2)/2)
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, InputError
from .frames import OrthonormalFrame, random_uniform_frame
from .samplers import Chain, run_chain, sample_mf_matrix_gibbs


@dataclass(frozen=True)
class SvdHyperParams:
    """Prior hyperparameters (nu0, s20) for sigma^2 and (eta0, t20) for tau^2."""

    nu0: float = 1.0
    s20: float = 1.0
    eta0: float = 1.0
    t20: float = 1.0

    def __post_init__(self):
        for name in ("nu0", "s20", "eta0", "t20"):
            if not 0 < getattr(self, name) < np.inf:
                raise InputError(f"{name} must be finite and strictly positive")


@dataclass(frozen=True)
class SvdModelState:
    """Stepped by the updates through ``dataclasses.replace``; what builds
    it checks its inputs, so it has no checks of its own."""

    U: OrthonormalFrame
    V: OrthonormalFrame
    d: np.ndarray
    sigma2: float
    tau2: float

    @property
    def rank(self) -> int:
        return self.U.cols

    def mean_matrix(self) -> np.ndarray:
        """U diag(d) V', the current fit of the low-rank mean."""
        return (self.U.entries * self.d) @ self.V.entries.T


def simulate_dataset(m: int, n: int, rank_true: int,
                     rng: np.random.Generator) -> tuple[np.ndarray, SvdModelState]:
    """Draw ground truth and data: uniform frames, singular values from
    sorted exponential(1) draws scaled by sqrt(m*n), unit noise variance."""
    for name, size in (("m", m), ("n", n)):
        if size < 1:
            raise DimensionError(f"{name} must be a positive integer, got {size}")
    if not 1 <= rank_true <= min(m, n):
        raise DimensionError(f"need 1 <= rank_true <= min(m, n), got {rank_true}")
    u0 = random_uniform_frame(m, rank_true, rng)
    v0 = random_uniform_frame(n, rank_true, rng)
    d0 = np.sort(rng.exponential(size=rank_true))[::-1] * np.sqrt(m * n)
    truth = SvdModelState(U=u0, V=v0, d=d0, sigma2=1.0, tau2=float(np.mean(d0**2)))
    y = truth.mean_matrix() + rng.standard_normal((m, n))
    return y, truth


def mle_init(y, rank: int) -> SvdModelState:
    """Maximum-likelihood starting state from the top-`rank` SVD of the data.

    sigma2 starts at the sample variance of the residuals and tau2 at the
    mean squared retained singular value. Raises InputError when the
    rank-`rank` fit leaves no residual: sigma2 would start at 0, and the MF
    parameters Y V D / sigma^2 would have no finite value. A 1x1 matrix,
    whose residual has no sample variance, is rejected the same way.
    """
    ymat = np.asarray(y, dtype=np.float64)
    m, n = ymat.shape
    if not 1 <= rank <= min(m, n):
        raise DimensionError(f"need 1 <= rank <= min(m, n), got rank={rank}")
    if m * n == 1:
        raise InputError("the rank-1 fit of a 1x1 data matrix leaves no "
                         "residual, so the noise variance has no positive "
                         "starting value")
    uu, ss, vt = np.linalg.svd(ymat, full_matrices=False)
    u = OrthonormalFrame(uu[:, :rank])
    v = OrthonormalFrame(vt[:rank].T)
    d = ss[:rank].copy()
    resid = ymat - (u.entries * d) @ v.entries.T
    sigma2 = float(np.var(resid, ddof=1))
    if not sigma2 > 0.0:
        raise InputError(f"the rank-{rank} fit leaves no residual: the data "
                         f"matrix has rank at most {rank}, so the noise "
                         "variance has no positive starting value")
    return SvdModelState(U=u, V=v, d=d, sigma2=sigma2, tau2=float(np.mean(d**2)))


def mf_parameter_for_u(state: SvdModelState, y: np.ndarray) -> np.ndarray:
    """Y V D / sigma^2, the MF parameter of the U full conditional; y is
    the data matrix as a float ndarray, formed as ((V D / sigma^2)' Y')'
    like Y'U in ``gibbs_iteration``."""
    return ((state.V.entries * (state.d / state.sigma2)).T @ y.T).T


def mf_parameter_for_v(state: SvdModelState, yu: np.ndarray) -> np.ndarray:
    """Y' U D / sigma^2, the MF parameter of the V full conditional, from
    the product yu = Y'U."""
    return yu * state.d / state.sigma2


def update_u(state: SvdModelState, y: np.ndarray,
             rng: np.random.Generator, counts=None) -> SvdModelState:
    new_u = sample_mf_matrix_gibbs(mf_parameter_for_u(state, y), state.U, rng,
                                   counts)
    return replace(state, U=new_u)


def update_v(state: SvdModelState, yu: np.ndarray,
             rng: np.random.Generator, counts=None) -> SvdModelState:
    new_v = sample_mf_matrix_gibbs(mf_parameter_for_v(state, yu), state.V, rng,
                                   counts)
    return replace(state, V=new_v)


def _quadratic_forms(state: SvdModelState, yu: np.ndarray) -> np.ndarray:
    # u_j'Y v_j, the column sums of (Y'U) o V
    return (yu * state.V.entries).sum(0)


def d_conditional_moments(state: SvdModelState,
                          yu: np.ndarray) -> tuple[np.ndarray, float]:
    """Mean vector and (common) variance of the d_j full conditionals,
    from the product yu = Y'U."""
    quad = _quadratic_forms(state, yu)
    var = state.tau2 * state.sigma2 / (state.tau2 + state.sigma2)
    mean = state.tau2 * quad / (state.sigma2 + state.tau2)
    return mean, float(var)


def update_d(state: SvdModelState, yu: np.ndarray,
             rng: np.random.Generator) -> SvdModelState:
    mean, var = d_conditional_moments(state, yu)
    d = rng.normal(mean, np.sqrt(var))
    return replace(state, d=d)


# Below this fraction of |Y|^2 the residual is summed directly: the
# product form's rounding, a small multiple of eps*|Y|^2, would exceed
# about 1e-8 of it (docs/decisions.md).
DIRECT_RESIDUAL_FRACTION = 1e-7


def residual_sum_of_squares(state: SvdModelState, y: np.ndarray,
                            yu: np.ndarray, y_sq: float) -> float:
    """|Y - UDV'|^2 from the product yu = Y'U and y_sq = |Y|^2, y being
    the data matrix as a float ndarray.

    |Y|^2 - 2 d'q + d'[(U'U) o (V'V)]d with q_j = u_j'Y v_j; the Gram term
    keeps it exact for frames that are orthonormal only to rounding. A
    close fit, where the three terms cancel, falls back to the direct sum.
    """
    u, v, d = state.U.entries, state.V.entries, state.d
    gram = (u.T @ u) * (v.T @ v)
    resid2 = y_sq - 2.0 * float(d @ _quadratic_forms(state, yu)) + float(d @ gram @ d)
    if resid2 < DIRECT_RESIDUAL_FRACTION * y_sq:
        resid2 = float(np.sum((y - state.mean_matrix()) ** 2))
    return resid2


def update_variances(state: SvdModelState, y: np.ndarray, yu: np.ndarray,
                     y_sq: float, hyper: SvdHyperParams,
                     rng: np.random.Generator) -> SvdModelState:
    """sigma^2 and tau^2 from their full conditionals; y is the data
    matrix as a float ndarray."""
    m, n = y.shape
    resid2 = residual_sum_of_squares(state, y, yu, y_sq)
    sigma2 = 1.0 / rng.gamma((hyper.nu0 + m * n) / 2.0,
                             2.0 / (hyper.nu0 * hyper.s20 + resid2))
    tau2 = 1.0 / rng.gamma((hyper.eta0 + state.rank) / 2.0,
                           2.0 / (hyper.eta0 * hyper.t20 + float(np.sum(state.d**2))))
    return replace(state, sigma2=float(sigma2), tau2=float(tau2))


def gibbs_iteration(state: SvdModelState, y: np.ndarray, y_sq: float,
                    hyper: SvdHyperParams, rng: np.random.Generator,
                    counts=None) -> SvdModelState:
    """One Gibbs iteration in the order U, V, d, sigma^2, tau^2; `counts`
    is the U and V sweeps'.

    y is the data matrix as a float ndarray, read by two products:
    Y V D / sigma^2 for the U update, and Y'U, formed once after it, for
    everything else. y_sq is |Y|^2. Both products are formed as the
    transpose of (R-column factor)' times y or y', the orientation in
    which BLAS reads a row-major y fastest (docs/decisions.md).
    """
    state = update_u(state, y, rng, counts)
    yu = (state.U.entries.T @ y).T
    state = update_v(state, yu, rng, counts)
    state = update_d(state, yu, rng)
    return update_variances(state, y, yu, y_sq, hyper, rng)


def run_svd_gibbs(y, rank: int, hyper: SvdHyperParams, iters: int, thin: int,
                  rng: np.random.Generator) -> Chain:
    """``samplers.run_chain`` from the MLE start, saving every `thin`-th
    iteration: the trace holds |d| sorted decreasing, the mean is the
    posterior mean of U diag(d) V', and the counts are the U and V sweeps'
    frame repairs. d is left unsorted inside the chain; only the trace
    sorts it, since anything else would change the target. The Chain's
    start is the MLE, so start.mean_matrix() is the rank-R MLE."""
    ymat = np.asarray(y, dtype=np.float64)
    y_sq = float(np.vdot(ymat, ymat))
    return run_chain(
        mle_init(ymat, rank),
        lambda s, counts: gibbs_iteration(s, ymat, y_sq, hyper, rng, counts),
        lambda s: (np.sort(np.abs(s.d))[::-1], s.U.entries * s.d, s.V.entries),
        iters, 0, thin)


def rank_r_approximation(mat: np.ndarray, rank: int) -> np.ndarray:
    """Best rank-`rank` approximation in Frobenius norm (truncated SVD)."""
    mat = np.asarray(mat, dtype=np.float64)
    if not 1 <= rank <= min(mat.shape):
        raise DimensionError(f"need 1 <= rank <= min(m, n), got rank={rank}")
    uu, ss, vt = np.linalg.svd(mat, full_matrices=False)
    return (uu[:, :rank] * ss[:rank]) @ vt[:rank]


def mean_squared_error(truth: np.ndarray, estimate: np.ndarray) -> float:
    """Mean squared entry-wise difference (the loss used for comparisons)."""
    t = np.asarray(truth, dtype=np.float64)
    e = np.asarray(estimate, dtype=np.float64)
    if t.shape != e.shape:
        raise DimensionError(f"shape mismatch: {t.shape} vs {e.shape}")
    return float(np.mean((t - e) ** 2))
