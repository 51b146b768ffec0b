"""Independent numerical oracles used to pin sampler moments.

Kept deliberately separate from the package: everything here is straight
quadrature or closed forms, no shared code paths with the samplers they
check.
"""
import numpy as np
from scipy import integrate
from scipy.special import ndtr, ndtri


def vmf_mean_resultant(kappa: float, m: int) -> float:
    """E[cos angle-to-mode] for density prop-to exp(kappa*t) (1-t^2)^((m-3)/2)."""
    def dens(t):
        return (1.0 - t * t) ** ((m - 3) / 2.0) * np.exp(kappa * (t - 1.0))

    num = integrate.quad(lambda t: t * dens(t), -1, 1, epsabs=1e-13)[0]
    den = integrate.quad(dens, -1, 1, epsabs=1e-13)[0]
    return num / den


def bingham2_moment(a11: float, a22: float = 0.0, a12: float = 0.0) -> float:
    """E[u_1^2] for the circle density prop-to exp([cos,sin] A [cos,sin]')."""
    def dens(p):
        c, s = np.cos(p), np.sin(p)
        return np.exp(a11 * c * c + a22 * s * s + 2.0 * a12 * s * c)

    num = integrate.quad(lambda p: np.cos(p) ** 2 * dens(p), 0, 2 * np.pi,
                         limit=200)[0]
    den = integrate.quad(dens, 0, 2 * np.pi, limit=200)[0]
    return num / den


def bingham_o2_moment(a: np.ndarray, b: np.ndarray) -> float:
    """E[U_00^2] for the 2x2 orthogonal-frame density prop-to
    etr(diag(b) U'AU). U = [[c, -salt], [s, calt]] reduces to one angle plus
    an independent sign, and the sign does not affect the quadratic form."""
    def column(phi):
        return np.array([np.cos(phi), np.sin(phi)])

    def dens(phi):
        u1 = column(phi)
        u2 = np.array([-np.sin(phi), np.cos(phi)])
        return np.exp(b[0] * u1 @ a @ u1 + b[1] * u2 @ a @ u2)

    num = integrate.quad(lambda p: np.cos(p) ** 2 * dens(p), 0, 2 * np.pi,
                         limit=200)[0]
    den = integrate.quad(dens, 0, 2 * np.pi, limit=200)[0]
    return num / den


def bingham2_angle_density(a11: float, grid: np.ndarray) -> np.ndarray:
    """Normalized density of the angle on [0, 2pi) for A = diag(a11, 0)."""
    vals = np.exp(a11 * np.cos(grid) ** 2)
    vals /= np.trapezoid(vals, grid)
    return vals


def acg_envelope_parameter_bisection(lam_hat: np.ndarray) -> float:
    """Root b in (0, q] of sum_i 1/(b + 2 lam_hat_i) = 1 by bisection down
    to adjacent floats: the reference for the kernel's Newton solver."""
    q = lam_hat.shape[0]
    lo, hi = 0.0, float(q)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if np.sum(1.0 / (mid + 2.0 * lam_hat)) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def truncnorm_left_two_branch(a: float, rng: np.random.Generator) -> float:
    """One draw of x ~ N(0,1) conditioned on x > a, by the scalar sampler
    the one log-space inverse CDF replaced: inverse CDF through the
    upper-tail probability for a <= 5, exponential-envelope rejection
    (Robert 1995) beyond. The reference for a two-sample test."""
    if a <= 5.0:
        tail = ndtr(-a)
        while True:
            x = -ndtri(rng.random() * tail)
            if x > a:
                return float(x)
    alpha = 0.5 * (a + np.sqrt(a * a + 4.0))
    while True:
        x = a + rng.standard_exponential() / alpha
        diff = x - alpha
        if rng.random() <= np.exp(-0.5 * diff * diff) and x > a:
            return float(x)


def sweep_columns_gather(u: np.ndarray, draw) -> np.ndarray:
    """`samplers._sweep_columns` as a gather per column: column j becomes
    draw(j, u[:, rest]), rest the indices of the other columns, so each
    column is handed a fresh copy of the others as they stand (Fortran
    ordered for a C-ordered u). The reference for the sweep's one
    working buffer, whose draws it must repeat bit for bit."""
    r = u.shape[1]
    for j in range(r):
        u[:, j] = draw(j, u[:, np.delete(np.arange(r), j)])
    return u


def mf_matrix_gibbs_qr(C: np.ndarray, U: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """One column sweep targeting etr(C'U), r >= 2, by the complete-QR
    construction: N spans the complement of the other columns, z is an
    exact vector MF draw with parameter N'c_j on the sphere of R^{m-r+1},
    and u_j = N z. The reference for the basis-free sweep; it shares only
    the vector kernel (no other columns), which is checked against
    quadrature on its own."""
    from stiefel_mcmc import sample_mf_vector

    u = np.array(U, dtype=np.float64)
    r = u.shape[1]
    for j in range(r):
        q, _ = np.linalg.qr(np.delete(u, j, axis=1), mode="complete")
        nb = q[:, r - 1:]
        u[:, j] = nb @ sample_mf_vector(nb.T @ C[:, j], rng)
    return u


def bingham_matrix_gibbs_qr(A: np.ndarray, b: np.ndarray, U: np.ndarray,
                            rng: np.random.Generator) -> np.ndarray:
    """One column sweep targeting etr(diag(b) U'AU), r >= 2, by the
    complete-QR construction: N spans the complement of the other columns,
    z is an exact vector Bingham draw with parameter b_j N'AN on the sphere
    of R^{m-r+1}, and u_j = N z. The reference for the sweep; it shares
    only the kernel's path without other columns, which is checked
    against quadrature on its own."""
    from stiefel_mcmc import sample_bingham_vector

    u = np.array(U, dtype=np.float64)
    r = u.shape[1]
    for j in range(r):
        q, _ = np.linalg.qr(np.delete(u, j, axis=1), mode="complete")
        nb = q[:, r - 1:]
        sub = nb.T @ A @ nb
        u[:, j] = nb @ sample_bingham_vector(b[j] * 0.5 * (sub + sub.T), rng)
    return u


def svd_iteration_direct(state, y: np.ndarray, hyper, rng: np.random.Generator):
    """One Gibbs iteration of the SVD model, U, V, d, sigma^2, tau^2, with
    every conditional read off Y directly: Y'UD for V, u_j'Y v_j through
    Y V for d, and the m x n residual Y - UDV' for sigma^2. Same updates
    and draw order as `svd_model.gibbs_iteration`, which reads Y only
    through Y V D and Y'U; the reference for it."""
    from stiefel_mcmc import sample_mf_matrix_gibbs
    from stiefel_mcmc.svd_model import SvdModelState

    m, n = y.shape
    d, sigma2, tau2 = state.d, state.sigma2, state.tau2
    u = sample_mf_matrix_gibbs(y @ (state.V.entries * d) / sigma2, state.U, rng)
    v = sample_mf_matrix_gibbs(y.T @ (u.entries * d) / sigma2, state.V, rng)
    quad = (u.entries * (y @ v.entries)).sum(0)
    d = rng.normal(tau2 * quad / (sigma2 + tau2),
                   np.sqrt(tau2 * sigma2 / (tau2 + sigma2)))
    resid2 = float(np.sum((y - (u.entries * d) @ v.entries.T) ** 2))
    sigma2 = 1.0 / rng.gamma((hyper.nu0 + m * n) / 2.0,
                             2.0 / (hyper.nu0 * hyper.s20 + resid2))
    tau2 = 1.0 / rng.gamma((hyper.eta0 + len(d)) / 2.0,
                           2.0 / (hyper.eta0 * hyper.t20 + float(np.sum(d**2))))
    return SvdModelState(U=u, V=v, d=d, sigma2=float(sigma2), tau2=float(tau2))


def svd_gibbs_direct(y: np.ndarray, rank: int, hyper, iters: int, thin: int,
                     rng: np.random.Generator):
    """`svd_model.run_svd_gibbs` by `svd_iteration_direct`, adding one
    U diag(d) V' to the posterior-mean sum per saved draw.
    Returns (d_trace, m_posterior_mean), the runner's trace and mean."""
    from stiefel_mcmc.svd_model import mle_init

    state = mle_init(y, rank)
    trace, msum = [], np.zeros_like(y)
    for it in range(1, iters + 1):
        state = svd_iteration_direct(state, y, hyper, rng)
        if it % thin == 0:
            trace.append(np.sort(np.abs(state.d))[::-1])
            msum += state.mean_matrix()
    return np.array(trace), msum / len(trace)


def eigen_gibbs_direct(y, hyper, iters: int, burn: int, thin: int,
                       rng: np.random.Generator):
    """`eigenmodel.run_eigenmodel_gibbs` as a plain loop over
    `eigenmodel.gibbs_iteration` from `initial_state`, adding one
    U Lambda U' to the posterior-mean sum per saved draw.
    Returns (lambda_trace, theta_trace, m_bar), the runner's trace[:, :-1],
    trace[:, -1] and mean."""
    from stiefel_mcmc import eigenmodel as em

    state = em.initial_state(y, hyper, rng)
    lam_rows, thetas, msum = [], [], np.zeros((y.n, y.n))
    for it in range(1, iters + 1):
        state = em.gibbs_iteration(state, y, hyper, rng)
        if it > burn and it % thin == 0:
            lam_rows.append(np.sort(state.lam))
            thetas.append(state.theta)
            msum += state.factor_matrix()
    return np.array(lam_rows), np.array(thetas), msum / len(thetas)


def theta_moments_triangle(state, hyper) -> tuple[float, float]:
    """(mean, variance) of theta | Z, U, lambda summed entry by entry over
    the residual R = Z - U Lambda U': var (sum_{i<j} r_ij + sum_i r_ii/2)
    with var = 1/(1/t2_theta + n^2/2). The reference for the closed form
    of `eigenmodel.theta_conditional_moments`."""
    n = state.U.rows
    resid = state.Z - state.factor_matrix()
    var = 1.0 / (1.0 / hyper.t2_theta + n * n / 2.0)
    iu = np.triu_indices(n, 1)
    return var * (float(resid[iu].sum()) + 0.5 * float(np.trace(resid))), var


def lambda_moments_quadratic_forms(state, hyper) -> tuple[np.ndarray, float]:
    """(means, variance) of lambda | Z, U, theta from the quadratic forms
    u_r'(Z - theta)u_r taken one by one: v = 2 t2/(2 + t2), means
    v u_r'(Z - theta)u_r / 2. The reference for
    `eigenmodel.lambda_conditional_moments`."""
    var = 2.0 * hyper.t2_lambda / (2.0 + hyper.t2_lambda)
    u = state.U.entries
    quad = np.einsum("ir,ij,jr->r", u, state.Z - state.theta, u)
    return var * quad / 2.0, var


def zfill_probit_per_call(mean: np.ndarray, codes: np.ndarray,
                          rng: np.random.Generator) -> np.ndarray:
    """The probit Z fill with the codes' signs and missing mask taken on
    every call, through the triangle's index pairs: one
    ``truncnorm_left`` call over the upper triangle, mirrored, then
    ``standard_normal(n)`` for the N(mean, 2) diagonal. The reference for
    `kernels.zfill_probit`, whose draws it must repeat bit for bit."""
    from stiefel_mcmc.kernels import truncnorm_left

    n = mean.shape[0]
    z = np.empty((n, n))
    iu = np.triu_indices(n, 1)
    mu = mean[iu]
    cc = codes[iu]
    sign = np.where(cc == 0, -1.0, 1.0)
    a = np.where(cc < 0, -np.inf, -sign * mu)
    out = mu + sign * truncnorm_left(a, rng)
    z[iu] = out
    z.T[iu] = out
    np.fill_diagonal(z, np.diag(mean) + np.sqrt(2.0) * rng.standard_normal(n))
    return z


# Frozen quadrature values (recomputed by test_oracle_self_check):
VMF_M3_MEAN = {0.5: 0.1639534137, 2.0: 0.5373147207, 8.0: 0.8750002251}
BINGHAM2_DIAG3 = 0.7980666194  # E[u1^2] for A=diag(3,0)
HALF_NORMAL_MEAN = 0.7978845608  # sqrt(2/pi)
