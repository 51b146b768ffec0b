"""The hot sampling kernels, in NumPy.

Wood's (1994) von Mises-Fisher sampler, the angular-central-Gaussian
Bingham sampler of Kent, Ganeiber & Mardia (2018), the probit Z fill and
the one-sided truncated normal. Each draws from the generator in a fixed
order, so a seed reproduces the same draws given the same NumPy and
SciPy. ``BACKEND`` names this implementation and is recorded in CLI run
manifests.
"""
from __future__ import annotations

import numpy as np
from scipy.special import ndtr, ndtri

BACKEND = "pure"

__all__ = [
    "BACKEND",
    "mf_vector",
    "bingham_spectral",
    "sample_sphere",
    "truncnorm_left",
    "zfill_probit",
]

# Beyond this many standard deviations the one-sided truncated normal
# switches from inverse-CDF to an exponential-envelope rejection sampler.
TAIL_SPLIT = 5.0


def sample_sphere(m: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw on the unit sphere in R^m."""
    while True:
        x = rng.standard_normal(m)
        norm = np.linalg.norm(x)
        if norm > 1e-12:
            return x / norm


def truncnorm_left(a: float, rng: np.random.Generator) -> float:
    """Draw x ~ N(0,1) conditioned on x > a; strict inequality guaranteed.

    Inverse-CDF through the upper-tail probability for a <= 5 (the
    product u * ndtr(-a) keeps full relative precision however far out
    the cut is), exponential-envelope rejection (Robert 1995) beyond.
    """
    if a <= TAIL_SPLIT:
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


def zfill_probit(mean: np.ndarray, codes: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """Symmetric matrix of sign-constrained normals for probit augmentation.

    codes[i,j]: 1 -> z > 0, 0 -> z < 0, negative -> unconstrained. Off
    diagonal entries are N(mean, 1) truncated accordingly and mirrored;
    diagonal entries are unconstrained N(mean, 2) (they correspond to no
    observation).
    """
    n = mean.shape[0]
    z = np.empty((n, n))
    iu = np.triu_indices(n, 1)
    mu = mean[iu]
    cc = codes[iu]
    out = np.empty(mu.shape[0])

    free = cc < 0
    nfree = int(free.sum())
    if nfree:
        out[free] = mu[free] + rng.standard_normal(nfree)

    con = ~free
    ncon = int(con.sum())
    if ncon:
        sign = np.where(cc[con] == 1, 1.0, -1.0)
        a = -sign * mu[con]  # constrained draw is z = mu + sign*x, x ~ N(0,1)|x>a
        x = np.empty(ncon)
        body = a <= TAIL_SPLIT
        nbody = int(body.sum())
        if nbody:
            tail_prob = ndtr(-a[body])
            x[body] = -ndtri(rng.random(nbody) * tail_prob)
        for idx in np.nonzero(~body)[0]:
            x[idx] = truncnorm_left(a[idx], rng)
        # rounding at the boundary is the only way to land on the wrong
        # side; redraw those entries one by one
        bad = np.nonzero(x <= a)[0]
        for idx in bad:
            x[idx] = truncnorm_left(a[idx], rng)
        out[con] = mu[con] + sign * x

    z[iu] = out
    z.T[iu] = out
    diag = np.einsum("ii->i", mean) + np.sqrt(2.0) * rng.standard_normal(n)
    np.fill_diagonal(z, diag)
    return z


def mf_vector(c: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Exact draw from the von Mises-Fisher density prop-to exp(c'u) on S^{m-1}.

    Tangent-normal decomposition with Wood's (1994) rejection sampler for
    the cosine t of the angle to the mode: t has density prop-to
    (1-t^2)^((m-3)/2) exp(kappa t) on [-1, 1].
    """
    c = np.asarray(c, dtype=np.float64)
    m = c.shape[0]
    kappa = float(np.linalg.norm(c))
    if m == 1:
        # two-point sphere {+1, -1}
        p_plus = 1.0 / (1.0 + np.exp(-2.0 * c[0]))
        return np.array([1.0 if rng.random() < p_plus else -1.0])
    if kappa == 0.0:
        return sample_sphere(m, rng)
    mu = c / kappa

    b = (-2.0 * kappa + np.sqrt(4.0 * kappa * kappa + (m - 1.0) ** 2)) / (m - 1.0)
    x0 = (1.0 - b) / (1.0 + b)
    logc = kappa * x0 + (m - 1.0) * np.log1p(-x0 * x0)
    half = 0.5 * (m - 1.0)
    while True:
        zb = rng.beta(half, half)
        t = (1.0 - (1.0 + b) * zb) / (1.0 - (1.0 - b) * zb)
        if kappa * t + (m - 1.0) * np.log1p(-x0 * t) - logc >= np.log(rng.random()):
            break

    # uniform direction in the tangent space at mu
    while True:
        v = rng.standard_normal(m)
        v -= mu * (mu @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            v /= norm
            break
    u = t * mu + np.sqrt(max(0.0, 1.0 - t * t)) * v
    return u / np.linalg.norm(u)


def bingham_spectral(lam: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Exact draw y with density prop-to exp(sum_i lam_i y_i^2) on S^{q-1}.

    Rejection from an angular-central-Gaussian envelope (Kent, Ganeiber &
    Mardia 2018): propose y = x/|x| with x ~ N(0, Omega^{-1}),
    Omega = I + 2*lam_hat/b, where lam_hat = max(lam) - lam >= 0 and the
    tuning constant b solves sum_i 1/(b + 2*lam_hat_i) = 1. Acceptance
    stays high even for strongly concentrated targets.
    """
    lam = np.asarray(lam, dtype=np.float64)
    q = lam.shape[0]
    if q == 1:
        return np.array([1.0 if rng.random() < 0.5 else -1.0])
    lam_hat = np.max(lam) - lam
    if not lam_hat.any():
        return sample_sphere(q, rng)
    b = _acg_envelope_parameter(lam_hat)
    omega = 1.0 + 2.0 * lam_hat / b
    scale = 1.0 / np.sqrt(omega)
    log_m = 0.5 * (b - q) + 0.5 * q * np.log(q / b)
    while True:
        x = rng.standard_normal(q) * scale
        nrm2 = x @ x
        if nrm2 <= 1e-24:
            continue
        y = x / np.sqrt(nrm2)
        log_ratio = -(y * y) @ lam_hat + 0.5 * q * np.log((y * y) @ omega) - log_m
        if np.log(rng.random()) < log_ratio:
            return y


def _acg_envelope_parameter(lam_hat: np.ndarray) -> float:
    """Solve sum_i 1/(b + 2 lam_hat_i) = 1 for b in (0, q] by bisection."""
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
