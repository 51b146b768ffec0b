"""The hot sampling kernels, in NumPy.

Wood's (1994) von Mises-Fisher sampler, the angular-central-Gaussian
Bingham sampler of Kent, Ganeiber & Mardia (2018), the probit Z fill and
the one-sided truncated normal. Each draws from the generator in a fixed
order, so a seed reproduces the same draws given the same NumPy and
SciPy. ``BACKEND`` names this implementation and is recorded in CLI run
manifests.
"""
from __future__ import annotations

import functools
import math

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

# Newton's method for the ACG envelope constant took at most 10 steps
# from b = 1 over random spectra with q up to 500; reaching this bound
# means bad input, such as a non-finite entry.
ACG_NEWTON_MAX_STEPS = 64


def sample_sphere(m: int, rng: np.random.Generator,
                  others: np.ndarray | None = None) -> np.ndarray:
    """Uniform draw on the unit sphere in R^m, or, given an m x k matrix
    `others` with orthonormal columns, on the unit sphere of their
    orthogonal complement. One ``standard_normal(m)`` per attempt."""
    while True:
        x = rng.standard_normal(m)
        if others is not None:
            x = _project_off(x, others)
        norm = np.linalg.norm(x)
        if norm > 1e-12:
            return x / norm


def _project_off(x: np.ndarray, others: np.ndarray) -> np.ndarray:
    """x minus its projection on the orthonormal columns of `others`,
    taken twice: one Gram-Schmidt pass leaves a component of the order of
    rounding times |x|, which matters when most of x lies in their span;
    the second pass makes the result orthogonal to working precision
    ("twice is enough": Kahan, in Parlett 1980)."""
    x = x - others @ (others.T @ x)
    return x - others @ (others.T @ x)


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


@functools.lru_cache(maxsize=16)
def triu_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, cached per n; the arrays are read-only
    because every caller shares them."""
    iu = np.triu_indices(n, 1)
    for idx in iu:
        idx.setflags(write=False)
    return iu


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
    iu = triu_indices(n)
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


def mf_vector(c: np.ndarray, rng: np.random.Generator,
              others: np.ndarray | None = None) -> np.ndarray:
    """Exact draw from the von Mises-Fisher density prop-to exp(c'u).

    Without `others`, u ranges over the unit sphere S^{m-1} of R^m, m =
    len(c). Given an m x k matrix `others` with orthonormal columns, u
    ranges over the unit sphere of their orthogonal complement, a sphere
    of dimension q - 1 with q = m - k. There c'u = c_perp'u, where c_perp
    is c projected off `others`, so only kappa = |c_perp| and q enter the
    law, and no basis of the complement is formed: O(mk) work per draw.

    Tangent-normal decomposition with Wood's (1994) rejection sampler for
    the cosine t of the angle to the mode mu = c_perp/kappa: t has density
    prop-to (1-t^2)^((q-3)/2) exp(kappa t) on [-1, 1]. The tangent
    direction is a ``standard_normal(m)`` projected off `others` and off
    mu. For q = 1 the sphere is the two points {n, -n}, n a unit normal of
    the complement, and u = n with probability 1/(1 + exp(-2 c'n)); for
    kappa = 0 the draw is uniform.
    """
    c = np.asarray(c, dtype=np.float64)
    m = c.shape[0]
    if others is None:
        q = m
    else:
        q = m - others.shape[1]
        c = _project_off(c, others)
    kappa = float(np.linalg.norm(c))
    if q == 1:
        if others is None:
            n = np.ones(1)
        elif kappa > 0.0:
            n = c / kappa
        else:
            return sample_sphere(m, rng, others)
        p_plus = 1.0 / (1.0 + np.exp(-2.0 * (c @ n)))
        return n if rng.random() < p_plus else -n
    if kappa == 0.0:
        return sample_sphere(m, rng, others)
    mu = c / kappa

    b = (-2.0 * kappa + np.sqrt(4.0 * kappa * kappa + (q - 1.0) ** 2)) / (q - 1.0)
    x0 = (1.0 - b) / (1.0 + b)
    logc = kappa * x0 + (q - 1.0) * np.log1p(-x0 * x0)
    half = 0.5 * (q - 1.0)
    while True:
        zb = rng.beta(half, half)
        t = (1.0 - (1.0 + b) * zb) / (1.0 - (1.0 - b) * zb)
        if kappa * t + (q - 1.0) * np.log1p(-x0 * t) - logc >= np.log(rng.random()):
            break

    # uniform direction in the tangent space at mu
    while True:
        v = rng.standard_normal(m)
        if others is not None:
            v = _project_off(v, others)
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
    Omega = I + 2*lam_hat/b, where lam_hat = max(lam) - lam >= 0. With
    s = sum_i lam_hat_i y_i^2, the envelope bound
    exp(-s) (1 + 2s/b)^{q/2} <= exp(-(q-b)/2) (q/b)^{q/2} holds for every
    b in (0, q] and s >= 0, so any such b gives exact draws; b only sets
    the acceptance rate. The tuning constant solving
    sum_i 1/(b + 2*lam_hat_i) = 1 (found by Newton's method, see
    ``_acg_envelope_parameter``) keeps acceptance high even for strongly
    concentrated targets. Each proposal takes one ``standard_normal(q)``
    and one ``random()`` from the generator.
    """
    lam = np.asarray(lam, dtype=np.float64)
    q = lam.shape[0]
    if q == 1:
        return np.array([1.0 if rng.random() < 0.5 else -1.0])
    lam_hat = np.max(lam) - lam
    if not lam_hat.any():
        return sample_sphere(q, rng)
    b = _acg_envelope_parameter(lam_hat)
    scale = 1.0 / np.sqrt(1.0 + 2.0 * lam_hat / b)
    log_m = 0.5 * (b - q) + 0.5 * q * math.log(q / b)
    while True:
        x = rng.standard_normal(q) * scale
        nrm2 = float(x @ x)
        if nrm2 <= 1e-24:
            continue
        s = float((x * x) @ lam_hat) / nrm2  # s = sum_i lam_hat_i y_i^2
        if np.log(rng.random()) < 0.5 * q * math.log1p(2.0 * s / b) - s - log_m:
            return x / math.sqrt(nrm2)


def _acg_envelope_parameter(lam_hat: np.ndarray) -> float:
    """Solve F(b) = sum_i 1/(b + 2 lam_hat_i) = 1 for b in [1, q].

    lam_hat >= 0 with at least one zero entry (the maximum of lam) and at
    least one positive one. Newton's method from b = 1 on h(b) = 1/F(b) - 1:
    q/F is the harmonic mean of the b + 2 lam_hat_i, which is concave, so h
    is increasing and concave, and h(1) <= 0 because F(1) >= 1. Every tangent
    lies above h, so every iterate stays at or below the root and they
    rise monotonically to it. The step F (F - 1) / sum_i w_i^2, with
    w_i = 1/(b + 2 lam_hat_i), is F >= 1 times Newton's step on F - 1, so
    it takes fewer steps. Stops once a step is at most 1e-15 b; raises
    rather than return an unconverged b. Any b in (0, q] keeps the
    envelope valid, so the root's last bits change only the acceptance
    rate, not the law of the draws.
    """
    two_lam = 2.0 * lam_hat
    b = 1.0
    for _ in range(ACG_NEWTON_MAX_STEPS):
        w = 1.0 / (b + two_lam)
        f = float(w.sum())
        step = f * (f - 1.0) / float(w @ w)
        b += step
        if step <= 1e-15 * b:
            return b
    raise RuntimeError(
        f"ACG envelope constant did not converge in {ACG_NEWTON_MAX_STEPS} "
        f"Newton steps (q={lam_hat.shape[0]}, last b={b!r})")
