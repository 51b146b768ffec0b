"""The hot sampling kernels, in NumPy.

Wood's (1994) von Mises-Fisher sampler, the angular-central-Gaussian
Bingham sampler of Kent, Ganeiber & Mardia (2018), the probit Z fill and
the one-sided truncated normal. Each draws from the generator in a fixed
order, so a seed reproduces the same draws given the same NumPy and
SciPy. The two column kernels, ``mf_vector`` and ``bingham_spectral``,
take the other columns of a frame as `others` and draw on the sphere of
their orthogonal complement without forming a basis of it. ``BACKEND``
names this implementation and is recorded in CLI run manifests.

The Bingham kernel's per-draw work is a few dozen operations on
n-vectors and n x k matrices, where call overhead outweighs arithmetic.
Its products are written ``a.dot(b)``: at n = 50 the method costs about
half as much per call as ``a @ b``, which also does not hand a product
with a one-long inner dimension (the kriging outer product at k = 1) to
BLAS and takes about four times as long over it.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InputError

BACKEND = "pure"

__all__ = [
    "BACKEND",
    "mf_vector",
    "bingham_spectral",
    "sample_sphere",
    "truncnorm_left",
    "zfill_probit",
]

# Newton's method for the ACG envelope constant took at most 10 steps
# from b = 1 over random spectra with q up to 500; reaching this bound
# means bad input, such as a non-finite entry.
ACG_NEWTON_MAX_STEPS = 64

# Grid points per bisection pass when locating the complement's spectral
# floor; all of a pass is tested in one batch of NumPy operations. The
# points sit this fraction of a step (2 - golden ratio) below the grid.
FLOOR_GRID = 32
FLOOR_GRID_OFFSET = 0.3819660112501051

# Largest shift of the complement's envelope, in units of b, that the
# rank-l downdate resolves: its precision entries reach -2t/b, and
# S^-1 = 1/(1 - g_B) - H_BB loses about eps * (2t/b)^1.5 of its value,
# 2e-4 here. Beyond it the proposal is no longer the stated Gaussian, so
# the kernel raises instead of drawing.
MAX_SHIFT_OVER_B = 5e7


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
    x = x - others.dot(x.dot(others))
    return x - others.dot(x.dot(others))


def truncnorm_left(a, rng: np.random.Generator) -> np.ndarray:
    """Draw x ~ N(0,1) conditioned on x > a, elementwise over the cuts
    ``np.atleast_1d(a)``; a = -inf gives an unconstrained normal.

    Inverse CDF in log space, x = -ndtri_exp(log1p(-U) + log_ndtr(-a)) with
    U ~ U[0, 1): the log of the upper-tail probability keeps full relative
    precision however far out the cut is, also past the point (a near 38)
    where ndtr(-a) underflows. One ``random(len(a))``; entries that
    rounding puts on or below the cut are redrawn, one ``random`` call per
    pass, so x > a holds strictly. Raises InputError for a cut of +inf or
    NaN, which no draw can satisfy. ``scipy.special`` is imported here and
    not with the module, so that the SVD model's path never loads it.
    """
    from scipy.special import log_ndtr, ndtri_exp

    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    if not (a < np.inf).all():
        raise InputError("truncation points must be below +inf and not NaN")
    log_tail = log_ndtr(-a)
    x = -ndtri_exp(np.log1p(-rng.random(a.shape)) + log_tail)
    while (bad := x <= a).any():
        x[bad] = -ndtri_exp(np.log1p(-rng.random(int(bad.sum()))) + log_tail[bad])
    return x


class ProbitCodes:
    """What ``zfill_probit`` reads of an n x n code matrix, taken once per
    network: the flat indices of the upper triangle (i < j) and of its
    mirror image, the sign of each upper entry (-1 where the code is 0, +1
    elsewhere) and the positions, among those entries, of the missing
    ones (negative codes)."""

    def __init__(self, codes: np.ndarray):
        codes = np.asarray(codes)
        n = codes.shape[0]
        i, j = np.triu_indices(n, 1)
        upper = codes[i, j]
        self.n = n
        self.upper = i * n + j
        self.lower = j * n + i
        self.sign = np.where(upper == 0, -1.0, 1.0)
        self.cut_sign = -self.sign
        self.missing = np.flatnonzero(upper < 0)


def zfill_probit(mean: np.ndarray, codes: ProbitCodes,
                 rng: np.random.Generator) -> np.ndarray:
    """Symmetric matrix of sign-constrained normals for probit augmentation.

    `codes` is the ``ProbitCodes`` of an n x n code matrix, taken once per
    network: code 1 -> z > 0, 0 -> z < 0, negative -> unconstrained. Off
    diagonal entries are N(mean, 1) truncated accordingly and mirrored:
    z = mean + sign*x with x from one ``truncnorm_left`` call over the
    upper triangle, sign = -1 where the code is 0 and +1 elsewhere, and
    cut -sign*mean, or -inf where the code is missing. Diagonal entries are
    unconstrained N(mean, 2) (they correspond to no observation).
    """
    n = codes.n
    mu = mean.take(codes.upper)
    cut = mu * codes.cut_sign
    cut[codes.missing] = -np.inf
    out = mu + codes.sign * truncnorm_left(cut, rng)
    z = np.empty((n, n))
    z.put(codes.upper, out)
    z.put(codes.lower, out)
    z.flat[::n + 1] = mean.diagonal() + math.sqrt(2.0) * rng.standard_normal(n)
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
    kappa = 0 the draw is uniform. Raises InputError when |c| overflows or
    kappa is too large for Wood's b to stay positive.
    """
    c = np.asarray(c, dtype=np.float64)
    m = c.shape[0]
    if others is None:
        q = m
    else:
        q = m - others.shape[1]
        c = _project_off(c, others)
    # an overflowing |c| is inf, which the check below reports by name
    with np.errstate(over="ignore"):
        kappa = float(np.linalg.norm(c))
    if not math.isfinite(kappa):
        raise InputError(f"von Mises-Fisher parameter norm {kappa} is not finite")
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

    # Wood's step written so that nothing cancels however large kappa is:
    # b = (q-1)/(2 kappa + sqrt(4 kappa^2 + (q-1)^2)) and, with
    # den = 1 - (1-b) z, 1 - t = 2 b z / den; the test is
    # kappa (t - x0) + (q-1) log((1 - x0 t)/(1 - x0^2)) >= log U with
    # x0 = (1-b)/(1+b), i.e. kappa (2b/(1+b) - (1-t)) + (q-1) log((1+b)/(2 den))
    b = (q - 1.0) / (2.0 * kappa + math.hypot(2.0 * kappa, q - 1.0))
    if not b > 0.0:
        raise InputError(f"von Mises-Fisher concentration {kappa:.3g} is too "
                         "large for Wood's sampler in double precision")
    half = 0.5 * (q - 1.0)
    while True:
        zb = rng.beta(half, half)
        den = 1.0 - (1.0 - b) * zb
        one_minus_t = 2.0 * b * zb / den
        if (kappa * (2.0 * b / (1.0 + b) - one_minus_t)
                + (q - 1.0) * math.log((1.0 + b) / (2.0 * den))) >= np.log(rng.random()):
            break
    t = 1.0 - one_minus_t

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
    u = t * mu + math.sqrt(max(0.0, one_minus_t * (2.0 - one_minus_t))) * v
    return u / np.linalg.norm(u)


def bingham_spectral(lam: np.ndarray, rng: np.random.Generator,
                     others: np.ndarray | None = None) -> np.ndarray:
    """Exact draw y with density prop-to exp(sum_i lam_i y_i^2) on a sphere.

    Without `others`, y ranges over the unit sphere S^{q-1} of R^q, q =
    len(lam). Given an n x k matrix `others` with orthonormal columns,
    n = len(lam), y ranges over the unit sphere of their orthogonal
    complement, of dimension q - 1 with q = n - k, and no basis of that
    complement is formed.

    Rejection from an angular-central-Gaussian envelope (Kent, Ganeiber &
    Mardia 2018). With lam_hat = max(lam) - lam >= 0, a shift t and
    s = sum_i lam_hat_i y_i^2, the target is prop-to exp(-(s - t)); the
    proposal is y = x/|x| with x Gaussian on the sphere's span with
    precision I + 2*(lam_hat - t)/b there, whose direction has density
    prop-to (1 + 2(s - t)/b)^{-q/2}. The bound
    exp(-u) (1 + 2u/b)^{q/2} <= exp(-(q-b)/2) (q/b)^{q/2} holds for every
    b > 0 and u > -b/2, so the draws are exact for any b and any t for
    which that precision is positive definite; b and t only set the
    acceptance rate. b solves sum_i 1/(b + 2*mu_i) = 1 for a spectrum mu
    with minimum 0 (Newton's method, see ``_acg_envelope_parameter``).

    Without `others`, mu = lam_hat, t = 0 and each proposal takes one
    ``standard_normal(q)`` and one ``random()``. Given `others`, mu
    approximates the complement's spectrum
    (``_complement_envelope_parameter``), x is drawn on R^n and
    conditioned on others'x = 0 by kriging, and t is the smallest value of
    s on the complement (``_complement_floor``) when the other columns
    hold the top of the spectrum, else 0; entries with precision below 1
    then enter through a rank-l correction (see ``_kriged_proposal``).
    Each proposal takes one ``standard_normal(n + l)``, mapped to x by one
    matrix product, and one ``random()``. Raises InputError when the shift exceeds
    ``MAX_SHIFT_OVER_B`` times b, beyond which double precision cannot
    represent the proposal.
    """
    lam = np.asarray(lam, dtype=np.float64)
    n = lam.shape[0]
    q = n if others is None else n - others.shape[1]
    if q == 1 and others is None:
        return np.array([1.0 if rng.random() < 0.5 else -1.0])
    lam_hat = lam.max() - lam
    if q == 1 or not lam_hat.any():
        return sample_sphere(n, rng, others)
    if others is None:
        b = _acg_envelope_parameter(lam_hat)
        t = 0.0
        scale = 1.0 / np.sqrt(1.0 + 2.0 * lam_hat / b)
    else:
        b = _complement_envelope_parameter(lam_hat, others)
        t = _complement_floor(lam_hat, others, b)
        if t > MAX_SHIFT_OVER_B * b:
            raise InputError(
                f"column conditional too concentrated for double precision: "
                f"its spectral floor {t:.3g} is {t / b:.3g} times the envelope "
                f"constant (at most {MAX_SHIFT_OVER_B:.0e})")
        kriging = _kriged_proposal(lam_hat, others, b, t)
    log_m = 0.5 * (b - q) + 0.5 * q * math.log(q / b)
    while True:
        if others is None:
            x = rng.standard_normal(n) * scale
        else:
            x = kriging.dot(rng.standard_normal(kriging.shape[1]))
        nrm2 = float(x.dot(x))
        if nrm2 <= 1e-24:
            continue
        u = float((x * x).dot(lam_hat)) / nrm2 - t  # u = s - t, s = sum_i lam_hat_i y_i^2
        if np.log(rng.random()) < 0.5 * q * math.log1p(2.0 * u / b) - u - log_m:
            if others is None:
                return x / math.sqrt(nrm2)
            x = _project_off(x, others)
            return x / math.sqrt(x.dot(x))


def _complement_envelope_parameter(lam_hat: np.ndarray,
                                   others: np.ndarray) -> float:
    """b for the envelope on the complement of `others`: the root of
    ``_acg_envelope_parameter`` for lam_hat without the k entries whose
    axes lie most inside the span of the k columns, shifted to its minimum.
    That is the complement's own spectrum, shifted to its floor, when the
    columns are coordinate axes, and close to it when they hold most of the
    top of the spectrum, where the root for all of lam_hat is far too
    small: its zero entry is the axis the columns hold."""
    k = others.shape[1]
    inside = np.einsum("ij,ij->i", others, others)
    kept = lam_hat[np.argpartition(inside, lam_hat.shape[0] - k)[:-k]]
    kept = kept - kept.min()
    # b for an approximate spectrum needs no last digits: stopping at a
    # step of 1e-6 b saves 1.3 of 5.5 Newton steps on eigen-paper draws
    return (_acg_envelope_parameter(kept, rtol=1e-6) if kept.any()
            else float(kept.shape[0]))


def _complement_floor(lam_hat: np.ndarray, others: np.ndarray,
                      b: float) -> float:
    """The shift t for the envelope on the complement of `others`: 0 when
    delta <= b/4, else a lower bound on delta within b/8. delta is the
    smallest value of s = y' diag(lam_hat) y over unit y orthogonal to the
    columns W of `others`, the smallest eigenvalue of the compression C of
    diag(lam_hat) to their complement; it is positive only when W holds
    the top of the spectrum.

    The Rayleigh quotient rq of the top axis e (the entry where lam_hat
    is 0) projected off W bounds delta from above: with w = W'e it is
    w'W' diag(lam_hat) W w / (1 - |w|^2). That settles the common case in
    O(nk^2). Otherwise delta lies in [0, min(rq, lam_hat_(k+1))], with
    lam_hat_(k+1) the (k+1)-th smallest entry (by interlacing), and is
    found by grid bisection on the test sigma < delta, which holds
    exactly when C - sigma is positive definite: with
    G = diag(lam_hat) - sigma and K = W'G^-1 W, the inertia of the
    bordered matrix [[G, W], [W', 0]] gives #neg(C - sigma) =
    #neg(G) - #neg(K) whenever G and K are nonsingular, so the test is
    #neg(G) == #neg(K), read off the pivots of K's LDL' factorization.
    Each pass tests FLOOR_GRID points in one batch, offset from the
    bracket's grid by an irrational fraction of a step so that no point
    meets an entry of lam_hat (a pole of G^-1) on evenly spaced spectra.
    """
    top = others[int(np.argmin(lam_hat))]
    free = 1.0 - float(top.dot(top))
    rq = (float(top.dot((lam_hat * others.dot(top)).dot(others))) / free
          if free > 0.0 else math.inf)
    if rq <= 0.25 * b:
        return 0.0
    k = others.shape[1]
    lo, hi = 0.0, min(rq, float(np.partition(lam_hat, k)[k]))
    offsets = (np.arange(1, FLOOR_GRID + 1) - FLOOR_GRID_OFFSET) / FLOOR_GRID
    # K = W'G^-1 W for every grid point at once: the row of 1/g times the
    # k^2 products w_ni w_nj of each row n of W
    outer = (others[:, :, None] * others[:, None, :]).reshape(-1, k * k)
    with np.errstate(divide="ignore", invalid="ignore"):
        while hi - lo > 0.125 * b:
            sigma = lo + (hi - lo) * offsets
            g = lam_hat - sigma[:, None]
            kk = (1.0 / g).dot(outer).reshape(FLOOR_GRID, k, k)
            neg = np.zeros(FLOOR_GRID, dtype=np.intp)
            for p in range(k):
                piv = kk[:, p, p]
                neg += piv < 0.0
                if p + 1 < k:
                    kk[:, p + 1:, p + 1:] -= (kk[:, p + 1:, p, None]
                                              * kk[:, None, p, p + 1:]
                                              / piv[:, None, None])
            below = np.count_nonzero(g < 0.0, axis=1) == neg
            m = FLOOR_GRID if below.all() else int(np.argmin(below))
            if m < FLOOR_GRID:
                hi = float(sigma[m])
            if m:
                lo = float(sigma[m - 1])
    return lo if lo > 0.125 * b else 0.0


def _kriged_proposal(lam_hat: np.ndarray, others: np.ndarray, b: float,
                     t: float):
    """Factors for x ~ N(0, (P G P)^+) on the complement of `others`,
    G = diag(g), g = 1 + 2 (lam_hat - t)/b, P the projector off `others`.

    Entries with g_i < 1 are raised to 1 in D = diag(d). Kriging
    x0 ~ N(0, D^-1) onto the complement is x = D^-1/2 (I - P_F) z with
    z ~ N(0, I) and P_F the projector onto the span of F = D^-1/2 W, so x
    has covariance H = D^-1/2 (I - P_F) D^-1/2. Lowering those l entries
    back to g_i is a rank-l downdate of the precision, so by Woodbury the
    covariance becomes H + H_B S H_B' with H_B the columns B of H and
    S = (diag(1/(1 - g_B)) - H_BB)^-1; x gets H_B w, w ~ N(0, S), added.
    S exists exactly when P G P is positive definite on the complement,
    which holds whenever t < delta + b/2 and so for the shift from
    ``_complement_floor``, which is at most delta. H_B = D^-1/2 R_B and
    H_BB = R_B'R_B with R_B the axes B projected off span(F), twice: the
    axes lie almost inside that span when the columns are concentrated,
    and 1 - |P_F e_B|^2 would lose the digits the difference S^-1 needs;
    the first projection is e_B - F (F'F)^-1 F_B'. Returns the n x (n + l)
    matrix M = [D^-1/2 (I - P_F), H_B L^-T] with S^-1 = L L', so that
    x = M z with z ~ N(0, I) has covariance H + H_B S H_B'.
    """
    n = lam_hat.shape[0]
    g = 1.0 + 2.0 * (lam_hat - t) / b
    sd = 1.0 / np.sqrt(np.maximum(g, 1.0))
    f = others * sd[:, None]
    fk = _solve_small(f.T.dot(f), f.T)
    kriged = (f * sd[:, None]).dot(-fk)
    kriged.flat[::n + 1] += sd
    low = (g < 1.0).nonzero()[0]
    if not low.size:
        return kriged
    r_b = f.dot(-fk[:, low])
    r_b[low, np.arange(low.size)] += 1.0
    r_b -= f.dot(fk.dot(r_b))
    s_inv = np.diag(1.0 / (1.0 - g[low])) - r_b.T.dot(r_b)
    chol = np.linalg.cholesky(0.5 * (s_inv + s_inv.T))
    return np.concatenate([kriged, _solve_small(chol, (sd[:, None] * r_b).T).T],
                          axis=1)


def _solve_small(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """a^-1 rhs for a small nonsingular a. A 1 x 1 system, which every
    column of a rank-2 fit meets, is one division: ``np.linalg.solve``
    costs about eight times as much in call overhead at that size."""
    return rhs / a[0, 0] if a.shape[0] == 1 else np.linalg.solve(a, rhs)


def _acg_envelope_parameter(lam_hat: np.ndarray, rtol: float = 1e-15) -> float:
    """Solve F(b) = sum_i 1/(b + 2 lam_hat_i) = 1 for b in [1, q].

    lam_hat >= 0 with at least one zero entry (the maximum of lam) and at
    least one positive one. Newton's method from b = 1 on h(b) = 1/F(b) - 1:
    q/F is the harmonic mean of the b + 2 lam_hat_i, which is concave, so h
    is increasing and concave, and h(1) <= 0 because F(1) >= 1. Every tangent
    lies above h, so every iterate stays at or below the root and they
    rise monotonically to it. The step F (F - 1) / sum_i w_i^2, with
    w_i = 1/(b + 2 lam_hat_i), is F >= 1 times Newton's step on F - 1, so
    it takes fewer steps. Stops once a step is at most rtol * b; raises
    rather than return an unconverged b. Any b in (0, q] keeps the
    envelope valid, so the root's last bits change only the acceptance
    rate, not the law of the draws.
    """
    two_lam = 2.0 * lam_hat
    b = 1.0
    for _ in range(ACG_NEWTON_MAX_STEPS):
        w = 1.0 / (b + two_lam)
        f = float(w.sum())
        step = f * (f - 1.0) / float(w.dot(w))
        b += step
        if step <= rtol * b:
            return b
    raise RuntimeError(
        f"ACG envelope constant did not converge in {ACG_NEWTON_MAX_STEPS} "
        f"Newton steps (q={lam_hat.shape[0]}, last b={b!r})")
