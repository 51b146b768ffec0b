"""The hot sampling kernels, in NumPy.

Wood's (1994) von Mises-Fisher sampler, the angular-central-Gaussian
Bingham sampler of Kent, Ganeiber & Mardia (2018), the probit Z fill and
the one-sided truncated normal. Each draws from the generator in a fixed
order, so a seed reproduces the same draws given the same NumPy and
SciPy. The two column kernels, ``mf_vector`` and ``bingham_spectral``,
take the other columns of a frame as `others` and draw on the sphere of
their orthogonal complement without forming a basis of it; without
`others` they draw against an m x 0 frame, on one path for every k >= 0.
``BACKEND`` names this implementation and is recorded in CLI run manifests.

The Bingham kernel's per-draw work at n = 50 is a few dozen operations
on n-vectors and n x n matrices and a few LAPACK calls, where call
overhead outweighs arithmetic. Its products are written ``a.dot(b)``: at
n = 50 the method costs about half as much per call as ``a @ b``, which
also does not hand a product with a one-long inner dimension (an outer
product at k = 1) to BLAS and takes about four times as long over it.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError

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

# Bingham proposals drawn, solved and tested together; a draw tests 2.2
# to 4.8, median 4.4, at n = 50 (u_sweeps.proposals_per_draw_mean in the
# manifests of the eight eigen-paper chains of perfbench/run.py, seed 1).
PROPOSAL_BATCH = 8

# The Lanczos run for the envelope's shift stops once a step raises the
# top Ritz value by at most RITZ_TOL * beta (at 1/16 it stopped 8 below
# the top of a flat spectrum, and the factorization failed).
RITZ_TOL = 1.0 / 64.0
LANCZOS_MAX_STEPS = 32

# Largest max(|mu|, |a|_F) / beta. Omega's entries near the top of the
# spectrum, 1 + 2(mu - lambda)/beta, are differences of numbers up to twice
# that ratio, so its weakest direction carries a relative error of up to
# about eps * 2e10 = 4.4e-6 (see docs/decisions.md).
MAX_SHIFT_OVER_B = 1e10


@dataclass
class DrawCounts:
    """A chain's sweep diagnostics: Bingham column draws that tested
    proposals, proposals tested in all and at most in one draw, draws
    whose shift took the bisection fallback, and frame repairs of either
    sweep."""

    draws: int = 0
    proposals: int = 0
    max_proposals: int = 0
    shift_fallbacks: int = 0
    frame_repairs: int = 0

    def report(self) -> dict:
        return {"proposals_per_draw_mean": self.proposals / max(self.draws, 1),
                "proposals_per_draw_max": self.max_proposals,
                "shift_fallbacks": self.shift_fallbacks,
                "frame_repairs": self.frame_repairs}


def sample_sphere(m: int, rng: np.random.Generator,
                  others: np.ndarray | None = None) -> np.ndarray:
    """Uniform draw on the unit sphere in R^m, or, given an m x k matrix
    `others` with orthonormal columns, on the unit sphere of their
    orthogonal complement. One ``standard_normal(m)`` per attempt."""
    others = _frame(others, m)
    while True:
        x = _project_off(rng.standard_normal(m), others)
        norm = np.linalg.norm(x)
        if norm > 1e-12:
            return x / norm


def _frame(w: np.ndarray | None, m: int) -> np.ndarray:
    """The other columns as an m x k array, None being the m x 0 frame.
    Raises DimensionError unless k < m: with k >= m the complement has no
    direction, so there is no sphere to draw on."""
    w = np.empty((m, 0)) if w is None else w
    if w.shape[1] >= m:
        raise DimensionError(f"{w.shape[1]} other columns in R^{m} leave no "
                             "direction to draw in; need fewer than m")
    return w


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
    kappa is too large for Wood's b to stay positive, and DimensionError
    when k >= m.
    """
    c = np.asarray(c, dtype=np.float64)
    m = c.shape[0]
    others = _frame(others, m)
    q = m - others.shape[1]
    c = _project_off(c, others)
    # an overflowing |c| is inf, which the check below reports by name
    with np.errstate(over="ignore"):
        kappa = float(np.linalg.norm(c))
    if not math.isfinite(kappa):
        raise InputError(f"von Mises-Fisher parameter norm {kappa} is not finite")
    if q == 1:
        if m == 1:  # R^1 keeps its fixed normal +1, and so its seeded draws
            n = np.ones(1)
        elif kappa > 0.0:
            n = c / kappa
        else:
            return sample_sphere(m, rng, others)
        # exp overflows to inf for c'n below about -355, giving p_plus = 0
        with np.errstate(over="ignore"):
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
        uniform = rng.random()  # U = 0 accepts, with no log taken of it
        if not uniform or (kappa * (2.0 * b / (1.0 + b) - one_minus_t)
                           + (q - 1.0) * math.log((1.0 + b) / (2.0 * den))) >= np.log(uniform):
            break
    t = 1.0 - one_minus_t

    # uniform direction in the tangent space at mu
    while True:
        v = _project_off(rng.standard_normal(m), others)
        v -= mu * (mu @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            v /= norm
            break
    u = t * mu + math.sqrt(max(0.0, one_minus_t * (2.0 - one_minus_t))) * v
    return u / np.linalg.norm(u)


def bingham_spectral(a: np.ndarray, rng: np.random.Generator,
                     others: np.ndarray | None = None,
                     start: np.ndarray | None = None,
                     counts: DrawCounts | None = None) -> np.ndarray:
    """Exact draw y with density prop-to exp(y'ay) on a sphere, a symmetric.

    Without `others`, y ranges over the unit sphere of R^n; given an n x k
    matrix W = `others` with orthonormal columns, over the unit sphere of
    their complement (q = n - k), where y'ay = y'Cy, C = PaP, P = I - WW'.
    Nothing is decomposed and no basis of the complement is formed.

    Rejection from an angular-central-Gaussian envelope (Kent, Ganeiber &
    Mardia 2018): y = Px/|Px| with x ~ N(0, Omega^-1), where Omega is
    (1 + 2 mu/beta) I - (2/beta) C on the complement and I on span(W). The
    draw is exact for every mu and beta > 0 that make Omega positive
    definite, so a successful Cholesky factorization certifies it; mu and
    beta (``_envelope``) set only the acceptance rate, and when the
    factorization fails mu is raised by bisection toward a Gershgorin
    bound. Each batch of PROPOSAL_BATCH proposals is one triangular solve;
    `counts`, if given, records the proposals tested and any fallback.
    ``scipy.linalg`` loads at the first draw, not with the module. Raises
    InputError when a has a non-finite entry or |a|_F^2 overflows, or when
    max(|mu|, |a|_F) > MAX_SHIFT_OVER_B * beta, and DimensionError when
    k >= n. See
    docs/decisions.md, "Bingham columns are drawn in A's own basis".
    """
    from scipy.linalg.blas import dsyr2k
    from scipy.linalg.lapack import dpotrf, dtrtrs

    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    others = _frame(others, n)
    k = others.shape[1]
    q = n - k
    counts = DrawCounts() if counts is None else counts
    flat = a.ravel()
    with np.errstate(over="ignore"):  # an overflow is reported below by name
        a_sq = float(flat.dot(flat))
    if not math.isfinite(a_sq):
        raise InputError(f"Bingham parameter has a non-finite entry or its "
                         f"squared norm overflows: |a|_F^2 = {a_sq}")
    if q == 1 or not a_sq:
        return sample_sphere(n, rng, others)
    # C = a - WG' - GW' with G = aW - W(W'aW)/2, never formed
    aw = a.dot(others)
    waw = others.T.dot(aw)
    g = aw - 0.5 * others.dot(waw)
    trace = float(a.trace()) - float(waw.trace())
    c_sq = a_sq - 2.0 * float((aw * aw).sum()) + float((waw * waw).sum())
    mu, beta = _envelope(a, others, start, q, trace, c_sq)
    scale = max(abs(mu), math.sqrt(a_sq))
    if scale > MAX_SHIFT_OVER_B * beta:
        raise InputError(f"column conditional too concentrated for double precision: "
                         f"its scale {scale:.3g} is {scale / beta:.3g} times the "
                         f"envelope constant (at most {MAX_SHIFT_OVER_B:.0e})")

    def factor(shift):
        # Omega = d I - (2/beta) a + WH' + HW', d = 1 + 2 shift/beta,
        # H = (2/beta) G + (1 - d) W/2: one triangle, handed to LAPACK as
        # the transpose, which for C-ordered a is Fortran-ordered, uncopied
        d = 1.0 + 2.0 * shift / beta
        omega = a * (-2.0 / beta)
        omega.flat[::n + 1] += d
        omega = omega.T
        if k:  # BLAS rejects an empty inner dimension, printing an XERBLA line
            omega = dsyr2k(1.0, others.T, ((2.0 / beta) * g + 0.5 * (1.0 - d) * others).T,
                           beta=1.0, c=omega, trans=1, lower=1, overwrite_c=1)
        chol, info = dpotrf(omega, lower=1, clean=0, overwrite_a=1)
        return chol if info == 0 else None

    chol = factor(mu)
    if chol is None:
        # a failure at lo puts C's top above lo + beta/2; Omega >= I at hi.
        # The guard bounds (hi - lo)/beta, so this takes at most ~40 halvings
        lo = mu
        hi = float((np.abs(a).sum(axis=1) - np.abs(a.diagonal()) + a.diagonal()).max())
        while hi - lo > 0.25 * beta:
            mid = 0.5 * (lo + hi)
            if factor(mid) is None:
                lo = mid
            else:
                hi = mid
        chol = factor(min(hi, lo + 0.75 * beta))  # at most beta/4 above the top
        if chol is None:
            raise InputError("the ACG envelope's precision is not positive "
                             f"definite at the shift {min(hi, lo + 0.75 * beta):.6g}")
        counts.shift_fallbacks += 1
    log_m = 0.5 * (beta - q) + 0.5 * q * math.log(q / beta)
    for tested in itertools.count(0, PROPOSAL_BATCH):
        z = rng.standard_normal((PROPOSAL_BATCH, n))
        zz = (z * z).sum(axis=1)
        x = dtrtrs(chol, z.T, lower=1, trans=1, overwrite_b=1)[0]
        wx = others.T.dot(x)
        x -= others.dot(wx)
        zz -= (wx * wx).sum(axis=0)
        r = zz / (x * x).sum(axis=0)  # y'Dy = 1 + 2s/beta for each proposal
        with np.errstate(divide="ignore"):  # U = 0 gives -inf, which accepts
            log_u = np.log(rng.random(PROPOSAL_BATCH))
        passed = log_u < 0.5 * q * np.log(r) - 0.5 * beta * (r - 1.0) - log_m
        if passed.any():
            first = int(passed.argmax())
            counts.draws += 1
            counts.proposals += tested + first + 1
            counts.max_proposals = max(counts.max_proposals, tested + first + 1)
            y = x[:, first]
            y -= others.dot(y.dot(others))
            return y / math.sqrt(y.dot(y))


def _envelope(a: np.ndarray, others: np.ndarray, start: np.ndarray | None,
              q: int, trace: float, c_sq: float) -> tuple[float, float]:
    """(mu, beta): the top Ritz value of a Lanczos run on C = PaP from
    `start` (by default an axis), stopped once a step raises it by at most
    RITZ_TOL * beta, and the envelope constant of a three-node quadrature
    of C's spectrum on the complement from its sum `trace` and sum of
    squares `c_sq`: the top at mu, the other q - 1 at their mean plus and
    minus their standard deviation. Orthogonalizing each new vector
    against W's columns as well applies P."""
    from scipy.linalg.lapack import dsterf

    rest = q - 1

    def quadrature_beta(top):
        mean = (trace - top) / rest
        sd = math.sqrt(max((c_sq - top * top) / rest - mean * mean, 0.0))
        return _acg_envelope_parameter(
            (0.0, max(top - mean - sd, 0.0), max(top - mean + sd, 0.0)),
            (1.0, 0.5 * rest, 0.5 * rest), rtol=1e-6)

    k = others.shape[1]
    steps = min(rest, LANCZOS_MAX_STEPS)
    basis = np.empty((k + steps + 2, a.shape[0]))  # W's columns, then the run's
    basis[:k] = others.T
    if start is None:
        # the axis farthest from span(W); with no W, a's top diagonal one
        start = np.zeros(a.shape[0])
        start[np.argmin((others * others).sum(axis=1)) if k
              else np.argmax(a.diagonal())] = 1.0
    start = _project_off(start, others)
    basis[k] = start / math.sqrt(start.dot(start))
    diag, offdiag = np.empty(steps + 1), np.empty(steps + 1)
    beta, ritz = None, 0.0
    tiny = 1e-12 * math.sqrt(max(c_sq, 0.0))
    for m in range(steps + 1):
        vs = basis[:k + m + 1]
        w = a.dot(vs[-1])
        coef = vs.dot(w)
        diag[m] = coef[-1]
        top = float(dsterf(diag[:m + 1], offdiag[:m])[0][-1] if m else diag[0])
        change, ritz = top - ritz, top
        if m and (beta is None or change <= RITZ_TOL * beta):
            beta = quadrature_beta(ritz)
            if change <= RITZ_TOL * beta:
                return ritz, beta
        w -= coef.dot(vs)
        norm = math.sqrt(w.dot(w))
        if norm <= tiny:
            break
        offdiag[m] = norm
        basis[k + m + 1] = w / norm
    return ritz, quadrature_beta(ritz)


def _acg_envelope_parameter(lam_hat: Sequence[float],
                            weights: Sequence[float],
                            rtol: float) -> float:
    """Solve F(b) = sum_i w_i/(b + 2 lam_hat_i) = 1 for b in [1, q], q = sum_i w_i.

    lam_hat >= 0 has a zero entry of weight at least 1 (the maximum of
    lam); weights above 1 let a few nodes stand for a spectrum (the
    kernel passes three, hence plain loops). Newton's method from b = 1
    on h(b) = 1/F(b) - 1: q/F is a weighted harmonic mean of the
    b + 2 lam_hat_i, which is concave, so h is increasing and concave, and
    h(1) <= 0 because F(1) >= 1. Every tangent lies above h, so the
    iterates rise monotonically to the root. The step F (F - 1) / sum_i
    w_i d_i^2, d_i = 1/(b + 2 lam_hat_i), is F >= 1 times Newton's step on
    F - 1. Stops once a step is at most rtol * b; raises rather than return
    an unconverged b. Any b > 0 keeps the envelope valid, so the root's
    last bits change only the acceptance rate, not the law of the draws.
    """
    two_lam = [2.0 * float(x) for x in lam_hat]
    b = 1.0
    for _ in range(ACG_NEWTON_MAX_STEPS):
        f = slope = 0.0
        for t, w in zip(two_lam, weights):
            d = 1.0 / (b + t)
            f += w * d
            slope += w * d * d
        step = f * (f - 1.0) / slope
        b += step
        if step <= rtol * b:
            return b
    raise RuntimeError(
        f"ACG envelope constant did not converge in {ACG_NEWTON_MAX_STEPS} "
        f"Newton steps (nodes={len(two_lam)}, last b={b!r})")
