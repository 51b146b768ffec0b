import ctypes
import hashlib
import warnings

import numpy as np
import pytest
from scipy.stats import ks_2samp, norm

from stiefel_mcmc import kernels
from stiefel_mcmc.errors import DimensionError, InputError

from oracles import (
    BINGHAM2_DIAG3,
    acg_envelope_parameter_bisection,
    truncnorm_left_two_branch,
)

# Test ids carry the implementation's name, e.g. ``[pure]``.
KERNELS = pytest.mark.parametrize("mod", [kernels], ids=[kernels.BACKEND])


@KERNELS
class TestTruncnorm:
    def test_strict_inequality_deep_tail(self, mod):
        rng = np.random.default_rng(0)
        draws = np.array([mod.truncnorm_left(10.0, rng) for _ in range(5000)])
        assert np.all(draws > 10.0)
        assert np.all(np.isfinite(draws))

    @pytest.mark.parametrize("a", [-6.0, -1.0, 0.0, 2.0, 4.9, 5.5, 8.0])
    def test_mean_matches_closed_form(self, mod, a):
        rng = np.random.default_rng(1)
        n = 40_000
        draws = np.array([mod.truncnorm_left(a, rng) for _ in range(n)])
        expected = norm.pdf(a) / norm.sf(a)
        var = 1.0 + a * expected - expected**2
        assert abs(draws.mean() - expected) < 4 * np.sqrt(var / n)


@KERNELS
class TestZFill:
    def test_codes_respected_and_symmetric(self, mod):
        rng = np.random.default_rng(2)
        n = 10
        codes = rng.integers(-1, 2, size=(n, n)).astype(np.int8)
        codes = np.triu(codes, 1) + np.triu(codes, 1).T
        np.fill_diagonal(codes, -1)
        mean = rng.standard_normal((n, n))
        mean = 0.5 * (mean + mean.T)
        for _ in range(200):
            z = mod.zfill_probit(mean, mod.ProbitCodes(codes), rng)
            np.testing.assert_array_equal(z, z.T)
            assert np.all(z[codes == 1] > 0)
            assert np.all(z[codes == 0] < 0)

    def test_diagonal_variance_two(self, mod):
        rng = np.random.default_rng(3)
        n = 8
        codes = np.full((n, n), -1, dtype=np.int8)
        mean = np.zeros((n, n))
        probit_codes = mod.ProbitCodes(codes)
        diags = np.concatenate([np.diag(mod.zfill_probit(mean, probit_codes, rng))
                                for _ in range(6000)])
        assert diags.var() == pytest.approx(2.0, abs=0.06)


@pytest.mark.parametrize("a", [-6.0, 0.0, 4.9, 5.5, 40.0])
def test_truncnorm_left_matches_the_two_branch_sampler(a):
    # one log-space inverse CDF against the inverse CDF below 5 and the
    # exponential-envelope rejection tail above it
    rng = np.random.default_rng(20)
    draws = kernels.truncnorm_left(np.full(4000, a), rng)
    reference = [truncnorm_left_two_branch(a, rng) for _ in range(4000)]
    assert np.all(draws > a)
    assert ks_2samp(draws, reference).pvalue > 1e-3


def test_truncnorm_left_keeps_the_shape_of_its_cuts():
    rng = np.random.default_rng(21)
    assert kernels.truncnorm_left(1.0, rng).shape == (1,)
    cuts = np.array([-np.inf, -2.0, 0.0, 38.5, 1e3, 1e6])
    draws = kernels.truncnorm_left(cuts, rng)
    assert draws.shape == cuts.shape
    assert np.all(np.isfinite(draws)) and np.all(draws > cuts)


@pytest.mark.parametrize("a", [np.inf, np.nan])
def test_truncnorm_left_rejects_an_unsatisfiable_cut(a):
    with pytest.raises(InputError, match="truncation points"):
        kernels.truncnorm_left(np.array([0.0, a]), np.random.default_rng(22))


class FirstUniformZero(np.random.Generator):
    """A Generator whose first ``random()`` value is exactly 0.0."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.first = True

    def random(self, size=None, *args, **kwargs):
        out = super().random(size, *args, **kwargs)
        if self.first:
            self.first = False
            if size is None:
                return 0.0
            out.flat[0] = 0.0
        return out


@pytest.mark.parametrize("a", [-np.inf, -3.0, 0.0, 4.9, 40.0])
def test_truncnorm_left_survives_a_zero_uniform(a):
    # U = 0 puts the inverse CDF on the cut (or at -inf for an
    # unconstrained draw); the entry is redrawn, never returned as +inf
    x = kernels.truncnorm_left(a, FirstUniformZero(23))
    assert np.all(np.isfinite(x)) and np.all(x > a)


def test_zfill_probit_survives_a_zero_uniform():
    n = 6
    codes = np.ones((n, n), dtype=np.int8)
    codes[0, 2] = codes[2, 0] = 0
    codes[1, 3] = codes[3, 1] = -1
    np.fill_diagonal(codes, -1)
    mean = np.full((n, n), 0.5)
    z = kernels.zfill_probit(mean, kernels.ProbitCodes(codes),
                             FirstUniformZero(24))
    assert np.all(np.isfinite(z))
    assert np.all(z[codes == 1] > 0) and np.all(z[codes == 0] < 0)


def test_zfill_probit_holds_signs_against_large_means():
    # |mean| up to 50 of both signs: cuts from -50 to 50, far past the
    # point where the upper-tail probability underflows
    rng = np.random.default_rng(25)
    n = 16
    codes = rng.integers(-1, 2, size=(n, n)).astype(np.int8)
    codes = np.triu(codes, 1) + np.triu(codes, 1).T
    np.fill_diagonal(codes, -1)
    mean = rng.uniform(-50.0, 50.0, size=(n, n))
    mean = np.triu(mean, 1) + np.triu(mean, 1).T
    mean[0, 1] = mean[1, 0] = -50.0
    mean[0, 2] = mean[2, 0] = 50.0
    codes[0, 1] = codes[1, 0] = 1
    codes[0, 2] = codes[2, 0] = 0
    for _ in range(200):
        z = kernels.zfill_probit(mean, kernels.ProbitCodes(codes), rng)
        assert np.all(np.isfinite(z))
        assert np.all(z[codes == 1] > 0) and np.all(z[codes == 0] < 0)


class TestVectorKernels:
    def test_mf_unit_norm_all_dims(self):
        rng = np.random.default_rng(4)
        for m in (1, 2, 3, 10, 40):
            c = rng.standard_normal(m) * 4
            u = kernels.mf_vector(c, rng)
            assert abs(u @ u - 1.0) <= 1e-12

    def test_bingham_unit_norm_and_sign_case(self):
        rng = np.random.default_rng(5)
        y = kernels.bingham_spectral(np.array([[2.5]]), rng)
        assert y[0] in (-1.0, 1.0)
        for q in (2, 5, 30):
            _, a = _rotated(rng.uniform(-50, 50, q), rng)
            y = kernels.bingham_spectral(a, rng)
            assert abs(y @ y - 1.0) <= 1e-12

    def test_sphere_uniform(self):
        rng = np.random.default_rng(6)
        draws = np.array([kernels.sample_sphere(3, rng) for _ in range(30_000)])
        np.testing.assert_allclose((draws**2).mean(axis=0), 1 / 3, atol=0.02)
        assert np.all(np.abs(draws.mean(axis=0)) < 0.02)


def test_mf_vector_survives_a_zero_uniform():
    # U = 0 accepts Wood's first proposal, with no log taken of it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = kernels.mf_vector(np.array([3.0, 1.0, 0.5]), FirstUniformZero(26))
    assert abs(u @ u - 1.0) <= 1e-12


def test_bingham_spectral_survives_a_zero_uniform():
    # U = 0 in the first batch accepts that proposal, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = kernels.bingham_spectral(np.diag([2.0, 0.0, -1.0]), FirstUniformZero(27))
    assert abs(y @ y - 1.0) <= 1e-12


@pytest.mark.parametrize("entry, fill", [(np.nan, 0.0), (np.inf, 0.0), (1.0, 1e200)],
                         ids=["nan", "inf", "overflowing-norm"])
def test_bingham_spectral_rejects_a_non_finite_matrix(entry, fill):
    a = np.full((3, 3), fill)
    a[0, 1] = a[1, 0] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="non-finite entry or its squared norm"):
            kernels.bingham_spectral(a, np.random.default_rng(28))


def test_backend_reports_name():
    assert kernels.BACKEND == "pure"


def _envelope_spectra():
    """lam_hat = max(lam) - lam for random spectra, q from 2 to 500 and
    scales from 1e-3 to 1e6, plus one nonzero entry and repeated maxima."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        q = int(rng.integers(2, 501))
        lam = rng.uniform(0.0, 1.0, q) * 10.0 ** rng.uniform(-3.0, 6.0)
        yield lam.max() - lam
    for q in (2, 3, 49, 500):
        for scale in (1e-3, 1.0, 1e6):
            single = np.zeros(q)
            single[q // 2] = scale
            yield single
            tied = rng.uniform(0.0, scale, q)
            tied[: q // 2 + 1] = scale
            yield scale - tied


def test_acg_envelope_parameter_solves_and_matches_bisection():
    for lam_hat in _envelope_spectra():
        q = lam_hat.shape[0]
        b = kernels._acg_envelope_parameter(lam_hat, np.ones(q), rtol=1e-15)
        assert 1.0 <= b <= q
        assert abs(np.sum(1.0 / (b + 2.0 * lam_hat)) - 1.0) <= 1e-12
        ref = acg_envelope_parameter_bisection(lam_hat)
        assert abs(b - ref) <= 1e-12 * ref


def test_acg_envelope_parameter_weights_count_repeated_nodes():
    # a node of weight w stands for w equal entries
    lam_hat = np.array([0.0, 2.5, 40.0])
    weights = np.array([1.0, 7.0, 12.0])
    b = kernels._acg_envelope_parameter(lam_hat, weights, rtol=1e-15)
    assert b == pytest.approx(
        kernels._acg_envelope_parameter(np.repeat(lam_hat, [1, 7, 12]), np.ones(20),
                                        rtol=1e-15), rel=1e-12)
    assert abs(float(np.sum(weights / (b + 2.0 * lam_hat))) - 1.0) <= 1e-12


def test_acg_envelope_parameter_raises_instead_of_returning_unconverged():
    with pytest.raises(RuntimeError, match="did not converge"):
        kernels._acg_envelope_parameter(np.array([0.0, np.nan, 1.0]), np.ones(3),
                                        rtol=1e-15)


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("kappa", [1e9, 1e20, 1e40])
def test_mf_vector_returns_at_huge_concentration(kappa, q, deadline):
    # Wood's b = (-2k + sqrt(4k^2 + (q-1)^2))/(q-1) cancels to 0 here and
    # the cancelling form compared NaNs forever
    c = np.zeros(q)
    c[-1] = kappa
    rng = np.random.default_rng(14)
    with deadline(10.0):
        draws = [kernels.mf_vector(c, rng) for _ in range(20)]
    for u in draws:
        assert abs(u @ u - 1.0) <= 1e-12
        assert u[-1] > 1.0 - 1e-6


@pytest.mark.parametrize("scale, others", [
    (1e200, None), (1e308, None), (1e200, np.eye(3)[:, :1])],
    ids=["1e+200", "1e+308", "1e+200-others"])
def test_mf_vector_raises_when_the_norm_overflows(scale, others, deadline):
    # |c| overflows to inf, so Wood's b is 0 and the acceptance test
    # compared NaNs forever; the named error comes out with no NumPy
    # warning before it
    c = np.zeros(3)
    c[-1] = scale
    with (deadline(10.0), pytest.raises(InputError, match="not finite"),
          warnings.catch_warnings()):
        warnings.simplefilter("error", RuntimeWarning)
        kernels.mf_vector(c, np.random.default_rng(16), others)


@pytest.mark.parametrize("draw", [
    lambda rng: kernels.sample_sphere(2, rng, np.eye(2)),
    lambda rng: kernels.mf_vector(np.ones(2), rng, np.eye(2)),
    lambda rng: kernels.mf_vector(np.zeros(0), rng),
    lambda rng: kernels.bingham_spectral(np.diag([1.0, 2.0]), rng, np.eye(2)),
], ids=["sphere", "mf", "mf-empty", "bingham"])
def test_a_frame_that_leaves_no_direction_is_rejected(draw, deadline):
    # with k >= m other columns the complement is {0}: sample_sphere and
    # mf_vector drew normals for ever and bingham_spectral divided by zero
    with deadline(5.0), pytest.raises(DimensionError, match="no direction"):
        draw(np.random.default_rng(17))


def _rotated(spectrum, rng):
    """(Q, Q diag(spectrum) Q') for a uniformly random rotation Q."""
    q = np.linalg.qr(rng.standard_normal((len(spectrum), len(spectrum))))[0]
    return q, (q * spectrum) @ q.T


# sha256 prefixes of 200 draws per case, rounded to 8 decimals so that
# the last bits of LAPACK's triangular solves, which may differ between
# CPUs, do not move them; recorded from the kernel that draws in A's own
# basis: (seed, q, scale of the uniform spectrum) -> digest
BINGHAM_NO_OTHERS_DIGESTS = {
    (1, 1, 1.0): "2b6e1134d29a7e41",
    (2, 2, 0.5): "725048015280ef22",
    (3, 3, 5.0): "4df9c96760520fab",
    (4, 7, 40.0): "60898865252c67b0",
    (5, 49, 10.0): "53c252aedab70f25",
    (6, 5, 0.0): "6811d11f1be8066a",
}


@pytest.mark.parametrize("case", sorted(BINGHAM_NO_OTHERS_DIGESTS))
def test_bingham_spectral_without_others_draws_as_before(case):
    seed, q, scale = case
    rng = np.random.default_rng(seed)
    _, a = _rotated(rng.uniform(-1.0, 1.0, q) * scale, rng)
    draws = np.array([kernels.bingham_spectral(a, rng) for _ in range(200)])
    digest = hashlib.sha256(np.round(draws, 8).tobytes()).hexdigest()[:16]
    assert digest == BINGHAM_NO_OTHERS_DIGESTS[case]


@pytest.mark.parametrize("m", [1, 2, 7, 49])
def test_an_empty_frame_draws_as_no_frame(m, capfd):
    # an m x 0 `others` is the case with no other columns, so each kernel
    # gives it the same bytes as None. BLAS reports a call it rejects
    # (XERBLA) through C stdio, which no Python warning filter sees and
    # which may hold the line in its buffer until flushed
    rng = np.random.default_rng(60 + m)
    _, a = _rotated(rng.uniform(-1.0, 1.0, m) * 5.0, rng)
    draws = {
        "mf_vector": lambda rng, w: kernels.mf_vector(
            np.full(m, -1.5 / np.sqrt(m)), rng, w),
        "mf_vector_uniform": lambda rng, w: kernels.mf_vector(np.zeros(m), rng, w),
        "bingham_spectral": lambda rng, w: kernels.bingham_spectral(a, rng, w),
        "sample_sphere": lambda rng, w: kernels.sample_sphere(m, rng, w),
    }
    for name, draw in draws.items():
        got = []
        for w in (None, np.empty((m, 0))):
            rng = np.random.default_rng(m)
            got.append(np.array([draw(rng, w) for _ in range(50)]).tobytes())
        assert got[0] == got[1], name
    fflush = ctypes.CDLL(None).fflush
    fflush.argtypes, fflush.restype = [ctypes.c_void_p], ctypes.c_int
    assert fflush(None) == 0  # NULL: every C output stream
    assert capfd.readouterr() == ("", "")


def _blocking_others(evecs, lam, k, rng, tilt):
    """k orthonormal columns near the eigenvectors (columns of `evecs`) of
    the k largest entries of lam, so that their complement misses the top
    of the spectrum; tilt = 1 gives columns in general position."""
    n = lam.shape[0]
    top = evecs[:, np.argsort(lam)[::-1][:k]]
    mix = (1.0 - tilt) * top + tilt * rng.standard_normal((n, k))
    return np.linalg.qr(mix)[0]


@pytest.mark.parametrize("n,k,scale,tilt", [
    (2, 1, 3.0, 1.0), (4, 3, 5.0, 0.1), (5, 2, 0.0, 1.0), (6, 2, 40.0, 0.05),
    (30, 2, 500.0, 0.02), (50, 1, 20.0, 1.0), (50, 3, 3e3, 0.01)])
def test_bingham_spectral_with_others_unit_and_orthogonal(n, k, scale, tilt,
                                                          deadline):
    rng = np.random.default_rng(15)
    lam = rng.uniform(-1.0, 1.0, n) * scale
    evecs, a = _rotated(lam, rng)
    others = _blocking_others(evecs, lam, k, rng, tilt)
    with deadline(20.0):
        for _ in range(50):
            y = kernels.bingham_spectral(a, rng, others)
            assert abs(y @ y - 1.0) <= 1e-12
            assert np.abs(others.T @ y).max() <= 1e-14


@pytest.mark.parametrize("held", [0.85, 0.9])
def test_bingham_spectral_keeps_proposals_low_at_n200(held, deadline):
    # n = 200, A with spectrum -(0, 50..200) in a random basis and one
    # other column that holds the share `held` of the top eigenvector: the
    # complement misses most of the top of the spectrum, so its own
    # spectrum is nearly flat. An envelope constant set by the top
    # eigenvalue of all of A (about 8) took 39k-323k proposals per draw on
    # such columns; one fitted to the complement (about 86) takes about one.
    n = 200
    lam_hat = np.concatenate([[0.0], np.linspace(50.0, 200.0, n - 1)])
    rng = np.random.default_rng(17)
    evecs, a = _rotated(-lam_hat, rng)
    w = rng.standard_normal(n)
    w[0] = 0.0
    w *= np.sqrt(1.0 - held) / np.linalg.norm(w)
    w[0] = np.sqrt(held)
    w = evecs @ w
    others = w[:, None]
    counts = kernels.DrawCounts()
    with deadline(10.0):
        for _ in range(20):
            y = kernels.bingham_spectral(a, rng, others, counts=counts)
            assert abs(y @ y - 1.0) <= 1e-12 and abs(y @ w) <= 1e-14
    assert counts.draws == 20
    assert counts.proposals / counts.draws < 2.0


@pytest.mark.parametrize("k", [0, 2])
def test_bingham_spectral_draws_alike_from_either_memory_order(k):
    # LAPACK works on Fortran-ordered arrays; a Fortran-ordered a must give
    # the draws of its C-ordered copy, not lose an update made on a copy
    # (products may differ in their last bits between the two orders)
    rng = np.random.default_rng(27)
    _, a = _rotated(rng.uniform(-4.0, 4.0, 9), rng)
    others = np.linalg.qr(rng.standard_normal((9, k)))[0] if k else None
    draws = [[kernels.bingham_spectral(m, np.random.default_rng(28), others)
              for _ in range(20)] for m in (a, np.asfortranarray(a))]
    np.testing.assert_allclose(draws[0], draws[1], rtol=0.0, atol=1e-10)


def test_bingham_spectral_draws_with_a_negative_semidefinite_matrix():
    # A <= 0 with its top eigenvalue 0 four times over, on the complement
    # of one other column: the kernel's moments of y'Ay and y_1^2 against
    # uniform draws on that sphere weighted by exp(y'Ay)
    rng = np.random.default_rng(19)
    _, a = _rotated(np.array([0.0, 0.0, 0.0, 0.0, -3.0, -6.0, -12.0]), rng)
    others = np.linalg.qr(rng.standard_normal((7, 1)))[0]
    draws = np.array([kernels.bingham_spectral(a, rng, others) for _ in range(8000)])
    assert np.abs(draws @ others).max() <= 1e-14
    uniform = rng.standard_normal((400_000, 7))
    uniform -= (uniform @ others) @ others.T
    uniform /= np.linalg.norm(uniform, axis=1, keepdims=True)
    weights = np.exp(np.einsum("ki,ij,kj->k", uniform, a, uniform))
    for stat in (lambda y: np.einsum("ki,ij,kj->k", y, a, y), lambda y: y[:, 0] ** 2):
        drawn = stat(draws)
        target = float(np.average(stat(uniform), weights=weights))
        assert abs(drawn.mean() - target) <= 4.0 * drawn.std() / np.sqrt(len(drawn))


def test_bingham_spectral_fallback_keeps_the_law():
    # started at the bottom eigenvector of diag(3, 0), the Lanczos run is
    # invariant at once and sets the shift 3 below the top, where the
    # envelope's precision is indefinite; the bisection fallback raises the
    # shift, the fallback is counted, and E[y_1^2] still matches quadrature
    counts = kernels.DrawCounts()
    rng = np.random.default_rng(26)
    a = np.diag([3.0, 0.0])
    start = np.array([0.0, 1.0])
    y1sq = [kernels.bingham_spectral(a, rng, start=start, counts=counts)[0] ** 2
            for _ in range(20_000)]
    assert counts.shift_fallbacks == 20_000
    assert np.mean(y1sq) == pytest.approx(BINGHAM2_DIAG3, abs=0.01)
