import hashlib

import numpy as np
import pytest
from scipy.stats import ks_2samp, norm

from stiefel_mcmc import kernels
from stiefel_mcmc.errors import InputError

from oracles import acg_envelope_parameter_bisection, truncnorm_left_two_branch

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
            z = mod.zfill_probit(mean, codes, rng)
            np.testing.assert_array_equal(z, z.T)
            assert np.all(z[codes == 1] > 0)
            assert np.all(z[codes == 0] < 0)

    def test_diagonal_variance_two(self, mod):
        rng = np.random.default_rng(3)
        n = 8
        codes = np.full((n, n), -1, dtype=np.int8)
        mean = np.zeros((n, n))
        diags = np.concatenate([np.diag(mod.zfill_probit(mean, codes, rng))
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
    z = kernels.zfill_probit(mean, codes, FirstUniformZero(24))
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
        z = kernels.zfill_probit(mean, codes, rng)
        assert np.all(np.isfinite(z))
        assert np.all(z[codes == 1] > 0) and np.all(z[codes == 0] < 0)


@KERNELS
class TestVectorKernels:
    def test_mf_unit_norm_all_dims(self, mod):
        rng = np.random.default_rng(4)
        for m in (1, 2, 3, 10, 40):
            c = rng.standard_normal(m) * 4
            u = mod.mf_vector(c, rng)
            assert abs(u @ u - 1.0) <= 1e-12

    def test_bingham_unit_norm_and_sign_case(self, mod):
        rng = np.random.default_rng(5)
        y = mod.bingham_spectral(np.array([2.5]), rng)
        assert y[0] in (-1.0, 1.0)
        for q in (2, 5, 30):
            lam = np.sort(rng.uniform(-50, 50, q))
            y = mod.bingham_spectral(lam, rng)
            assert abs(y @ y - 1.0) <= 1e-12

    def test_sphere_uniform(self, mod):
        rng = np.random.default_rng(6)
        draws = np.array([mod.sample_sphere(3, rng) for _ in range(30_000)])
        np.testing.assert_allclose((draws**2).mean(axis=0), 1 / 3, atol=0.02)
        assert np.all(np.abs(draws.mean(axis=0)) < 0.02)


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
        b = kernels._acg_envelope_parameter(lam_hat)
        assert 1.0 <= b <= q
        assert abs(np.sum(1.0 / (b + 2.0 * lam_hat)) - 1.0) <= 1e-12
        ref = acg_envelope_parameter_bisection(lam_hat)
        assert abs(b - ref) <= 1e-12 * ref


def test_acg_envelope_parameter_raises_instead_of_returning_unconverged():
    with pytest.raises(RuntimeError, match="did not converge"):
        kernels._acg_envelope_parameter(np.array([0.0, np.nan, 1.0]))


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


@pytest.mark.parametrize("scale", [1e200, 1e308])
def test_mf_vector_raises_when_the_norm_overflows(scale, deadline):
    # |c| overflows to inf, so Wood's b is 0 and the acceptance test
    # compared NaNs forever
    c = np.zeros(3)
    c[-1] = scale
    with deadline(10.0), pytest.raises(InputError, match="not finite"):
        kernels.mf_vector(c, np.random.default_rng(16))


# sha256 prefixes of 200 draws per case, recorded from the kernel before it
# took `others`: (seed, q, scale of the uniform spectrum) -> digest
BINGHAM_NO_OTHERS_DIGESTS = {
    (1, 1, 1.0): "878e334747387e8d",
    (2, 2, 0.5): "f081dc88953e5ef3",
    (3, 3, 5.0): "def259437c927e6b",
    (4, 7, 40.0): "79a5e903cf02e92a",
    (5, 49, 10.0): "4b4b34b76e6fb55c",
    (6, 5, 0.0): "5996b9fec820e934",
}


@pytest.mark.parametrize("case", sorted(BINGHAM_NO_OTHERS_DIGESTS))
def test_bingham_spectral_without_others_draws_as_before(case):
    seed, q, scale = case
    rng = np.random.default_rng(seed)
    lam = np.sort(rng.uniform(-1.0, 1.0, q)) * scale
    draws = np.array([kernels.bingham_spectral(lam, rng) for _ in range(200)])
    digest = hashlib.sha256(draws.tobytes()).hexdigest()[:16]
    assert digest == BINGHAM_NO_OTHERS_DIGESTS[case]


def _blocking_others(lam, k, rng, tilt):
    """k orthonormal columns near the eigen-directions of the k largest
    entries of lam, so that their complement misses the top of the
    spectrum; tilt = 1 gives columns in general position."""
    n = lam.shape[0]
    top = np.eye(n)[:, np.argsort(lam)[::-1][:k]]
    mix = (1.0 - tilt) * top + tilt * rng.standard_normal((n, k))
    return np.linalg.qr(mix)[0]


@pytest.mark.parametrize("n,k,scale,tilt", [
    (2, 1, 3.0, 1.0), (4, 3, 5.0, 0.1), (5, 2, 0.0, 1.0), (6, 2, 40.0, 0.05),
    (30, 2, 500.0, 0.02), (50, 1, 20.0, 1.0), (50, 3, 3e3, 0.01)])
def test_bingham_spectral_with_others_unit_and_orthogonal(n, k, scale, tilt,
                                                          deadline):
    rng = np.random.default_rng(15)
    lam = rng.uniform(-1.0, 1.0, n) * scale
    others = _blocking_others(lam, k, rng, tilt)
    with deadline(20.0):
        for _ in range(50):
            y = kernels.bingham_spectral(lam, rng, others)
            assert abs(y @ y - 1.0) <= 1e-12
            assert np.abs(others.T @ y).max() <= 1e-14


class CountingNormals(np.random.Generator):
    """Counts ``standard_normal`` calls: one per ACG proposal with `others`."""

    calls = 0

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        return super().standard_normal(*args, **kwargs)


@pytest.mark.parametrize("held", [0.85, 0.9])
def test_bingham_spectral_keeps_proposals_low_at_n200(held, deadline):
    # n = 200, lam_hat = (0, 50..200) and one other column that holds the
    # share `held` of the zero entry's axis: the complement misses most of
    # the top of the spectrum, so its own spectrum is nearly flat. The root
    # of the envelope equation for all of lam_hat (b about 8, set by the
    # zero entry) took 39k-323k proposals per draw on such columns; the
    # root for the complement (b about 86) takes about one.
    n = 200
    lam_hat = np.concatenate([[0.0], np.linspace(50.0, 200.0, n - 1)])
    rng = np.random.default_rng(17)
    w = rng.standard_normal(n)
    w[0] = 0.0
    w *= np.sqrt(1.0 - held) / np.linalg.norm(w)
    w[0] = np.sqrt(held)
    others = w[:, None]
    counting = CountingNormals(np.random.PCG64(18))
    with deadline(10.0):
        for _ in range(20):
            y = kernels.bingham_spectral(-lam_hat, counting, others)
            assert abs(y @ y - 1.0) <= 1e-12 and abs(y @ w) <= 1e-14
    assert counting.calls / 20 < 2.0


@pytest.mark.parametrize("spacing", ["random", "even"])
def test_complement_floor_bounds_the_restricted_minimum(spacing):
    # delta = smallest eigenvalue of diag(lam_hat) compressed to the
    # complement of `others`; the shift t must be 0 when delta <= b/4 and
    # within b/8 below delta otherwise. Evenly spaced spectra put grid
    # points of the bisection on entries of lam_hat unless they are offset.
    rng = np.random.default_rng(16)
    shifted = 0
    for _ in range(200):
        n = int(rng.integers(3, 40))
        k = int(rng.integers(1, min(4, n - 1)))
        if spacing == "even":
            lam = np.arange(n) * 10.0 ** rng.uniform(-1.0, 2.5)
        else:
            lam = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-1.0, 3.0)
        lam_hat = lam.max() - lam
        others = _blocking_others(lam, k, rng, 10.0 ** rng.uniform(-3.0, 0.0))
        proj = np.eye(n) - others @ others.T
        delta = np.linalg.eigvalsh(
            proj @ np.diag(lam_hat) @ proj + (lam_hat.max() + 1.0) * others @ others.T)[0]
        b = kernels._acg_envelope_parameter(lam_hat)
        t = kernels._complement_floor(lam_hat, others, b)
        slack = 1e-9 * (1.0 + lam_hat.max())
        if t == 0.0:
            assert delta <= 0.25 * b + slack
        else:
            shifted += 1
            assert t - slack <= delta <= t + 0.125 * b + slack
    assert shifted >= 50
