import numpy as np
import pytest

from stiefel_mcmc import DimensionError
from stiefel_mcmc import svd_model as sm
from stiefel_mcmc.frames import OrthonormalFrame, frame_defect, random_uniform_frame

from oracles import svd_gibbs_direct, svd_iteration_direct


def make_state(m=4, n=3, r=2, seed=0, sigma2=1.0, tau2=1.0):
    rng = np.random.default_rng(seed)
    return sm.SvdModelState(U=random_uniform_frame(m, r, rng),
                            V=random_uniform_frame(n, r, rng),
                            d=np.arange(1.0, r + 1.0)[::-1],
                            sigma2=sigma2, tau2=tau2), rng


class TestSimulate:
    def test_shapes_and_rank(self):
        rng = np.random.default_rng(1)
        data, truth = sm.simulate_dataset(60, 40, 4, rng)
        assert data.shape == (60, 40)
        sv = np.linalg.svd(truth.mean_matrix(), compute_uv=False)
        assert np.sum(sv > 1e-8) == 4

    def test_d0_sorted_positive(self):
        rng = np.random.default_rng(2)
        _, truth = sm.simulate_dataset(20, 10, 3, rng)
        assert np.all(truth.d > 0)
        assert np.all(np.diff(truth.d) <= 0)

    def test_noise_variance_one(self):
        rng = np.random.default_rng(3)
        vals = []
        for _ in range(5):
            data, truth = sm.simulate_dataset(60, 40, 4, rng)
            vals.append(np.mean((data - truth.mean_matrix()) ** 2))
        assert np.mean(vals) == pytest.approx(1.0, abs=0.05)

    def test_rank_too_large(self):
        with pytest.raises(DimensionError):
            sm.simulate_dataset(5, 4, 5, np.random.default_rng(0))


class TestMleInit:
    def test_exact_low_rank_data(self):
        rng = np.random.default_rng(4)
        u = random_uniform_frame(8, 2, rng).entries
        v = random_uniform_frame(6, 2, rng).entries
        y = (u * [5.0, 2.0]) @ v.T
        state = sm.mle_init(y, 2)
        assert state.sigma2 <= 1e-10
        np.testing.assert_allclose(np.sort(state.d)[::-1], [5.0, 2.0],
                                   atol=1e-8)

    def test_d_nonincreasing(self):
        rng = np.random.default_rng(5)
        data, _ = sm.simulate_dataset(30, 20, 3, rng)
        state = sm.mle_init(data, 5)
        assert np.all(np.diff(state.d) <= 0)

    @pytest.mark.parametrize("seed", [2, 3, 4, 7, 9])
    def test_mle_overestimates_truth(self, seed):
        # noise inflates the singular values of the low-rank mean; the
        # effect is strongest for the smaller values and of order
        # (m+n)/(2d) for the larger, so seeds where noise fluctuation
        # (+-1) swamps that inflation for a huge d0 are excluded
        rng = np.random.default_rng(seed)
        data, truth = sm.simulate_dataset(60, 40, 4, rng)
        state = sm.mle_init(data, 6)
        assert np.all(state.d[:4] >= truth.d)

    @pytest.mark.parametrize("fit", [sm.mle_init, sm.rank_r_approximation],
                             ids=["mle_init", "rank_r_approximation"])
    @pytest.mark.parametrize("rank", [0, 4])
    def test_rank_outside_one_to_min_rejected(self, fit, rank):
        with pytest.raises(DimensionError, match=f"got rank={rank}"):
            fit(np.ones((5, 3)), rank)

    def test_tau2_is_mean_square_d(self):
        rng = np.random.default_rng(6)
        data, _ = sm.simulate_dataset(20, 15, 2, rng)
        state = sm.mle_init(data, 3)
        assert state.tau2 == pytest.approx(np.mean(state.d**2))


class TestConditionals:
    def test_mf_parameter_exact_hand_case(self):
        state, _ = make_state(m=4, n=3, r=2, seed=7, sigma2=0.5)
        y = np.arange(12.0).reshape(4, 3)
        expected = y @ state.V.entries @ np.diag(state.d) / 0.5
        np.testing.assert_allclose(sm.mf_parameter_for_u(state, y), expected,
                                   atol=1e-14)
        expected_v = y.T @ state.U.entries @ np.diag(state.d) / 0.5
        np.testing.assert_allclose(sm.mf_parameter_for_v(state, y.T @ state.U.entries),
                                   expected_v,
                                   atol=1e-14)

    def test_d_moments_unit_variances(self):
        state, _ = make_state(seed=8, sigma2=1.0, tau2=1.0)
        y = np.arange(12.0).reshape(4, 3)
        mean, var = sm.d_conditional_moments(state, y.T @ state.U.entries)
        quad = np.einsum("ij,ik,kj->j", state.U.entries, y, state.V.entries)
        np.testing.assert_allclose(mean, quad / 2.0, atol=1e-14)
        assert var == pytest.approx(0.5)

    def test_d_moments_flat_prior_limit(self):
        state, _ = make_state(seed=9, sigma2=2.0, tau2=1e8)
        y = np.arange(12.0).reshape(4, 3)
        mean, var = sm.d_conditional_moments(state, y.T @ state.U.entries)
        quad = np.einsum("ij,ik,kj->j", state.U.entries, y, state.V.entries)
        np.testing.assert_allclose(mean, quad, rtol=1e-6)
        assert var == pytest.approx(2.0, rel=1e-6)

    def test_update_d_monte_carlo(self):
        state, rng = make_state(seed=10, sigma2=1.3, tau2=2.1)
        yu = (np.arange(12.0).reshape(4, 3) / 3.0).T @ state.U.entries
        mean, var = sm.d_conditional_moments(state, yu)
        draws = np.array([sm.update_d(state, yu, rng).d for _ in range(100_000)])
        se = np.sqrt(var / draws.shape[0])
        np.testing.assert_array_less(np.abs(draws.mean(axis=0) - mean), 3 * se)
        np.testing.assert_allclose(draws.var(axis=0), var, rtol=0.05)

    def test_update_d_zero_gives_uniform_u_resample(self):
        state, rng = make_state(seed=11)
        state = sm.SvdModelState(U=state.U, V=state.V, d=np.zeros(2),
                                 sigma2=1.0, tau2=1.0)
        y = np.zeros((4, 3))
        np.testing.assert_array_equal(sm.mf_parameter_for_u(state, y),
                                      np.zeros((4, 2)))
        new = sm.update_u(state, y, rng)
        assert frame_defect(new.U.entries) <= 1e-10

    def test_variance_update_gamma_shapes(self):
        # Y = UDV' exactly, nu0 = 2, s20 = 1: 1/sigma2 ~ gamma((2+mn)/2, 1)
        rng = np.random.default_rng(12)
        m, n, r = 6, 5, 2
        u = random_uniform_frame(m, r, rng)
        v = random_uniform_frame(n, r, rng)
        d = np.array([3.0, 1.0])
        state = sm.SvdModelState(U=u, V=v, d=d, sigma2=1.0, tau2=1.0)
        y = state.mean_matrix()
        hyper = sm.SvdHyperParams(nu0=2.0, s20=1.0, eta0=1.0, t20=1.0)
        yu, y_sq = y.T @ u.entries, float(np.vdot(y, y))
        draws = np.array([sm.update_variances(state, y, yu, y_sq, hyper, rng).sigma2
                          for _ in range(100_000)])
        alpha = (2.0 + m * n) / 2.0
        beta = 1.0  # (nu0*s20 + 0)/2
        ig_mean = beta / (alpha - 1.0)
        ig_var = beta**2 / ((alpha - 1.0) ** 2 * (alpha - 2.0))
        se = np.sqrt(ig_var / draws.size)
        assert abs(draws.mean() - ig_mean) < 3 * se
        assert np.all(draws > 0)

    def test_tau2_update_gamma_moments(self):
        rng = np.random.default_rng(13)
        state, _ = make_state(m=5, n=4, r=3, seed=13)
        state = sm.SvdModelState(U=state.U, V=state.V, d=np.array([2.0, 1.0, 0.5]),
                                 sigma2=1.0, tau2=1.0)
        y = np.zeros((5, 4))
        hyper = sm.SvdHyperParams(eta0=3.0, t20=2.0)
        yu, y_sq = y.T @ state.U.entries, float(np.vdot(y, y))
        draws = np.array([sm.update_variances(state, y, yu, y_sq, hyper, rng).tau2
                          for _ in range(100_000)])
        alpha = (3.0 + 3) / 2.0
        beta = (3.0 * 2.0 + np.sum(state.d**2)) / 2.0
        ig_mean = beta / (alpha - 1.0)
        ig_var = beta**2 / ((alpha - 1.0) ** 2 * (alpha - 2.0))
        se = np.sqrt(ig_var / draws.size)
        assert abs(draws.mean() - ig_mean) < 3 * se


class TestRunAndEstimators:
    def test_saved_count_small(self):
        rng = np.random.default_rng(14)
        data, _ = sm.simulate_dataset(12, 9, 2, rng)
        res = sm.run_svd_gibbs(data, 3, sm.SvdHyperParams(), iters=10, thin=5,
                               rng=rng)
        assert res.saved_count == 2
        assert res.trace.shape == (2, 3)

    def test_saved_iterations(self):
        rng = np.random.default_rng(14)
        data, _ = sm.simulate_dataset(12, 9, 2, rng)
        res = sm.run_svd_gibbs(data, 2, sm.SvdHyperParams(), iters=17, thin=4,
                               rng=rng)
        np.testing.assert_array_equal(res.saved_iters, [4, 8, 12, 16])
        assert res.saved_count == 4

    def test_single_iteration_trace(self):
        rng = np.random.default_rng(15)
        data, _ = sm.simulate_dataset(10, 8, 2, rng)
        res = sm.run_svd_gibbs(data, 2, sm.SvdHyperParams(), iters=1, thin=1,
                               rng=rng)
        assert res.saved_count == 1

    def test_trace_rows_sorted_decreasing(self):
        rng = np.random.default_rng(16)
        data, _ = sm.simulate_dataset(15, 10, 2, rng)
        res = sm.run_svd_gibbs(data, 4, sm.SvdHyperParams(), iters=40, thin=2,
                               rng=rng)
        assert np.all(np.diff(res.trace, axis=1) <= 0)
        assert np.all(res.trace >= 0)

    def test_state_stays_valid(self):
        rng = np.random.default_rng(17)
        data, _ = sm.simulate_dataset(12, 10, 3, rng)
        state = sm.mle_init(data, 3)
        hyper = sm.SvdHyperParams()
        y_sq = float(np.vdot(data, data))
        for _ in range(30):
            state = sm.gibbs_iteration(state, data, y_sq, hyper, rng)
            assert frame_defect(state.U.entries) <= 1e-10
            assert frame_defect(state.V.entries) <= 1e-10
            assert state.sigma2 > 0 and state.tau2 > 0

    def test_result_keeps_the_mle_start(self):
        # svd-fit reports the MLE's error from the start, without a second SVD
        rng = np.random.default_rng(18)
        data, _ = sm.simulate_dataset(30, 20, 3, rng)
        res = sm.run_svd_gibbs(data, 4, sm.SvdHyperParams(), iters=5, thin=5,
                               rng=rng)
        mle = sm.rank_r_approximation(data, 4)
        np.testing.assert_allclose(res.start.mean_matrix(), mle, rtol=0.0,
                                   atol=1e-12 * np.abs(mle).max())
        np.testing.assert_array_equal(res.start.d, sm.mle_init(data, 4).d)

    @pytest.mark.parametrize("thin,iters", [(1, 25), (3, 75)])
    def test_matches_direct_oracle(self, thin, iters):
        # 25 saved draws at R = 6: two full blocks of 10 draws and one of 5
        data, _ = sm.simulate_dataset(60, 40, 4, np.random.default_rng(19))
        hyper = sm.SvdHyperParams()
        res = sm.run_svd_gibbs(data, 6, hyper, iters, thin,
                               np.random.default_rng(20))
        d_trace, m_mean = svd_gibbs_direct(data, 6, hyper, iters, thin,
                                           np.random.default_rng(20))
        assert res.saved_count == 25
        np.testing.assert_allclose(res.trace, d_trace, rtol=1e-9)
        np.testing.assert_allclose(res.mean, m_mean, rtol=1e-9,
                                   atol=1e-9 * np.abs(m_mean).max())

    def test_close_fit_sums_the_residual_directly(self):
        # rank-2 mean plus noise 1e-5: |Y|^2 / |Y - UDV'|^2 is about 3e10,
        # where the product form of the residual is off by about 2e-5
        rng = np.random.default_rng(21)
        data, truth = sm.simulate_dataset(60, 40, 2, rng)
        y = truth.mean_matrix() + 1e-5 * (data - truth.mean_matrix())
        y_sq = float(np.vdot(y, y))
        # a weak prior on sigma^2, so that its draw follows the residual
        hyper = sm.SvdHyperParams(s20=1e-12)
        state = oracle = sm.mle_init(y, 2)
        assert y_sq / np.sum((y - state.mean_matrix()) ** 2) > 1e10
        rng, oracle_rng = np.random.default_rng(22), np.random.default_rng(22)
        for _ in range(20):
            state = sm.gibbs_iteration(state, y, y_sq, hyper, rng)
            oracle = svd_iteration_direct(oracle, y, hyper, oracle_rng)
            assert state.sigma2 == pytest.approx(oracle.sigma2, rel=1e-9, abs=0.0)
            np.testing.assert_allclose(state.d, oracle.d, rtol=1e-9)

    def test_rank_r_approximation_diagonal(self):
        approx = sm.rank_r_approximation(np.diag([3.0, 2.0, 1.0]), 2)
        np.testing.assert_allclose(approx, np.diag([3.0, 2.0, 0.0]), atol=1e-10)

    def test_rank_r_approximation_identity_cases(self):
        rng = np.random.default_rng(18)
        mat = rng.standard_normal((6, 4))
        np.testing.assert_allclose(sm.rank_r_approximation(mat, 4), mat,
                                   atol=1e-10)
        low = sm.rank_r_approximation(mat, 2)
        np.testing.assert_allclose(sm.rank_r_approximation(low, 2), low,
                                   atol=1e-10)

    def test_mean_squared_error(self):
        a = np.zeros((2, 2))
        b = np.ones((2, 2))
        assert sm.mean_squared_error(a, b) == 1.0
        with pytest.raises(DimensionError):
            sm.mean_squared_error(a, np.zeros((2, 3)))


@pytest.mark.parametrize("rank", [1, 2])
def test_geweke_successive_conditional_keeps_prior(rank):
    # Geweke (2004): alternate y ~ p(y | U, V, d, sigma^2) with one Gibbs
    # iteration given y. The prior is the stationary law of this chain, so
    # the means of 1/sigma^2, 1/tau^2, m U_11^2, n V_11^2 and d_j^2/tau^2
    # must match 1/s20, 1/t20, 1, 1 and 1 within batch-means error.
    m, n = 4, 3
    hyper = sm.SvdHyperParams(nu0=10.0, s20=0.5, eta0=10.0, t20=2.0)
    rng = np.random.default_rng(40 + rank)
    tau2 = 1.0 / rng.gamma(hyper.eta0 / 2.0, 2.0 / (hyper.eta0 * hyper.t20))
    sigma2 = 1.0 / rng.gamma(hyper.nu0 / 2.0, 2.0 / (hyper.nu0 * hyper.s20))
    state = sm.SvdModelState(U=random_uniform_frame(m, rank, rng),
                             V=random_uniform_frame(n, rank, rng),
                             d=rng.normal(0.0, np.sqrt(tau2), rank),
                             sigma2=sigma2, tau2=tau2)
    iters, batches = 20_000, 50
    out = np.empty((iters, 4 + rank))
    for it in range(iters):
        y = state.mean_matrix() + np.sqrt(state.sigma2) * rng.standard_normal((m, n))
        state = sm.gibbs_iteration(state, y, float(np.vdot(y, y)), hyper, rng)
        out[it, :4] = (1.0 / state.sigma2, 1.0 / state.tau2,
                       m * state.U.entries[0, 0] ** 2, n * state.V.entries[0, 0] ** 2)
        out[it, 4:] = state.d ** 2 / state.tau2
    prior = np.array([1.0 / hyper.s20, 1.0 / hyper.t20, 1.0, 1.0] + [1.0] * rank)
    batch_means = out.reshape(batches, -1, out.shape[1]).mean(axis=1)
    se = batch_means.std(axis=0, ddof=1) / np.sqrt(batches)
    z = (out.mean(axis=0) - prior) / se
    assert np.all(np.abs(z) < 4.0), z
