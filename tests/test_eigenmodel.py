import numpy as np
import pytest

from stiefel_mcmc import ConstraintError, DimensionError, InputError
from stiefel_mcmc import eigenmodel as em
from stiefel_mcmc import csvio, kernels
from stiefel_mcmc.frames import frame_defect, random_uniform_frame

from oracles import (
    HALF_NORMAL_MEAN,
    eigen_gibbs_direct,
    lambda_moments_quadratic_forms,
    theta_moments_triangle,
    zfill_probit_per_call,
)


def small_net(seed=0, n=12):
    rng = np.random.default_rng(seed)
    ustar = random_uniform_frame(n, 2, rng)
    return em.generate_network(-0.3, np.array([6.0, 3.0]), ustar, rng), rng


class TestNetworkType:
    def test_rejects_asymmetric(self):
        codes = np.zeros((3, 3), dtype=np.int8)
        codes[0, 1] = 1  # but codes[1, 0] stays 0
        with pytest.raises(ConstraintError, match=r"\(1,2\)"):
            em.SymmetricBinaryNetwork(codes)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError, match="adjacency must be a square matrix"):
            em.SymmetricBinaryNetwork(np.zeros((2, 3), dtype=np.int8))

    def test_rejects_bad_entries(self):
        with pytest.raises(InputError):
            em.SymmetricBinaryNetwork(np.full((2, 2), 2, dtype=np.int8))

    @pytest.mark.parametrize("value", [0.5, np.nan, 1.7, 257])
    def test_rejects_values_before_casting(self, value):
        # a cast to int8 first would turn these into 0, 0, 1 and 1
        codes = np.zeros((3, 3))
        codes[0, 1] = codes[1, 0] = value
        with pytest.raises(InputError, match=r"offending cell \(1,2\)"):
            em.SymmetricBinaryNetwork(codes)

    def test_from_dense_with_nan(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("NA,1,0\n1,NA,NA\n0,NA,NA\n")
        net = csvio.parse_adjacency(path)
        assert net.n == 3
        assert net.codes[0, 1] == 1
        assert net.codes[0, 2] == 0
        assert net.codes[1, 2] == em.MISSING
        assert np.all(np.diag(net.codes) == em.MISSING)

    def test_edge_density(self):
        codes = np.array([[em.MISSING, 1, 0],
                          [1, em.MISSING, 1],
                          [0, 1, em.MISSING]])
        net = em.SymmetricBinaryNetwork(codes)
        assert net.observed_edge_density() == pytest.approx(2.0 / 3.0)


class TestZFullConditional:
    def test_hard_constraints_deep_tail(self):
        # y = 1 with mean -10: every draw must still be strictly positive
        codes = np.full((6, 6), 1, dtype=np.int8)
        net = em.SymmetricBinaryNetwork(codes)
        rng = np.random.default_rng(1)
        mean = np.full((6, 6), -10.0)
        for _ in range(2000):
            z = em.sample_z_full_conditional(net, mean, rng)
            off = z[np.triu_indices(6, 1)]
            assert np.all(off > 0) and np.all(np.isfinite(off))

    def test_symmetry(self):
        net, rng = small_net(2)
        z = em.sample_z_full_conditional(net, np.zeros((net.n, net.n)), rng)
        np.testing.assert_array_equal(z, z.T)

    def test_all_missing_variances(self):
        n = 20
        net = em.SymmetricBinaryNetwork(np.full((n, n), -1, dtype=np.int8))
        rng = np.random.default_rng(3)
        offs, diags = [], []
        for _ in range(5000):
            z = em.sample_z_full_conditional(net, np.zeros((n, n)), rng)
            offs.append(z[np.triu_indices(n, 1)])
            diags.append(np.diag(z))
        offs = np.concatenate(offs)
        diags = np.concatenate(diags)
        assert offs.var() == pytest.approx(1.0, abs=0.02)
        assert diags.var() == pytest.approx(2.0, abs=0.05)

    def test_half_normal_mean(self):
        # y = 0 with zero mean: E[z] = -sqrt(2/pi)
        n = 16
        net = em.SymmetricBinaryNetwork(np.zeros((n, n), dtype=np.int8))
        rng = np.random.default_rng(4)
        vals = []
        for _ in range(2000):
            z = em.sample_z_full_conditional(net, np.zeros((n, n)), rng)
            vals.append(z[np.triu_indices(n, 1)])
        assert np.concatenate(vals).mean() == pytest.approx(-HALF_NORMAL_MEAN,
                                                            abs=0.01)

    def test_asymmetric_mean_rejected(self):
        net, rng = small_net(5)
        mean = np.zeros((net.n, net.n))
        mean[0, 1] = 1.0
        with pytest.raises(ConstraintError):
            em.sample_z_full_conditional(net, mean, rng)

    @pytest.mark.parametrize("size", [11, 13])
    def test_mean_of_the_wrong_size_rejected(self, size):
        net, rng = small_net(5)
        with pytest.raises(DimensionError,
                           match=rf"mean is \({size}, {size}\), expected \(12, 12\)"):
            em.sample_z_full_conditional(net, np.zeros((size, size)), rng)


@pytest.mark.parametrize("code, value", [(1, 0.0), (1, -0.5), (0, 0.0), (0, 0.5)],
                         ids=["edge-zero", "edge-negative", "non-edge-zero",
                              "non-edge-positive"])
def test_sign_violation_names_its_cell(code, value):
    # every other dyad is missing, so the one observed cell decides
    codes = np.full((4, 4), -1, dtype=np.int8)
    codes[1, 2] = codes[2, 1] = code
    z = np.zeros((4, 4))
    z[1, 2] = z[2, 1] = value
    with pytest.raises(ConstraintError,
                       match=rf"z\[2,3\] = .* violates observed y = {code}$"):
        em.check_sign_constraints(em.SymmetricBinaryNetwork(codes), z)


def fixed_state(n=10, r=2, seed=6, theta=0.4):
    rng = np.random.default_rng(seed)
    u = random_uniform_frame(n, r, rng)
    z = rng.standard_normal((n, n))
    z = 0.5 * (z + z.T)
    return em.EigenmodelState(Z=z, U=u, lam=np.array([1.5, -0.5]), theta=theta), rng


def random_state(n, r, rng):
    z = rng.normal(0.3, 2.0, (n, n))
    return em.EigenmodelState(Z=z + z.T, U=random_uniform_frame(n, r, rng),
                              lam=rng.normal(0.0, 5.0, r),
                              theta=float(rng.normal()))


@pytest.mark.parametrize("n,r", [(2, 1), (5, 2), (12, 3), (50, 2)])
def test_moments_match_the_entrywise_sums(n, r):
    rng = np.random.default_rng(70 + n)
    hyper = em.EigenHyperParams(t2_lambda=7.0, t2_theta=3.0, rank=r)
    for _ in range(20):
        state = random_state(n, r, rng)
        np.testing.assert_allclose(em.theta_conditional_moments(state, hyper),
                                   theta_moments_triangle(state, hyper), rtol=1e-12)
        mean, var = em.lambda_conditional_moments(state, hyper)
        ref_mean, ref_var = lambda_moments_quadratic_forms(state, hyper)
        np.testing.assert_allclose(mean, ref_mean, rtol=1e-12)
        assert var == ref_var


def test_z_fill_draws_as_the_per_call_fill():
    # the network's codes taken once, or taken again on the call, give
    # the draws of the fill that reads the code matrix on every call
    net, rng = small_net(71, n=9)
    codes = net.codes.copy()
    codes[0, 4] = codes[4, 0] = em.MISSING
    net = em.SymmetricBinaryNetwork(codes)
    mean = rng.normal(0.0, 3.0, (9, 9))
    mean = mean + mean.T
    ref = zfill_probit_per_call(mean, net.codes, np.random.default_rng(72))
    for fill in (lambda g: em.sample_z_full_conditional(net, mean, g),
                 lambda g: kernels.zfill_probit(
                     mean, kernels.ProbitCodes(net.codes), g)):
        assert fill(np.random.default_rng(72)).tobytes() == ref.tobytes()


class TestThetaUpdate:
    def test_variance_formula_n50(self):
        rng = np.random.default_rng(7)
        u = random_uniform_frame(50, 2, rng)
        z = np.zeros((50, 50))
        state = em.EigenmodelState(Z=z, U=u, lam=np.zeros(2), theta=0.0)
        hyper = em.EigenHyperParams(t2_lambda=50.0, t2_theta=100.0, rank=2)
        _, var = em.theta_conditional_moments(state, hyper)
        assert var == pytest.approx(1.0 / (0.01 + 1250.0), rel=1e-12)

    def test_flat_prior_limit_recovers_mean(self):
        state, _ = fixed_state()
        n = state.U.rows
        c = 0.8
        z = np.full((n, n), c) + state.factor_matrix()
        state = em.EigenmodelState(Z=0.5 * (z + z.T), U=state.U,
                                   lam=state.lam, theta=0.0)
        hyper = em.EigenHyperParams(t2_lambda=1.0, t2_theta=1e8, rank=2)
        mean, _ = em.theta_conditional_moments(state, hyper)
        assert mean == pytest.approx(c, rel=1e-5)

    def test_monte_carlo_moments(self):
        state, rng = fixed_state(seed=8)
        hyper = em.EigenHyperParams(t2_lambda=5.0, t2_theta=3.0, rank=2)
        mean, var = em.theta_conditional_moments(state, hyper)
        draws = np.array([em.update_theta(state, hyper, rng).theta
                          for _ in range(100_000)])
        assert abs(draws.mean() - mean) < 3 * np.sqrt(var / draws.size)
        assert draws.var() == pytest.approx(var, rel=0.05)


class TestLambdaUpdate:
    def test_variance_formula(self):
        hyper = em.EigenHyperParams(t2_lambda=50.0, t2_theta=100.0, rank=2)
        state, _ = fixed_state()
        _, var = em.lambda_conditional_moments(state, hyper)
        assert var == pytest.approx(100.0 / 52.0, rel=1e-12)

    def test_flat_prior_limit(self):
        state, _ = fixed_state(seed=9)
        hyper = em.EigenHyperParams(t2_lambda=1e8, t2_theta=1.0, rank=2)
        mean, var = em.lambda_conditional_moments(state, hyper)
        u = state.U.entries
        resid = state.Z - state.theta
        quad = np.einsum("ir,ij,jr->r", u, resid, u)
        assert var == pytest.approx(2.0, rel=1e-6)
        np.testing.assert_allclose(mean, quad, rtol=1e-6)

    def test_zero_residual_centers_at_zero(self):
        state, _ = fixed_state(seed=10, theta=0.0)
        state = em.EigenmodelState(Z=np.zeros((10, 10)), U=state.U,
                                   lam=state.lam, theta=0.0)
        hyper = em.EigenHyperParams(t2_lambda=4.0, t2_theta=1.0, rank=2)
        mean, _ = em.lambda_conditional_moments(state, hyper)
        np.testing.assert_array_equal(mean, np.zeros(2))

    def test_monte_carlo_moments(self):
        state, rng = fixed_state(seed=11)
        hyper = em.EigenHyperParams(t2_lambda=7.0, t2_theta=1.0, rank=2)
        mean, var = em.lambda_conditional_moments(state, hyper)
        draws = np.array([em.update_lambda(state, hyper, rng).lam
                          for _ in range(100_000)])
        se = np.sqrt(var / draws.shape[0])
        np.testing.assert_array_less(np.abs(draws.mean(axis=0) - mean), 3 * se)


class TestUUpdate:
    def test_zero_lambda_resamples_uniformly(self):
        state, rng = fixed_state(seed=13)
        state = em.EigenmodelState(Z=state.Z, U=state.U,
                                   lam=np.zeros(2), theta=0.0)
        new = em.update_u(state, rng)
        assert frame_defect(new.U.entries) <= 1e-10
        assert not np.allclose(new.U.entries, state.U.entries)


class TestRun:
    def test_saved_count(self):
        net, rng = small_net(14)
        hyper = em.EigenHyperParams(t2_lambda=float(net.n), t2_theta=100.0,
                                    rank=2)
        res = em.run_eigenmodel_gibbs(net, hyper, iters=50, burn=5, thin=5,
                                      rng=rng)
        assert res.saved_count == 9  # s in {10, 15, ..., 50}
        assert res.trace[:, :-1].shape == (9, 2)
        assert res.trace[:, -1].shape == (9,)

    def test_saved_iterations(self):
        net, rng = small_net(14)
        hyper = em.EigenHyperParams(t2_lambda=float(net.n), t2_theta=100.0,
                                    rank=2)
        res = em.run_eigenmodel_gibbs(net, hyper, iters=23, burn=6, thin=4,
                                      rng=rng)
        np.testing.assert_array_equal(res.saved_iters, [8, 12, 16, 20])
        assert res.saved_count == 4

    @pytest.mark.parametrize("schedule", [(105, 100, 10), (9, 0, 10)])
    def test_schedule_that_saves_no_draw_rejected(self, schedule):
        net, rng = small_net(14)
        hyper = em.EigenHyperParams(t2_lambda=float(net.n), t2_theta=100.0,
                                    rank=2)
        iters, burn, thin = schedule
        with pytest.raises(InputError, match="saves no draw"):
            em.run_eigenmodel_gibbs(net, hyper, iters=iters, burn=burn,
                                    thin=thin, rng=rng)

    def test_matches_direct_oracle(self):
        # 40 saved draws at R = 2: one full block of 32 draws and one of 8
        net, _ = small_net(20)
        hyper = em.EigenHyperParams(t2_lambda=float(net.n), t2_theta=100.0,
                                    rank=2)
        res = em.run_eigenmodel_gibbs(net, hyper, iters=90, burn=10, thin=2,
                                      rng=np.random.default_rng(21))
        lam, theta, m_bar = eigen_gibbs_direct(net, hyper, 90, 10, 2,
                                               np.random.default_rng(21))
        assert res.saved_count == 40
        np.testing.assert_array_equal(res.trace[:, :-1], lam)
        np.testing.assert_array_equal(res.trace[:, -1], theta)
        np.testing.assert_allclose(res.mean, m_bar, rtol=1e-12,
                                   atol=1e-12 * np.abs(m_bar).max())

    def test_lambda_trace_sorted_ascending(self):
        net, rng = small_net(15)
        hyper = em.EigenHyperParams(t2_lambda=float(net.n), t2_theta=100.0,
                                    rank=2)
        res = em.run_eigenmodel_gibbs(net, hyper, iters=60, burn=0, thin=3,
                                      rng=rng)
        assert np.all(np.diff(res.trace[:, :-1], axis=1) >= 0)

    def test_all_missing_network_runs(self):
        n = 10
        net = em.SymmetricBinaryNetwork(np.full((n, n), -1, dtype=np.int8))
        rng = np.random.default_rng(16)
        hyper = em.EigenHyperParams(t2_lambda=float(n), t2_theta=100.0, rank=2)
        res = em.run_eigenmodel_gibbs(net, hyper, iters=80, burn=10, thin=5,
                                      rng=rng)
        assert np.all(np.isfinite(res.trace[:, -1]))
        assert np.all(np.isfinite(res.mean))

    def test_all_missing_network_recovers_prior(self):
        # with no observed dyad the posterior is the prior: theta and lambda
        # ~ N(0, 1). The chain reaches it only if every update targets one
        # joint law for Z; a theta update that drops the diagonal of Z
        # gives E[lambda^2] near 1.06
        net = em.SymmetricBinaryNetwork(np.full((3, 3), -1, dtype=np.int8))
        hyper = em.EigenHyperParams(t2_lambda=1.0, t2_theta=1.0, rank=1)
        res = em.run_eigenmodel_gibbs(net, hyper, iters=50_000, burn=0, thin=1,
                                      rng=np.random.default_rng(50))
        lam = res.trace[:, 0]
        draws = np.column_stack([lam ** 2, res.trace[:, -1] ** 2,
                                 lam, res.trace[:, -1]])
        batch_means = draws.reshape(50, -1, 4).mean(axis=1)
        se = batch_means.std(axis=0, ddof=1) / np.sqrt(50)
        z = (draws.mean(axis=0) - np.array([1.0, 1.0, 0.0, 0.0])) / se
        assert np.all(np.abs(z) < 4.0), z

    def test_constraint_checking_mode(self, monkeypatch):
        # the chain is checked from outside, through the module global
        # that the runner calls for each iteration
        checked = [0]
        iteration = em.gibbs_iteration

        def checked_iteration(state, y, *args):
            state = iteration(state, y, *args)
            em.check_sign_constraints(y, state.Z)
            checked[0] += 1
            return state

        monkeypatch.setattr(em, "gibbs_iteration", checked_iteration)
        net, rng = small_net(17)
        hyper = em.EigenHyperParams(t2_lambda=float(net.n), t2_theta=100.0,
                                    rank=2)
        res = em.run_eigenmodel_gibbs(net, hyper, iters=60, burn=5, thin=5,
                                      rng=rng)
        assert checked[0] == 60
        assert res.saved_count == 11

    def test_invalid_schedules_rejected(self):
        net, rng = small_net(18)
        hyper = em.EigenHyperParams(t2_lambda=1.0, t2_theta=1.0, rank=2)
        with pytest.raises(InputError):
            em.run_eigenmodel_gibbs(net, hyper, iters=10, burn=10, thin=1,
                                    rng=rng)

    def test_zero_rank_rejected(self):
        with pytest.raises(InputError, match="rank must be a positive integer"):
            em.EigenHyperParams(t2_lambda=1.0, t2_theta=1.0, rank=0)

    def test_detectable_signal_recovery_and_homophily(self):
        # strong positive-definite factor structure: the posterior must put
        # both sorted lambdas above zero (homophily) and the latent space
        # must land near the generating one
        rng = np.random.default_rng(19)
        n = 50
        ustar = random_uniform_frame(n, 2, rng)
        net = em.generate_network(0.0, np.array([50.0, 35.0]), ustar, rng)
        hyper = em.EigenHyperParams(t2_lambda=float(n), t2_theta=100.0, rank=2)
        res = em.run_eigenmodel_gibbs(net, hyper, iters=6000, burn=100,
                                      thin=10, rng=rng)
        assert np.mean((res.trace[:, :-1] > 0).all(axis=1)) > 0.9
        assert abs(res.trace[:, -1].mean()) < 0.3
        pos, _ = em.latent_positions(res.mean, 2)
        sv = np.linalg.svd(pos.T @ ustar.entries, compute_uv=False)
        angles = np.degrees(np.arccos(np.clip(sv, -1.0, 1.0)))
        assert np.all(angles < 35.0)


class TestLatentPositions:
    def test_diagonal_case(self):
        m = np.diag([3.0, 1.0, 0.0, 0.0])
        pos, vals = em.latent_positions(m, 2)
        np.testing.assert_allclose(vals, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(pos[:2, :2]), np.eye(2), atol=1e-12)

    def test_exact_rank2_recovery(self):
        rng = np.random.default_rng(20)
        u = random_uniform_frame(8, 2, rng)
        m = (u.entries * [4.0, -2.0]) @ u.entries.T
        pos, vals = em.latent_positions(m, 2)
        np.testing.assert_allclose(sorted(np.abs(vals))[::-1], [4.0, 2.0],
                                   atol=1e-10)
        sv = np.linalg.svd(pos.T @ u.entries, compute_uv=False)
        assert np.all(np.degrees(np.arccos(np.clip(sv, -1, 1))) < 1e-6)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(21)
        u = random_uniform_frame(9, 2, rng)
        m = (u.entries * [5.0, 2.0]) @ u.entries.T
        pos, _ = em.latent_positions(m, 2)
        for k in range(2):
            col = pos[:, k]
            nz = np.nonzero(col)[0]
            assert col[nz[0]] >= 0

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(22)
        u = random_uniform_frame(7, 2, rng)
        m = (u.entries * [5.0, 2.0]) @ u.entries.T
        perm = rng.permutation(7)
        pos_a, vals_a = em.latent_positions(m, 2)
        pos_b, vals_b = em.latent_positions(m[np.ix_(perm, perm)], 2)
        np.testing.assert_allclose(vals_a, vals_b, atol=1e-10)
        # same positions up to the per-column sign fixed by the convention
        for k in range(2):
            col_a, col_b = pos_a[perm, k], pos_b[:, k]
            agree = np.allclose(col_a, col_b, atol=1e-10)
            flipped = np.allclose(col_a, -col_b, atol=1e-10)
            assert agree or flipped

    def test_asymmetric_rejected(self):
        with pytest.raises(ConstraintError):
            em.latent_positions(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)

    @pytest.mark.parametrize("rank", [0, 5])
    def test_rank_outside_one_to_n_rejected(self, rank):
        with pytest.raises(DimensionError, match=f"got rank={rank}"):
            em.latent_positions(np.eye(4), rank)


class TestGenerator:
    def test_network_shape_and_symmetry(self):
        rng = np.random.default_rng(23)
        u = random_uniform_frame(15, 2, rng)
        net = em.generate_network(-0.5, np.array([4.0, 2.0]), u, rng)
        assert net.n == 15
        np.testing.assert_array_equal(net.codes, net.codes.T)
        assert np.all(np.diag(net.codes) == em.MISSING)

    def test_reproducible(self):
        u = random_uniform_frame(10, 2, np.random.default_rng(24))
        a = em.generate_network(0.0, np.array([3.0, 1.0]), u,
                                np.random.default_rng(7))
        b = em.generate_network(0.0, np.array([3.0, 1.0]), u,
                                np.random.default_rng(7))
        np.testing.assert_array_equal(a.codes, b.codes)

    def test_lambda_dimension_checked(self):
        u = random_uniform_frame(6, 2, np.random.default_rng(25))
        with pytest.raises(DimensionError):
            em.generate_network(0.0, np.array([1.0]), u,
                                np.random.default_rng(0))


@pytest.mark.parametrize("rank", [1, 2])
def test_geweke_successive_conditional_keeps_prior(rank):
    # Geweke (2004): alternate y ~ p(y | theta, lambda, U), with three
    # dyads held out as missing, and one Gibbs iteration (Z, theta, lambda,
    # U) given y. The joint law of (Z, theta, lambda, U) is the stationary
    # law of this chain, so the means of theta, theta^2, n u_11^2, lambda_r,
    # lambda_r^2 and lambda_r u_r'(Z - theta)u_r must match 0, t2_theta, 1,
    # 0, t2_lambda and t2_lambda within batch-means error (Z - theta =
    # U Lambda U' + noise independent of lambda). A flipped sign in the Z
    # fill, a theta update without Z's diagonal, or a wrong sign in
    # lambda's quadratic forms each fail it.
    n = 5
    hyper = em.EigenHyperParams(t2_lambda=4.0, t2_theta=1.0, rank=rank)
    rng = np.random.default_rng(60 + rank)
    state = em.EigenmodelState(
        Z=np.zeros((n, n)), U=random_uniform_frame(n, rank, rng),
        lam=rng.normal(0.0, np.sqrt(hyper.t2_lambda), rank),
        theta=float(rng.normal(0.0, np.sqrt(hyper.t2_theta))))
    held = np.zeros((n, n), dtype=bool)
    held[[0, 1, 2], [3, 4, 4]] = True
    held |= held.T
    iters, batches = 16_000, 50
    out = np.empty((iters, 3 + 3 * rank))
    for it in range(iters):
        codes = em.generate_network(state.theta, state.lam, state.U, rng).codes.copy()
        codes[held] = em.MISSING
        state = em.gibbs_iteration(state, em.SymmetricBinaryNetwork(codes), hyper, rng)
        u = state.U.entries
        quad = (u * ((state.Z - state.theta) @ u)).sum(axis=0)
        out[it, :3] = state.theta, state.theta ** 2, n * u[0, 0] ** 2
        out[it, 3:] = np.concatenate([state.lam, state.lam ** 2, state.lam * quad])
    prior = np.array([0.0, hyper.t2_theta, 1.0]
                     + [0.0] * rank + [hyper.t2_lambda] * (2 * rank))
    batch_means = out.reshape(batches, -1, out.shape[1]).mean(axis=1)
    se = batch_means.std(axis=0, ddof=1) / np.sqrt(batches)
    z = (out.mean(axis=0) - prior) / se
    assert np.all(np.abs(z) < 4.0), z
