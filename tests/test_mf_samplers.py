import hashlib
import logging
import warnings

import numpy as np
import pytest
from scipy import stats

from stiefel_mcmc import (
    DimensionError,
    InputError,
    kernels,
    random_uniform_frame,
    sample_mf_matrix_gibbs,
    sample_mf_vector,
    samplers,
)
from stiefel_mcmc.frames import frame_defect
from stiefel_mcmc.kernels import DrawCounts

from oracles import VMF_M3_MEAN, mf_matrix_gibbs_qr, vmf_mean_resultant


def test_oracle_self_check():
    # frozen constants come from this quadrature (and, for m=3, from the
    # closed form coth(k) - 1/k)
    for kappa, frozen in VMF_M3_MEAN.items():
        assert vmf_mean_resultant(kappa, 3) == pytest.approx(frozen, abs=1e-9)
        closed = 1.0 / np.tanh(kappa) - 1.0 / kappa
        assert closed == pytest.approx(frozen, abs=1e-9)


class TestVectorSampler:
    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for m in (1, 2, 3, 7):
            c = rng.standard_normal(m) * 3
            u = sample_mf_vector(c, rng)
            assert abs(u @ u - 1.0) <= 1e-12

    def test_zero_concentration_uniform(self):
        rng = np.random.default_rng(1)
        draws = np.array([sample_mf_vector(np.zeros(3), rng)
                          for _ in range(100_000)])
        assert np.all(np.abs(draws.mean(axis=0)) <= 0.02)

    def test_mean_resultant_kappa2(self):
        rng = np.random.default_rng(2)
        c = np.array([0.0, 0.0, 2.0])
        u3 = np.array([sample_mf_vector(c, rng)[2] for _ in range(100_000)])
        assert u3.mean() == pytest.approx(VMF_M3_MEAN[2.0], abs=0.01)

    def test_high_concentration(self):
        rng = np.random.default_rng(3)
        c = np.array([0.0, 0.0, 50.0])
        u3 = np.array([sample_mf_vector(c, rng)[2] for _ in range(20_000)])
        assert u3.mean() >= 0.95

    def test_m1_two_point_law(self):
        rng = np.random.default_rng(4)
        draws = np.array([sample_mf_vector(np.array([1.0]), rng)[0]
                          for _ in range(20_000)])
        p_plus = 1.0 / (1.0 + np.exp(-2.0))
        assert np.mean(draws == 1.0) == pytest.approx(p_plus, abs=0.01)

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            sample_mf_vector(np.array([np.nan, 0.0]), np.random.default_rng(0))

    @pytest.mark.parametrize("c", [np.zeros(0), np.ones((2, 2))],
                             ids=["empty", "matrix"])
    def test_bad_shape_rejected(self, c):
        with pytest.raises(DimensionError, match="c must be a non-empty vector"):
            sample_mf_vector(c, np.random.default_rng(0))

    def test_m1_far_negative_draws_minus_one_without_warning(self):
        # exp(-2 c'n) overflows to inf, so p_plus is exactly 0
        rng = np.random.default_rng(5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = [sample_mf_vector(np.array([-400.0]), rng) for _ in range(5)]
        assert all(u.tolist() == [-1.0] for u in draws)


class TestMatrixKernel:
    @pytest.mark.parametrize("shape, bad, error, match", [
        ((4, 2), None, DimensionError, r"C has shape \(4, 2\)"),
        ((5, 3), None, DimensionError, r"C has shape \(5, 3\)"),
        ((5, 2), np.nan, InputError, "C has non-finite entries"),
        ((5, 2), np.inf, InputError, "C has non-finite entries"),
    ], ids=["rows", "cols", "nan", "inf"])
    def test_bad_parameter_rejected(self, shape, bad, error, match):
        rng = np.random.default_rng(9)
        current = random_uniform_frame(5, 2, rng)
        c = np.ones(shape)
        if bad is not None:
            c[1, 1] = bad
        with pytest.raises(error, match=match):
            sample_mf_matrix_gibbs(c, current, rng)

    def test_output_orthonormal(self):
        rng = np.random.default_rng(5)
        current = random_uniform_frame(6, 3, rng)
        c = rng.standard_normal((6, 3)) * 5
        for _ in range(50):
            current = sample_mf_matrix_gibbs(c, current, rng)
            assert frame_defect(current.entries) <= 1e-10

    def test_zero_parameter_matches_uniform(self):
        # stationary law with C = 0 is the uniform; compare the (0,0) entry
        # of chain states against independent uniform draws
        rng = np.random.default_rng(6)
        state = random_uniform_frame(4, 2, rng)
        c = np.zeros((4, 2))
        chain_vals = []
        for _ in range(1000):
            state = sample_mf_matrix_gibbs(c, state, rng)
            chain_vals.append(state.entries[0, 0])
        iid_vals = [random_uniform_frame(4, 2, rng).entries[0, 0]
                    for _ in range(1000)]
        assert stats.ks_2samp(chain_vals, iid_vals).pvalue > 0.01

    def test_single_column_matches_vector_sampler(self):
        # R = 1: the sweep is an exact vector MF draw
        rng = np.random.default_rng(7)
        c = np.array([[0.0], [0.0], [2.0]])
        state = random_uniform_frame(3, 1, rng)
        vals = []
        for _ in range(100_000):
            state = sample_mf_matrix_gibbs(c, state, rng)
            vals.append(state.entries[2, 0])
        assert np.mean(vals) == pytest.approx(VMF_M3_MEAN[2.0], abs=0.02)

    def test_reproducible(self):
        c = np.arange(8.0).reshape(4, 2)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            state = random_uniform_frame(4, 2, rng)
            state = sample_mf_matrix_gibbs(c, state, rng)
            runs.append(state.entries)
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_wrapper_concentrates_near_polar_part(self):
        # strong C: 25 sweeps from a uniform start concentrate near the
        # mode (the polar part of C)
        rng = np.random.default_rng(9)
        base = random_uniform_frame(6, 2, rng).entries
        c = 500.0 * base
        frame = random_uniform_frame(6, 2, rng)
        for _ in range(25):
            frame = sample_mf_matrix_gibbs(c, frame, rng)
        overlap = np.abs(np.linalg.svd(frame.entries.T @ base,
                                       compute_uv=False))
        assert np.all(overlap > 0.98)

    def test_sweep_law_matches_complete_qr_reference(self):
        # one sweep from a fixed frame, basis-free against the complete-QR
        # construction; Wood's t drawn on the sphere of R^m instead of the
        # complement's R^{m-r+1} fails both comparisons by far
        rng = np.random.default_rng(21)
        start = random_uniform_frame(4, 2, rng)
        c = 2.0 * rng.standard_normal((4, 2))
        n = 20_000
        new = np.array([sample_mf_matrix_gibbs(c, start, rng).entries
                        for _ in range(n)])
        ref = np.array([mf_matrix_gibbs_qr(c, start.entries, rng)
                        for _ in range(n)])
        for j in range(2):
            p = stats.ks_2samp(new[:, :, j] @ c[:, j],
                               ref[:, :, j] @ c[:, j]).pvalue
            assert p > 1e-3, (j, p)

    def test_square_frame_only_flips_signs(self):
        # R = m: column j is +-n_j, n_j the unit normal to the other
        # columns, with P(c_j'u_j > 0) = 1/(1 + exp(-2|c_j'n_j|)); a zero
        # column of C gives P = 1/2
        rng = np.random.default_rng(22)
        start = random_uniform_frame(3, 3, rng)
        c = rng.standard_normal((3, 3))
        c[:, 2] = 0.0
        p_plus = 1.0 / (1.0 + np.exp(-2.0 * np.abs(
            np.sum(c * start.entries, axis=0))))
        p_plus[2] = 0.5
        state = start
        n = 4000
        plus = np.zeros(3)
        for _ in range(n):
            state = sample_mf_matrix_gibbs(c, state, rng)
            assert frame_defect(state.entries) <= 1e-12
            cos = np.sum(state.entries * start.entries, axis=0)
            np.testing.assert_allclose(np.abs(cos), 1.0, atol=1e-12)
            aligned = np.sum(c * state.entries, axis=0) > 0
            aligned[2] = cos[2] > 0
            plus += aligned
        se = np.sqrt(p_plus * (1.0 - p_plus) / n)
        assert np.all(np.abs(plus / n - p_plus) < 4.0 * se), (plus / n, p_plus)


def _sweep_to(entries, counts=None):
    """samplers._sweep from a frame of entries' shape, with a stub draw
    that hands back entries' columns: the sweep's result is `entries`."""
    start = random_uniform_frame(*entries.shape, np.random.default_rng(14))
    return samplers._sweep(start, lambda j, u_j, others: entries[:, j], counts)


def test_frame_repair_is_logged(caplog):
    u = random_uniform_frame(7, 3, np.random.default_rng(12)).entries
    drifted = u + 1e-9 * np.random.default_rng(13).standard_normal(u.shape)
    with caplog.at_level(logging.WARNING, logger="stiefel_mcmc"):
        repaired = _sweep_to(drifted)
    assert frame_defect(repaired.entries) <= 1e-14
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert record.name == "stiefel_mcmc"
    assert f"{frame_defect(drifted):.3e}" in record.getMessage()
    assert "7x3" in record.getMessage()


def test_frame_repair_is_counted(caplog, monkeypatch):
    # the repair goes through samplers.orthonormalize, the name that a
    # span recorder wraps to time repairs
    repairs = []
    orthonormalize = samplers.orthonormalize

    def counted(entries):
        repairs.append(entries.shape)
        return orthonormalize(entries)

    monkeypatch.setattr(samplers, "orthonormalize", counted)
    u = random_uniform_frame(7, 3, np.random.default_rng(12)).entries
    drifted = u + 1e-9 * np.random.default_rng(13).standard_normal(u.shape)
    counts = DrawCounts()
    with caplog.at_level(logging.WARNING, logger="stiefel_mcmc"):
        repaired = _sweep_to(drifted, counts)
    assert counts.frame_repairs == 1
    assert repairs == [(7, 3)]
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert "re-orthonormalized the 7x3 frame" in record.getMessage()
    assert frame_defect(repaired.entries) <= 1e-14


def test_mf_sweep_counts_a_frame_repair(monkeypatch, caplog):
    # columns 1e-9 off unit length put U'U off I by 2e-9 > FRAME_TOL
    mf_vector = kernels.mf_vector
    monkeypatch.setattr(kernels, "mf_vector", lambda c, rng, others:
                        (1.0 + 1e-9) * mf_vector(c, rng, others))
    rng = np.random.default_rng(70)
    counts = DrawCounts()
    with caplog.at_level(logging.WARNING, logger="stiefel_mcmc"):
        frame = sample_mf_matrix_gibbs(rng.standard_normal((7, 3)),
                                       random_uniform_frame(7, 3, rng), rng,
                                       counts)
    assert counts.frame_repairs == 1
    assert frame_defect(frame.entries) <= 1e-14
    [record] = caplog.records
    assert "re-orthonormalized the 7x3 frame" in record.getMessage()


def test_intact_frame_is_not_logged(caplog):
    u = random_uniform_frame(7, 3, np.random.default_rng(12)).entries
    with caplog.at_level(logging.WARNING, logger="stiefel_mcmc"):
        _sweep_to(u)
    assert not caplog.records


# sha256 prefixes of 200 draws per case, rounded to 8 decimals and with
# -0.0 made 0.0, recorded from the sweep that drew a single column with
# no `others` at all: (seed, m, scale of C) -> digest. m = 1 keeps
# sample_mf_vector's fixed normal +1 for the two-point sphere.
MF_ONE_COLUMN_DIGESTS = {
    (1, 1, 1.5): "5a6e501647ca3442",
    (2, 2, 0.0): "6f78e6a516c4b262",
    (3, 3, 2.0): "47d95cf6012c704a",
    (4, 7, 0.5): "cc963dcf4199725e",
    (5, 49, 4.0): "712b7b059f166def",
}

# the same for 200 sample_mf_vector draws on 1-vectors: (seed, c) -> digest
MF_ONE_VECTOR_DIGESTS = {
    (6, -1.5): "8213b397ff819c71",
    (7, -40.0): "bd8c3fc03a2a4f0e",
    (8, 0.0): "9409566d5091dbf9",
}


def _digest(draws):
    return hashlib.sha256((np.round(draws, 8) + 0.0).tobytes()).hexdigest()[:16]


def one_column_digest(case):
    seed, m, scale = case
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((m, 1)) * scale
    state = random_uniform_frame(m, 1, rng)
    draws = []
    for _ in range(200):
        state = sample_mf_matrix_gibbs(c, state, rng)
        draws.append(state.entries[:, 0])
    return _digest(np.array(draws))


def one_vector_digest(case):
    seed, c = case
    rng = np.random.default_rng(seed)
    return _digest(np.array([sample_mf_vector(np.array([c]), rng)
                             for _ in range(200)]))


@pytest.mark.parametrize("case", sorted(MF_ONE_COLUMN_DIGESTS))
def test_one_column_sweeps_draw_as_before(case):
    assert one_column_digest(case) == MF_ONE_COLUMN_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(MF_ONE_VECTOR_DIGESTS))
def test_one_vector_draws_as_before(case):
    assert one_vector_digest(case) == MF_ONE_VECTOR_DIGESTS[case]
