import numpy as np
import pytest
from scipy import stats

from stiefel_mcmc import (
    ConstraintError,
    DimensionError,
    OrthonormalFrame,
    random_uniform_frame,
)
from stiefel_mcmc.frames import frame_defect


class TestOrthonormalFrame:
    def test_defect_enforced_at_construction(self):
        with pytest.raises(ConstraintError):
            OrthonormalFrame(np.array([[1.0, 0.0], [0.0, 0.5]]))

    def test_dimension_checks(self):
        with pytest.raises(DimensionError):
            OrthonormalFrame(np.eye(3)[:2])  # 2x3: more cols than rows
        with pytest.raises(DimensionError):
            random_uniform_frame(3, 4, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            random_uniform_frame(0, 0, np.random.default_rng(0))
        with pytest.raises(DimensionError, match="frame must be 2-d, got ndim=1"):
            OrthonormalFrame(np.ones(3))
        with pytest.raises(DimensionError, match="must be positive, got 3x0"):
            OrthonormalFrame(np.zeros((3, 0)))

    def test_uniform_frame_orthonormal(self):
        rng = np.random.default_rng(1)
        f = random_uniform_frame(5, 2, rng)
        assert frame_defect(f.entries) <= 1e-10

    def test_one_by_one_is_fair_sign(self):
        rng = np.random.default_rng(2)
        draws = np.array([random_uniform_frame(1, 1, rng).entries[0, 0]
                          for _ in range(10_000)])
        assert set(np.unique(draws)) == {-1.0, 1.0}
        assert abs(np.mean(draws == 1.0) - 0.5) <= 0.02

    def test_sphere_moments_m3(self):
        # rotation invariance forces zero mean and E[u_i^2] = 1/3
        rng = np.random.default_rng(3)
        u = np.array([random_uniform_frame(3, 1, rng).entries[:, 0]
                      for _ in range(100_000)])
        assert np.linalg.norm(u.mean(axis=0)) <= 0.02
        np.testing.assert_allclose((u**2).mean(axis=0), 1.0 / 3.0, atol=0.02)

    def test_rotation_invariance_ks(self):
        rng = np.random.default_rng(4)
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        a = np.array([random_uniform_frame(4, 2, rng).entries[0, 0]
                      for _ in range(10_000)])
        b = np.array([(q @ random_uniform_frame(4, 2, rng).entries)[0, 0]
                      for _ in range(10_000)])
        assert stats.ks_2samp(a, b).pvalue > 0.01

