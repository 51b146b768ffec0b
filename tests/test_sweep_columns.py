"""The column sweep's contract: column j is handed its own value and the
other columns as they stand, and the one working buffer that holds the
others draws bit for bit what a fresh gather per column drew."""
import numpy as np
import pytest

from stiefel_mcmc import (
    random_uniform_frame,
    sample_bingham_matrix_gibbs,
    sample_mf_matrix_gibbs,
    samplers,
)

from oracles import sweep_gather

SWEEPS = 50


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_column_j_is_handed_the_other_columns_as_they_stand(r):
    # and its own value before it is redrawn, which is column j of the
    # starting frame; the sweep leaves that frame as it was
    rng = np.random.default_rng(40 + r)
    start = random_uniform_frame(6, r, rng)
    kept = start.entries.copy()
    drawn = random_uniform_frame(6, r, rng).entries
    handed = []

    def draw(j, u_j, others):
        handed.append((u_j.copy(), others.copy()))
        return drawn[:, j]

    out = samplers._sweep(start, draw, None)
    assert np.array_equal(out.entries, drawn)
    assert np.array_equal(start.entries, kept)
    assert len(handed) == r
    for j, (u_j, others) in enumerate(handed):
        assert np.array_equal(u_j, kept[:, j])
        u_now = np.column_stack([drawn[:, :j], kept[:, j:]])
        expected = np.delete(u_now, j, axis=1)
        assert others.shape == expected.shape == (6, r - 1)
        assert np.array_equal(others, expected)


def _mf_sweeps(r, rng):
    c = 3.0 * rng.standard_normal((30, r))
    state = random_uniform_frame(30, r, rng)
    frames = []
    for _ in range(SWEEPS):
        state = sample_mf_matrix_gibbs(c, state, rng)
        frames.append(state.entries)
    return np.array(frames)


def _bingham_sweeps(r, rng):
    g = rng.standard_normal((12, 12))
    a = g + g.T
    b = 2.0 * rng.standard_normal(r)
    state = random_uniform_frame(12, r, rng)
    frames = []
    for _ in range(SWEEPS):
        state = sample_bingham_matrix_gibbs(a, b, state, rng)
        frames.append(state.entries)
    return np.array(frames)


@pytest.mark.parametrize("sweeps, r", [
    (_mf_sweeps, 2), (_mf_sweeps, 3), (_mf_sweeps, 6),
    (_bingham_sweeps, 2), (_bingham_sweeps, 3)],
    ids=["mf-2", "mf-3", "mf-6", "bingham-2", "bingham-3"])
def test_working_buffer_draws_what_the_gather_drew(sweeps, r, monkeypatch):
    # the kernels' BLAS products sum in an order set by the layout of the
    # other columns, so this also pins the buffer's Fortran order
    buffered = sweeps(r, np.random.default_rng(60 + r))
    monkeypatch.setattr(samplers, "_sweep", sweep_gather)
    gathered = sweeps(r, np.random.default_rng(60 + r))
    assert buffered.tobytes() == gathered.tobytes()

