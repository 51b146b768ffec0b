import numpy as np
import pytest

from stiefel_mcmc import InputError
from stiefel_mcmc.samplers import MEAN_BLOCK_COLUMNS, run_chain


def counter_chain(iters, burn, thin, left=None, right=None):
    """run_chain on an integer counter: the state after iteration it is
    it, and each saved row is [state]. Returns the result and the number
    of steps taken."""
    steps = []

    def step(s):
        steps.append(s)
        return s + 1

    def record(s):
        return (np.array([s]), np.zeros((1, 1)) if left is None else left(s),
                np.zeros((1, 1)) if right is None else right(s))

    return run_chain(0, step, record, iters, burn, thin), len(steps)


def test_saved_iterations_match_the_schedule():
    for iters in range(1, 13):
        for burn in range(iters):
            for thin in range(1, iters + 3):
                expected = [it for it in range(1, iters + 1)
                            if it > burn and it % thin == 0]
                if not expected:
                    with pytest.raises(InputError, match="saves no draw"):
                        counter_chain(iters, burn, thin)
                    continue
                (trace, _, saved), steps = counter_chain(iters, burn, thin)
                assert steps == iters
                assert saved.tolist() == expected
                assert trace[:, 0].tolist() == expected


@pytest.mark.parametrize("rank,iters,burn,thin", [
    (5, 95, 5, 3),    # 30 draws, 12 per block: two full blocks and one of 6
    (2, 80, 0, 1),    # 80 draws, 32 per block: two full blocks and one of 16
    (70, 4, 1, 1)])   # wider than a block: one draw per product
def test_blocked_mean_equals_the_per_draw_mean(rank, iters, burn, thin):
    # integer entries keep every product and sum exact, so the blocked sum
    # must equal the per-draw one bit for bit
    m, n = 4, 3

    def left(s):
        return np.arange(m * rank, dtype=float).reshape(m, rank) % 7 + s

    def right(s):
        return np.arange(n * rank, dtype=float).reshape(n, rank) % 5 - s

    (_, mean, saved), _ = counter_chain(iters, burn, thin, left, right)
    per_draw = sum(left(s) @ right(s).T for s in saved) / len(saved)
    assert len(saved) > max(1, MEAN_BLOCK_COLUMNS // rank)
    np.testing.assert_array_equal(mean, per_draw)


@pytest.mark.parametrize("iters,burn,thin,message", [
    (10, 10, 1, "need iters > burn >= 0 and thin >= 1, got 10/10/1"),
    (10, -1, 1, "need iters > burn >= 0 and thin >= 1, got 10/-1/1"),
    (10, 0, 0, "need iters > burn >= 0 and thin >= 1, got 10/0/0"),
    (3, 0, 5, "the schedule iters=3, burn=0, thin=5 saves no draw: "
              "no multiple of 5 lies in 1..3"),
    (105, 100, 10, "the schedule iters=105, burn=100, thin=10 saves no draw: "
                   "no multiple of 10 lies in 101..105")])
def test_rejected_schedules_run_no_step(iters, burn, thin, message):
    steps = []
    with pytest.raises(InputError) as err:
        run_chain(0, steps.append, None, iters, burn, thin)
    assert str(err.value) == message
    assert steps == []
