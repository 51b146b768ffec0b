import time

import numpy as np
import pytest

from stiefel_mcmc import InputError
from stiefel_mcmc.kernels import DrawCounts
from stiefel_mcmc.samplers import MEAN_BLOCK_COLUMNS, Chain, run_chain


def counter_chain(iters, burn, thin, left=None, right=None):
    """run_chain on an integer counter: the state after iteration it is
    it, and each saved row is [state]. Returns the Chain and the number
    of steps taken."""
    steps = []

    def step(s, counts):
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
                chain, steps = counter_chain(iters, burn, thin)
                assert steps == iters
                assert chain.saved_iters.tolist() == expected
                assert chain.saved_count == len(expected)
                assert chain.trace[:, 0].tolist() == expected


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

    chain, _ = counter_chain(iters, burn, thin, left, right)
    saved = chain.saved_iters
    per_draw = sum(left(s) @ right(s).T for s in saved) / len(saved)
    assert len(saved) > max(1, MEAN_BLOCK_COLUMNS // rank)
    np.testing.assert_array_equal(chain.mean, per_draw)


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
        run_chain(0, lambda s, counts: steps.append(s), None, iters, burn, thin)
    assert str(err.value) == message
    assert steps == []


def row_only(s):
    """A record that saves [s], or s itself if it is an array, and adds
    nothing to the mean."""
    return np.atleast_1d(s), np.zeros((1, 1)), np.zeros((1, 1))


def test_every_step_is_handed_the_chain_s_one_counts():
    handed = []

    def step(s, counts):
        handed.append(counts)
        counts.draws += 1
        return s + 1

    chain = run_chain(0, step, row_only, 7, 2, 1)
    assert isinstance(chain, Chain)
    assert isinstance(chain.counts, DrawCounts)
    assert len(handed) == 7
    assert all(counts is chain.counts for counts in handed)
    assert chain.counts.draws == 7


def test_chain_keeps_the_start_it_was_given():
    start = np.arange(3.0)
    chain = run_chain(start, lambda s, counts: s + 1, row_only, 4, 0, 2)
    assert chain.start is start
    np.testing.assert_array_equal(chain.trace, [start + 2, start + 4])


def test_seconds_cover_the_iterations_within_the_call():
    def step(s, counts):
        time.sleep(0.002)
        return s + 1

    begin = time.perf_counter()
    chain = run_chain(0, step, row_only, 5, 0, 1)
    wall = time.perf_counter() - begin
    # each of the five steps sleeps at least 2 ms, all inside the clock
    assert 0.01 <= chain.seconds <= wall
