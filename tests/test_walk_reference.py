"""The compacted walk Monte Carlo against the masked loop it replaced.

The reference keeps arrays of length `trials` and masks them on every step.
`walk_monte_carlo` must return an equal `MonteCarloResult` and leave the
generator in the same state, i.e. consume exactly the same uniforms.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mdqo import MonteCarloResult, WalkModel, walk_monte_carlo
from mdqo.analysis import _BLOCK


def reference_walk(
    model: WalkModel, trials: int, rng: np.random.Generator, rule: str, max_total_steps: int
) -> tuple[MonteCarloResult, int]:
    """The masked loop, plus the aggregate number of steps it took."""
    p, L, R = model.p, model.L, model.R
    positions = np.zeros(trials, dtype=np.int64)
    steps = np.zeros(trials, dtype=np.int64)
    active = np.ones(trials, dtype=bool)
    total = 0
    while active.any():
        n_active = int(active.sum())
        if total + n_active > max_total_steps:
            break
        total += n_active
        success = rng.random(n_active) < p
        pos = positions[active]
        if rule == "consecutive":
            pos = np.where(success, pos + 1, 0)
        else:
            pos = pos + np.where(success, 1, -1)
            if R is not None:
                pos[pos <= -R] = 0
        positions[active] = pos
        steps[active] += 1
        active[active] = pos < L
    completed = ~active
    n_done = int(completed.sum())
    if n_done == 0:
        return MonteCarloResult(math.nan, math.nan, 0, trials), total
    done_steps = steps[completed].astype(np.float64)
    mean = float(done_steps.mean())
    stderr = float(done_steps.std(ddof=1) / math.sqrt(n_done)) if n_done > 1 else math.inf
    return MonteCarloResult(mean, stderr, n_done, trials - n_done), total


def check_same(model: WalkModel, trials: int, seed: int, rule: str, cap: int) -> int:
    """Assert equal results and generator states; returns the reference's step total."""
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected, total = reference_walk(model, trials, ref_rng, rule, cap)
    result = walk_monte_carlo(model, trials, rng, rule=rule, max_total_steps=cap)
    assert result == expected
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return total


MODELS = [
    (WalkModel(p, L, R), "surplus")
    for p, L, R in itertools.product((0.4, 0.5, 0.65, 0.95, 1.0), (1, 2, 5), (None, 1, 5))
] + [
    (WalkModel(p, L), "consecutive")
    for p, L in itertools.product((0.4, 0.5, 0.65, 0.95, 1.0), (1, 2, 5))
]


MODEL_IDS = [f"{rule}-p{m.p}-L{m.L}-R{m.R}" for m, rule in MODELS]


@pytest.mark.parametrize("trials", [1, 2, 1000])
@pytest.mark.parametrize(("model", "rule"), MODELS, ids=MODEL_IDS)
def test_matches_reference_on_the_grid(model, rule, trials):
    # p <= 1/2 without reset diverges; the cap binds there mid-run
    check_same(model, trials, trials + round(100 * model.p), rule, 200 * trials)


@pytest.mark.parametrize(("model", "rule"), MODELS[::4], ids=MODEL_IDS[::4])
def test_matches_reference_with_many_trials(model, rule):
    check_same(model, 50_000, round(100 * model.p), rule, 2_000_000)


@pytest.mark.parametrize(("model", "rule"), [(WalkModel(0.65, 5), "surplus"),
                                             (WalkModel(0.75, 2, 1), "surplus"),
                                             (WalkModel(0.6, 3), "consecutive")])
def test_caps_match_reference(model, rule):
    total = check_same(model, 1000, 3, rule, 10**8)
    for cap in (total, total - 1, total // 2, 1000, 999, 1):
        check_same(model, 1000, 3, rule, cap)


def test_cap_equal_to_the_total_completes_every_walk():
    model = WalkModel(0.75, 2, 1)
    total = check_same(model, 1000, 9, "surplus", 10**8)
    result = walk_monte_carlo(model, 1000, np.random.default_rng(9), max_total_steps=total)
    assert result.capped == 0
    short = walk_monte_carlo(model, 1000, np.random.default_rng(9), max_total_steps=total - 1)
    assert short.capped > 0


def test_cap_before_the_first_step_draws_nothing():
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    result = walk_monte_carlo(WalkModel(0.9, 2), 10, rng, max_total_steps=9)
    assert result.completed == 0 and result.capped == 10
    assert math.isnan(result.mean) and math.isnan(result.stderr)
    assert rng.bit_generator.state == state
    check_same(WalkModel(0.9, 2), 10, 4, "surplus", 9)


# p = 0.65, L = 5 over three full blocks and 7 walks: no block finishes before
# step 5, and the surplus walks only ever finish on odd steps; with seed 11
# each model also has a step on which some blocks finish walks and others none
BLOCKED = [(WalkModel(0.65, 5, 1), "surplus"), (WalkModel(0.65, 5), "surplus"),
           (WalkModel(0.65, 5), "consecutive")]


@pytest.mark.parametrize(("model", "rule"), BLOCKED, ids=[f"{r}-R{m.R}" for m, r in BLOCKED])
def test_matches_reference_across_blocks(model, rule):
    trials = 3 * _BLOCK + 7
    total = check_same(model, trials, 11, rule, 10**8)
    check_same(model, trials, 11, rule, total // 2)


@pytest.mark.parametrize(("model", "rule"), BLOCKED, ids=[f"{r}-R{m.R}" for m, r in BLOCKED])
def test_matches_reference_on_int64_state(model, rule):
    # a cap of 2^31 no longer fits the int32 state arrays
    check_same(model, 1000, 5, rule, 2**31)


def test_peak_memory_stays_below_32_bytes_per_trial():
    # three int32 arrays of length trials plus the final statistics'
    # temporaries come to about 25 bytes; int64 arrays with a fresh mask and
    # gather per step took about 41
    trials = 400_000
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        walk_monte_carlo(WalkModel(0.65, 5), trials, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * trials
