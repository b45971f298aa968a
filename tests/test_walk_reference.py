"""The compacted walk Monte Carlo against the masked loop it replaced.

The reference keeps arrays of length `trials` and masks them on every step.
`walk_monte_carlo` must return the same mean, completed and capped counts and
leave the generator in the same state, i.e. consume exactly the same
uniforms.  Its stderr must be the correctly rounded square root of the
reference steps' exact variance of the mean, and on the shipped grid at most
one ulp from the reference's numpy `std(ddof=1) / sqrt(n)`.
"""

import dataclasses
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mdqo import MonteCarloResult, WalkModel, walk_monte_carlo
from mdqo.analysis import _BLOCK, _sqrt_ratio


def reference_walk(
    model: WalkModel, trials: int, rng: np.random.Generator, rule: str, max_total_steps: int
) -> tuple[MonteCarloResult, int, np.ndarray]:
    """The masked loop, the aggregate number of steps it took, and the steps
    of the walks that finished."""
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
    done_steps = steps[completed]
    if n_done == 0:
        return MonteCarloResult(math.nan, math.nan, 0, trials), total, done_steps
    as_float = done_steps.astype(np.float64)
    mean = float(as_float.mean())
    stderr = float(as_float.std(ddof=1) / math.sqrt(n_done)) if n_done > 1 else math.inf
    return MonteCarloResult(mean, stderr, n_done, trials - n_done), total, done_steps


def assert_correctly_rounded(value: float, square: Fraction) -> None:
    """value is sqrt(square) rounded to nearest: the midpoints between value
    and its two float neighbours bracket the root, compared squared."""
    below, above = math.nextafter(value, 0.0), math.nextafter(value, math.inf)
    low, high = (Fraction(below) + Fraction(value)) / 2, (Fraction(value) + Fraction(above)) / 2
    assert low * low <= square <= high * high


def check_same(
    model: WalkModel, trials: int, seed: int, rule: str, cap: int, near_numpy: bool = True
) -> int:
    """Assert equal results and generator states, and a correctly rounded
    stderr (with near_numpy, also at most one ulp from numpy's); returns the
    reference's step total."""
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected, total, done_steps = reference_walk(model, trials, ref_rng, rule, cap)
    result = walk_monte_carlo(model, trials, rng, rule=rule, max_total_steps=cap)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert dataclasses.replace(result, stderr=expected.stderr) == expected
    n = done_steps.size
    if n < 2:
        assert result == expected
        return total
    values, counts = np.unique(done_steps, return_counts=True)
    mean = Fraction(int(done_steps.sum()), n)
    squares = sum(int(c) * (int(v) - mean) ** 2 for v, c in zip(values, counts))
    assert_correctly_rounded(result.stderr, squares / (n * (n - 1)))
    if not near_numpy:
        return total
    numpy_stderr = expected.stderr
    neighbours = (math.nextafter(numpy_stderr, 0.0), numpy_stderr,
                  math.nextafter(numpy_stderr, math.inf))
    assert result.stderr in neighbours
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
    # a coarse ceiling: three per-trial int64 arrays and their statistics
    # would cross it; the tight bound is one position byte per trial below
    trials = 400_000
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        walk_monte_carlo(WalkModel(0.65, 5), trials, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * trials


# each case runs past the step in its last entry, so it crosses a bound of
# the position dtype (int8 -> int16 at step 127, int16 -> int64 at step
# 32767) or puts L or -R beyond int8's range while positions are int8
WIDENING = [
    (WalkModel(0.4, 5), "surplus", 3, 3_000, 127),
    (WalkModel(0.3, 5), "surplus", 2, 70_000, 2**15 - 1),
    (WalkModel(0.01, 5), "surplus", 1, 35_000, 2**15 - 1),  # x passes -2**15
    (WalkModel(0.95, 126), "surplus", 1000, 10**8, 127),
    (WalkModel(0.95, 127), "surplus", 1000, 10**8, 127),
    (WalkModel(0.95, 10**6), "surplus", 1000, 200_000, 127),
    (WalkModel(0.3, 5, 300), "surplus", 20, 100_000, 1000),
    (WalkModel(0.99, 200), "consecutive", 100, 10**8, 127),
]


@pytest.mark.parametrize(
    ("model", "rule", "trials", "cap", "past"),
    WIDENING,
    ids=[f"{r}-p{m.p}-L{m.L}-R{m.R}-cap{c}" for m, r, _, c, _ in WIDENING],
)
def test_matches_reference_across_position_widening(model, rule, trials, cap, past):
    # numpy's two-pass std is two ulps off the exact value at L = 126 and 127
    total = check_same(model, trials, 7, rule, cap, near_numpy=False)
    # no step runs more than `trials` walks, so the last step is past `past`
    assert total > past * trials


def test_sqrt_ratio_is_correctly_rounded():
    gen = random.Random(2008)
    cases = [(0, 1), (0, 3**40), (1, 1), (2, 1), (9, 4), (1, 3), (2**300, 3)]
    for _ in range(2000):
        den = gen.getrandbits(gen.randint(1, 200)) or 1
        cases.append((gen.getrandbits(gen.randint(1, 200)), den))
    for _ in range(300):
        # squared midpoints between neighbouring floats, and one unit off them
        value = gen.uniform(0.5, 2.0) * 2.0 ** gen.randint(-60, 60)
        midpoint = (Fraction(value) + Fraction(math.nextafter(value, math.inf))) / 2
        square = midpoint * midpoint
        num, den = square.numerator, square.denominator
        cases += [(num, den), (2 * num - 1, 2 * den), (2 * num + 1, 2 * den)]
    for num, den in cases:
        assert_correctly_rounded(_sqrt_ratio(num, den), Fraction(num, den))
    assert _sqrt_ratio(0, 7) == 0.0 and _sqrt_ratio(9, 4) == 1.5


@pytest.mark.parametrize(
    "model", [WalkModel(0.65, 5), WalkModel(0.65, 5, 1)], ids=["R-None", "R1"]
)
def test_peak_memory_is_one_position_byte_per_trial(model):
    # one int8 position per walk, two block buffers and a block's gathers;
    # per-trial index and step arrays with their statistics took about 24.5
    trials = 400_000
    tracemalloc.start()
    try:
        walk_monte_carlo(model, trials, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * trials
