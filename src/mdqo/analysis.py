"""Run-length analytics for the success/failure walk and the rescaling sweep.

The outcome record of a trajectory is modeled as a biased +-1 walk: +1 with
probability p (success), -1 otherwise, absorbed at +L (surplus return
criterion) and optionally restarted from the origin at -R (reset criterion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import DiagonalHamiltonian
from .statevector import _BLOCK, StateVector, _check_basis

# Aggregate Monte Carlo step budget; p <= 1/2 walks have infinite expectation.
MC_STEP_CAP = 10**8

# Relative tolerance for flagging closed-form vs exact agreement.
CLOSED_FORM_RTOL = 1e-9


@dataclass(frozen=True)
class WalkModel:
    """Walk parameters: success probability p, target surplus L, optional reset depth R."""

    p: float
    L: int
    R: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")
        if self.L < 1:
            raise ValueError(f"L must be at least 1, got {self.L}")
        if self.R is not None and self.R < 1:
            raise ValueError(f"R must be at least 1 when present, got {self.R}")

    @property
    def q(self) -> float:
        return 1.0 - self.p


def expected_steps_run(p: float, L: int) -> float:
    """Expected steps until a run of L consecutive successes: (1 - p^L) / ((1-p) p^L).

    p = 1 returns the limit value L exactly; a denominator that underflows
    to 0 returns inf.
    """
    if L < 1:
        raise ValueError(f"L must be at least 1, got {L}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if p == 1.0:
        return float(L)
    denominator = (1.0 - p) * p**L
    return (1.0 - p**L) / denominator if denominator else math.inf


def expected_steps_surplus_bound(p: float, L: int) -> float:
    """Upper bound L / (2p - 1) on the expected steps to surplus L; needs p > 1/2."""
    if L < 1:
        raise ValueError(f"L must be at least 1, got {L}")
    if not p > 0.5:
        raise ValueError(f"the walk does not drift upward for p = {p} <= 1/2")
    if p > 1.0:
        raise ValueError(f"p must lie in (1/2, 1], got {p}")
    return L / (2.0 * p - 1.0)


def _power(ratio: float, L: int) -> float:
    """ratio ** L, or inf where it overflows the float range."""
    try:
        return ratio**L
    except OverflowError:
        return math.inf


def _sums(r: float, m: int) -> tuple[float, float, float]:
    """S_m, U_m / S_m and V_m / S_m for 0 <= r <= 1, by binary doubling on m.

    S_m = sum_{j<m} r^j, U_m = sum_{j<m} (j+1) r^j, V_m = sum_{j<m} (m-j) r^j.
    Doubling appends the terms j >= m: S_2m = (1 + r^m) S_m, U_2m = U_m +
    r^m (U_m + m S_m), V_2m = V_m + m S_m + r^m V_m; a set bit prepends j = 0:
    S' = 1 + r S, U' = S' + r U, V' = V + S'.  Only nonnegative numbers meet and
    the ratios lie in [1, m], so nothing cancels or overflows; r^k comes from
    pow, whose rounding does not grow with k as repeated squaring's does.
    """
    s = u = v = 0.0
    k = 0
    for bit in bin(m)[2:]:
        power = r**k
        u += k * power / (1.0 + power)
        v += k / (1.0 + power)
        s *= 1.0 + power
        k *= 2
        if bit == "1":
            rs = r * s
            s_next = 1.0 + rs
            u = 1.0 + rs * u / s_next
            v = 1.0 + s * v / s_next
            s = s_next
            k += 1
    return s, u, v


def expected_steps_with_reset_exact(model: WalkModel) -> float:
    """Expected absorption time E_0 of the reset walk, by renewal: E_0 = D / P.

    P is the chance that an excursion from the origin reaches L before -R and D
    its expected length.  With the sums of _sums, for p >= q and r = q/p,
    E_0 = (L U_R + R r^R V_{L-1}) / (p S_R); for p < q the mirror image in
    rho = p/q, E_0 = (L V_R + R rho^-(L-1) U_{L-1}) / (p S_R), is inf once
    rho^-(L-1) passes the float range.  No terms cancel, in O(log(R + L))
    steps.  Against an exact rational solve the relative error is below 1e-14
    for L, R <= 60 and grows at most like (L + R) eps, as powers of the rounded
    q/p do (3e-14 at p = 0.05, L = 240, R = 5, where E_0 = 4.4e307; 8e-9 at
    p = 1/2 - 2^-30, L = R = 2^30): less than one ulp of p moves E_0 there.
    """
    if model.R is None:
        raise ValueError("reset depth R is required for the reset walk")
    p, q, L, R = model.p, model.q, model.L, model.R
    if p >= q:
        r = q / p
        s_r, u_r, _ = _sums(r, R)
        s_l, _, v_l = _sums(r, L - 1)
        # factors ordered so that no partial product overflows before the sum does
        return (L * u_r + R * r**R / s_r * v_l * s_l) / p
    rho = p / q
    s_r, _, v_r = _sums(rho, R)
    s_l, u_l, _ = _sums(rho, L - 1)
    return (L * v_r + R / s_r * _power(q / p, L - 1) * u_l * s_l) / p


@dataclass(frozen=True)
class ClosedFormResult:
    """Both sign variants of the closed-form reset formula, flagged against the exact time.

    printed uses the (p/q)^L factor as written; corrected uses (q/p)^L.  Only
    the corrected variant reproduces expected_steps_with_reset_exact; the
    printed one can exceed the walk's own upper bound L/(2p-1) and diverges as
    p -> q.  A variant matches only where it and the exact time are finite.
    """

    printed: float
    corrected: float
    exact: float
    printed_matches: bool
    corrected_matches: bool


def expected_steps_with_reset_closed_form(model: WalkModel) -> ClosedFormResult:
    """Evaluate L/(2p-1) - R q^R / ((p-q)(p^R - q^R)) * (1 - r^L) for both r = p/q, q/p."""
    exact = expected_steps_with_reset_exact(model)  # raises ValueError without R
    p, q, L, R = model.p, model.q, model.L, model.R
    if q == 0.0:
        printed = corrected = float(L)
    elif p == q:
        # Removable singularity of the corrected variant; the printed one diverges.
        corrected = float(L * (L + R))
        printed = math.inf
    else:
        base = L / (2.0 * p - 1.0)
        denominator = (p - q) * (p**R - q**R)
        if denominator:
            correction = R * q**R / denominator
        else:  # p^R and q^R both underflow: scale them by max(p, q)^R
            top = max(p, q)
            correction = R * (q / top) ** R / ((p - q) * ((p / top) ** R - (q / top) ** R))
        printed = base - correction * (1.0 - _power(p / q, L))
        corrected = base - correction * (1.0 - _power(q / p, L))

    def matches(value: float) -> bool:
        return (
            math.isfinite(value)
            and math.isfinite(exact)
            and abs(value - exact) <= CLOSED_FORM_RTOL * max(1.0, abs(exact))
        )

    return ClosedFormResult(
        printed=printed,
        corrected=corrected,
        exact=exact,
        printed_matches=matches(printed),
        corrected_matches=matches(corrected),
    )


@dataclass(frozen=True)
class MonteCarloResult:
    """Sample mean/stderr of walk lengths; capped walks are excluded from the mean."""

    mean: float
    stderr: float
    completed: int
    capped: int

    @property
    def cap_hit(self) -> bool:
        return self.capped > 0


def walk_monte_carlo(
    model: WalkModel,
    trials: int,
    rng: np.random.Generator,
    rule: str = "surplus",
    max_total_steps: int = MC_STEP_CAP,
) -> MonteCarloResult:
    """Simulate the walk and estimate the expected absorption time.

    rule = "surplus" is the standard walk (step -1 on failure, restart at -R
    when configured).  rule = "consecutive" restarts the position at 0 on any
    failure, so absorption means L consecutive successes.  A hard aggregate
    step cap keeps divergent parameter choices (p <= 1/2, no reset) bounded;
    walks still running at the cap are reported, not averaged.

    Each step draws one uniform per running walk, in trial order, in blocks
    of _BLOCK, and moves the survivors to the front of one position array:
    an int8 per walk (the success flags are added as an int8 view), widened to
    int16 at step 127 and to int64 at step 32767, as during step t |x| <= t + 1.
    The f walks that finish at step t add t f and t^2 f to two integer sums,
    so mean and stderr are exact ratios rounded once.  Beside the positions,
    memory is a float64 and a bool buffer of one block.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if max_total_steps < 1:
        raise ValueError("max_total_steps must be at least 1")
    if rule not in ("surplus", "consecutive"):
        raise ValueError(f"unknown stopping rule {rule!r}")
    p, L, R = model.p, model.L, model.R
    pos = np.zeros(trials, dtype=np.int8)
    block = min(trials, _BLOCK)
    uniforms, success = np.empty(block), np.empty(block, dtype=bool)
    flags = success.view(np.int8)  # int8 + bool would take a casting loop
    n = trials
    total = t = s1 = s2 = 0
    while n and total + n <= max_total_steps:
        total += n
        t += 1
        if t in (2**7 - 1, 2**15 - 1):
            pos = pos[:n].astype(np.int16 if t < 2**15 - 1 else np.int64)
        kept = 0
        for start in range(0, n, block):
            x = pos[start : min(start + block, n)]
            u, s, f = uniforms[: x.size], success[: x.size], flags[: x.size]
            rng.random(out=u)
            np.less(u, p, out=s)
            if rule == "consecutive":
                x += 1
                x *= f
            else:
                x += f
                x += f
                x -= 1
                if R is not None:
                    np.greater(x, -R, out=s)
                    x *= f
            if x.max() >= L:
                # flatnonzero and take: a boolean-mask gather branches per entry,
                # several times slower when about half the block finishes
                x = x.take(np.flatnonzero(np.less(x, L, out=s)))
            # kept <= start: the survivors only ever move toward the front
            pos[kept : kept + x.size] = x
            kept += x.size
        s1, s2 = s1 + t * (n - kept), s2 + t * t * (n - kept)
        n = kept
    n_done = trials - n
    if n_done == 0:
        return MonteCarloResult(math.nan, math.nan, 0, trials)
    # s1 / n_done rounds one exact ratio once, as numpy's mean does while s1 < 2**53
    var = (n_done * s2 - s1 * s1, n_done**2 * (n_done - 1))
    stderr = _sqrt_ratio(*var) if n_done > 1 else math.inf
    return MonteCarloResult(s1 / n_done, stderr, n_done, n)


def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den) correctly rounded, for integers num >= 0 and den > 0: the
    integer root, scaled to at least 55 bits, gets its last bit set when inexact
    (rounding to odd, Boldo & Melquiond 2008), so float() rounds it as the real root."""
    k = max(0, 56 - (num.bit_length() - den.bit_length()) // 2)
    scaled, rem = divmod(num << 2 * k, den)
    root = math.isqrt(scaled)
    return math.ldexp(float(root | (rem > 0 or root * root != scaled)), -k)


@dataclass(frozen=True)
class EpsilonSweep:
    """Per-epsilon success probability, post-success cost, slope, and covariance."""

    grid: np.ndarray
    p1: np.ndarray
    h_phi: np.ndarray
    slope: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        arrays = {}
        for name in ("grid", "p1", "h_phi", "slope", "covariance"):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            arr.setflags(write=False)
            arrays[name] = arr
        if any(arr.shape != arrays["grid"].shape for arr in arrays.values()):
            raise ValueError("all sweep arrays must share the grid's shape")
        if arrays["grid"].size and np.any(np.diff(arrays["grid"]) <= 0):
            raise ValueError("epsilon grid must be strictly increasing")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)


def _sweep_levels(state: StateVector, h: DiagonalHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """The state's weight W on each cost level of h it reaches, and those levels' costs v."""
    _check_basis(state, h, "Hamiltonian")
    values, level = h.levels
    weights = np.bincount(level, weights=state.probabilities())
    support = weights > 0
    if np.any(values[support] < -1e-12):
        raise ValueError("epsilon sweep assumes H >= 0 on the state support")
    return weights[support], values[support]


def epsilon_sweep(
    state: StateVector, h: DiagonalHamiltonian, grid: np.ndarray
) -> EpsilonSweep:
    """Sweep the rescaling strength and record p1, <H>_phi, its slope, and the covariance.

    p1(eps) = <sin^2(pi/4 + eps H)> and <H>_phi(eps) is the cost expectation
    after one success.  Everything is summed over the state's weights W on
    the cost levels v, one bincount per call, so a grid point costs
    O(levels).  With s = sin^2(pi/4 + eps v) and c = cos 2 eps v, ds/deps =
    v c, so the slope is exact: d<H>_phi/deps = sum W v (v - <H>_phi) c / p1.
    The covariance Cov(H, cos 2 eps H) controls the sign of the slope
    (negative covariance at the right edge places the maximum strictly
    inside the interval).

    Small-eps expansion: sin^2(pi/4 + x) = 1/2 + x + O(x^3), so
    <H>_phi(eps) = <H> + 2 Var(H) eps - 4 <H> Var(H) eps^2 + O(eps^3) and the
    slope is 2 Var(H) - 8 <H> Var(H) eps + O(eps^2).  For the uniform state
    on the 6-edge benchmark graph (<H> = 3, Var(H) = 3/2) it tends to 3.
    """
    weights, v = _sweep_levels(state, h)
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("epsilon grid must be a nonempty 1-d array")
    h_max = float(v.max())
    upper = math.pi / (4.0 * h_max) if h_max > 0 else math.inf
    if grid.min() <= 0 or grid.max() > upper + 1e-12:
        raise ValueError(f"epsilon grid must lie in (0, {upper}]")
    mean_h = np.sum(weights * v)
    rows = []
    for eps in grid:
        s = np.sin(math.pi / 4 + eps * v) ** 2
        c = np.cos(2.0 * eps * v)
        p1 = np.sum(weights * s)
        h_phi = np.sum(weights * v * s) / p1
        slope = np.sum(weights * v * (v - h_phi) * c) / p1
        rows.append((p1, h_phi, slope, np.sum(weights * (v - mean_h) * c)))
    p1, h_phi, slope, covariance = np.array(rows).T
    return EpsilonSweep(grid=grid, p1=p1, h_phi=h_phi, slope=slope, covariance=covariance)


def success_prob_derivative(state: StateVector, h: DiagonalHamiltonian, eps: float) -> float:
    """d p1 / d eps = <H cos 2 eps H>; nonnegative whenever H >= 0 on the support."""
    weights, v = _sweep_levels(state, h)
    return float(np.sum(weights * v * np.cos(2.0 * eps * v)))
