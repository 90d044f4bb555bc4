"""Synthetic regime-switching migration data.

Simulation keeps a closed cohort (no entry or censoring): every entity
present at time zero stays in the sample, so the conservation invariant of
:class:`~migfilter.model.MigrationPanel` holds exactly and test oracles stay
closed-form.  All draws come from one ``numpy`` generator seeded from the
config, so identical configs give bit-identical output.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DataError, ModelError
from .model import (
    EventStream,
    HiddenFactorSpec,
    MigrationLaw,
    MigrationPanel,
    Mode,
    _check_model,
    _freeze,
    _freeze_int,
    _positive,
    _whole,
)

__all__ = [
    "SimulationConfig",
    "PiecewisePath",
    "simulate_hidden_path",
    "simulate_panel_discrete",
    "simulate_events_continuous",
    "demo_model",
]


@dataclass(frozen=True)
class SimulationConfig:
    """What to simulate: cohort sizes, horizon and randomness.

    ``horizon`` counts steps in discrete mode (a whole number, kept as an
    ``int``) and is a real time span (days) in continuous mode.
    """

    entities_per_rating: np.ndarray
    horizon: float
    seed: int
    mode: Mode = Mode.DISCRETE
    step_length_days: int = 1

    def __post_init__(self):
        entities = _freeze_int(np.atleast_1d(self.entities_per_rating), "entities_per_rating")
        object.__setattr__(self, "entities_per_rating", entities)
        object.__setattr__(self, "mode", Mode(self.mode))
        if np.any(self.entities_per_rating < 0) or not np.any(self.entities_per_rating > 0):
            raise DataError("entities_per_rating must be nonnegative with at least one positive")
        _positive(self.horizon, "horizon")
        if self.mode is Mode.DISCRETE:
            object.__setattr__(self, "horizon", _whole(self.horizon, "horizon", 1))
        object.__setattr__(self, "seed", _whole(self.seed, "seed", 0))
        _positive(self.step_length_days, "step_length_days")

    @property
    def p(self) -> int:
        return self.entities_per_rating.shape[0]


@dataclass(frozen=True)
class PiecewisePath:
    """Piecewise-constant continuous-time path: ``states[i]`` holds on
    ``[times[i], times[i+1])`` and the last state holds to the horizon."""

    times: np.ndarray
    states: np.ndarray
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "times", _freeze(np.atleast_1d(self.times)))
        object.__setattr__(self, "states", _freeze_int(np.atleast_1d(self.states), "states"))


def simulate_hidden_path(factor: HiddenFactorSpec, config: SimulationConfig):
    """Sample a trajectory of the hidden factor.

    Discrete mode returns an integer array of length ``horizon + 1``
    (state at each grid time).  Continuous mode returns a
    :class:`PiecewisePath`: holding times are exponential with the diagonal
    exit rate, jump targets proportional to the off-diagonal intensities.
    """
    _check_model("simulate_hidden_path", config.mode, factor, None, None, None)
    rng = np.random.default_rng(config.seed)
    return _hidden_path(factor, config, rng)


def _cdf(probs: np.ndarray) -> list[float]:
    """The CDF ``Generator.choice`` builds from ``probs``, so that
    ``bisect_right(cdf, rng.random())`` draws what
    ``rng.choice(len(probs), p=probs)`` draws, from the same bits."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _jump_cdfs(factor: HiddenFactorSpec) -> list[list[float] | None]:
    """Per state, the CDF of a continuous chain's jump target, proportional
    to the off-diagonal intensities; ``None`` where they are all zero."""
    out = []
    for state, row in enumerate(factor.trans):
        weights = np.where(np.arange(factor.m) == state, 0.0, row)
        total = weights.sum()
        out.append(_cdf(weights / total) if total > 0 else None)
    return out


def _hidden_jump(caller: str, cdfs: list, state: int, rng) -> int:
    """The state a continuous hidden chain jumps to from ``state``."""
    if cdfs[state] is None:
        raise ModelError(
            f"{caller}: factor state {state} has a positive exit rate "
            "but no off-diagonal intensity"
        )
    return bisect_right(cdfs[state], rng.random())


def _hidden_path(factor: HiddenFactorSpec, config: SimulationConfig, rng):
    state = bisect_right(_cdf(factor.pi), rng.random())
    if factor.mode is Mode.DISCRETE:
        cdfs = [_cdf(row) for row in factor.trans]
        path = [state]
        for _ in range(config.horizon):
            state = bisect_right(cdfs[state], rng.random())
            path.append(state)
        return np.array(path, dtype=np.int64)
    exit_rates = (-np.diagonal(factor.trans)).tolist()
    cdfs = _jump_cdfs(factor)
    times = [0.0]
    states = [state]
    t = 0.0
    while True:
        rate = exit_rates[state]
        if rate <= 0.0:
            break
        t += rng.exponential(1.0 / rate)
        if t >= config.horizon:
            break
        state = _hidden_jump("simulate_hidden_path", cdfs, state, rng)
        times.append(t)
        states.append(state)
    return PiecewisePath(np.array(times), np.array(states), float(config.horizon))


def _pairwise_sum(values: list[float]) -> float:
    """``np.sum`` of a contiguous float64 array holding ``values``, bit for
    bit: numpy's pairwise sum.  Below 8 entries it adds left to right from
    0.0; up to 128 it runs 8 interleaved accumulators, combines them in a
    fixed tree and adds the tail; above that it halves (at a multiple of 8)
    and recurses."""
    n = len(values)
    if n < 8:
        res = 0.0
        for x in values:
            res += x
        return res
    if n <= 128:
        whole = n - n % 8
        r = values[:8]
        for i in range(8, whole, 8):
            r = list(map(operator.add, r, values[i:i + 8]))
        r0, r1, r2, r3, r4, r5, r6, r7 = r
        # the sum starts from numpy's 0.0 identity, which turns -0.0 into 0.0
        res = 0.0 + (((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
        for x in values[whole:]:
            res += x
        return res
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def simulate_panel_discrete(
    factor: HiddenFactorSpec, law: MigrationLaw, config: SimulationConfig
) -> tuple[MigrationPanel, np.ndarray]:
    """Simulate an aggregated migration panel for a closed cohort.

    Step ``t`` draws, per rating class ``j``, a multinomial split of the
    ``Y[t, j]`` exposed entities over target ratings with probabilities
    ``law.per_state[theta[t], j]`` — the hidden state at the step's start
    drives the step's moves.  Exposures for ``t + 1`` are the column sums.
    """
    if config.mode is not Mode.DISCRETE:
        raise ModelError(
            f"simulate_panel_discrete: needs a discrete config, got {config.mode.value}"
        )
    _check_model("simulate_panel_discrete", Mode.DISCRETE, factor, law, None, config.p)
    rng = np.random.default_rng(config.seed)
    path = _hidden_path(factor, config, rng)
    steps = config.horizon
    p = law.p
    exposures = np.empty((steps, p), dtype=np.int64)
    counts = np.empty((steps, p, p), dtype=np.int64)
    y = config.entities_per_rating
    for t, theta in enumerate(path[:-1].tolist()):
        exposures[t] = y
        # a class holding no entity draws nothing, as a call per class would
        counts[t] = rng.multinomial(y, law.per_state[theta])
        y = counts[t].sum(axis=0)
    panel = MigrationPanel(exposures, counts, step_length_days=config.step_length_days)
    return panel, path


def simulate_events_continuous(
    factor: HiddenFactorSpec, law: MigrationLaw, config: SimulationConfig
) -> tuple[EventStream, PiecewisePath]:
    """Simulate individually dated migrations by competing exponential clocks.

    At any instant the live clocks are the hidden factor's exit rate and one
    clock per feasible migration ``(j, k)`` with rate
    ``Y[j] * law.per_state[theta, j, k]``; every event (either kind)
    restarts them all, which is exact for the joint Markov dynamics.  Only
    migrations are emitted in the stream; the hidden path is returned
    alongside.

    The loop runs on Python floats with numpy's arithmetic: the clock total
    is :func:`_pairwise_sum`, and the migration is picked on the running
    sum, as ``np.cumsum`` and ``searchsorted(side="right")`` would.
    """
    if config.mode is not Mode.CONTINUOUS:
        raise ModelError(
            f"simulate_events_continuous: needs a continuous config, got {config.mode.value}"
        )
    _check_model("simulate_events_continuous", Mode.CONTINUOUS, factor, law, None, config.p)
    p = law.p
    rng = np.random.default_rng(config.seed)
    # per state, the rows of the law with the diagonal clocks off: y * 0.0 is 0.0
    off_diag = np.where(np.eye(p, dtype=bool), 0.0, law.per_state).tolist()
    exit_rates = (-np.diagonal(factor.trans)).tolist()
    cdfs = _jump_cdfs(factor)

    theta = bisect_right(_cdf(factor.pi), rng.random())
    hidden_times = [0.0]
    hidden_states = [theta]
    y = config.entities_per_rating.tolist()
    rows = off_diag[theta]
    hidden_rate = exit_rates[theta]
    mig_rates = [y_j * x for y_j, row in zip(y, rows) for x in row]
    times: list[float] = []
    sources: list[int] = []
    targets: list[int] = []

    t = 0.0
    horizon = float(config.horizon)
    while True:
        total = hidden_rate + _pairwise_sum(mig_rates)
        if total <= 0.0:
            break
        t += rng.exponential(1.0 / total)
        if t >= horizon:
            break
        # uniform(0.0, total) is 0.0 + total * random(), the same double
        u = total * rng.random()
        if u < hidden_rate:
            theta = _hidden_jump("simulate_events_continuous", cdfs, theta, rng)
            hidden_times.append(t)
            hidden_states.append(theta)
            rows = off_diag[theta]
            hidden_rate = exit_rates[theta]
            mig_rates = [y_j * x for y_j, row in zip(y, rows) for x in row]
        else:
            idx = bisect_right(list(accumulate(mig_rates)), u - hidden_rate)
            j, k = divmod(idx, p)
            times.append(t)
            sources.append(j)
            targets.append(k)
            y[j] -= 1
            y[k] += 1
            mig_rates[j * p:(j + 1) * p] = [y[j] * x for x in rows[j]]
            mig_rates[k * p:(k + 1) * p] = [y[k] * x for x in rows[k]]
    stream = EventStream(
        times=np.array(times, dtype=float),
        sources=np.array(sources, dtype=np.int64),
        targets=np.array(targets, dtype=np.int64),
        initial_exposures=config.entities_per_rating,
        horizon=horizon,
    )
    path = PiecewisePath(np.array(hidden_times), np.array(hidden_states), horizon)
    return stream, path


def demo_model(
    m: int = 3, p: int = 3, mode: Mode = Mode.DISCRETE, spread: float = 4.0
) -> tuple[HiddenFactorSpec, MigrationLaw]:
    """A small synthetic model with well-separated migration regimes.

    These are illustrative parameters (sticky hidden chain, geometric risk
    ladder across states), not estimates from any dataset.  ``spread``
    scales how far apart the per-state downgrade levels sit.
    """
    base_move = 0.02 if mode is Mode.DISCRETE else 0.002
    if m > 1:
        trans = np.full((m, m), 0.05 / (m - 1))
        np.fill_diagonal(trans, 0.95)
    else:
        trans = np.array([[1.0]])
    if mode is Mode.CONTINUOUS:
        trans = transition_mat_to_gen(trans)
    pi = np.full(m, 1.0 / m)
    factor = HiddenFactorSpec(pi=pi, trans=trans, mode=mode)

    per_state = np.zeros((m, p, p))
    for h in range(m):
        level = base_move * spread ** (h / max(m - 1, 1))
        mat = np.zeros((p, p))
        for j in range(p):
            for k in range(p):
                if k == j:
                    continue
                mat[j, k] = level / (1.0 + abs(j - k)) * (1.5 if k > j else 0.5)
        if mode is Mode.DISCRETE:
            np.fill_diagonal(mat, 0.0)
            np.fill_diagonal(mat, 1.0 - mat.sum(axis=1))
        else:
            np.fill_diagonal(mat, -mat.sum(axis=1))
        per_state[h] = mat
    law = MigrationLaw(per_state=per_state, mode=mode)
    return factor, law


def transition_mat_to_gen(mat: np.ndarray) -> np.ndarray:
    """Turn a sticky transition matrix into a generator with the same
    off-diagonal proportions (unit time per step)."""
    gen = np.array(mat, dtype=float)
    np.fill_diagonal(gen, 0.0)
    np.fill_diagonal(gen, -gen.sum(axis=1))
    return gen
