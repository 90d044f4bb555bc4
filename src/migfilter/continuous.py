"""Continuous-time filtering over dated migration events.

Between events the filtered law follows a drift ODE: the hidden chain's own
Kolmogorov drift plus a no-news term that bleeds probability away from
states whose predicted aggregate jump intensity exceeds the average.  Each
observed migration applies a closed-form Bayes reweighting by the per-state
intensity of that transition.

Daily panels violate the no-simultaneous-jumps assumption this filter needs,
so :func:`spread_jumps` redistributes each step's jumps onto distinct random
subintervals first; re-aggregating the result reproduces the original
off-diagonal counts exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ImpossibleObservationError, ModelError
from .filtering import FilterTrajectory
from .model import (
    EventStream,
    FilterState,
    HiddenFactorSpec,
    MigrationLaw,
    MigrationPanel,
    Mode,
    generator_to_transition,
    renormalize,
)

__all__ = [
    "SpreadConfig",
    "spread_jumps",
    "stream_to_panel",
    "continuous_drift_step",
    "continuous_jump_update",
    "run_continuous_filter",
]

# Largest (rate * dt) an explicit Euler substep is allowed to take; keeps the
# update on the simplex with a wide margin.
_MAX_EULER_MASS = 0.2


@dataclass(frozen=True)
class SpreadConfig:
    """How to redistribute same-step jumps onto a finer grid.

    ``subintervals_per_step`` must exceed the largest per-step jump total so
    that every jump can get its own slot.
    """

    subintervals_per_step: int
    seed: int = 0

    def __post_init__(self):
        if self.subintervals_per_step < 1:
            raise DataError("subintervals_per_step must be at least 1")


def spread_jumps(panel: MigrationPanel, cfg: SpreadConfig) -> EventStream:
    """Turn a panel into an event stream with no simultaneous jumps.

    Each step's off-diagonal jumps are placed, in shuffled order, at the
    midpoints of distinct uniformly-chosen subinterval slots of that step;
    per-step counts per transition are preserved exactly.  Exposures between
    steps follow the panel's own exposure rows (so entry/censoring at step
    boundaries is carried over), and within a step they follow the events.
    """
    p = panel.p
    off = ~np.eye(p, dtype=bool)
    per_step_jumps = panel.counts[:, off].sum(axis=1)
    worst = int(per_step_jumps.max(initial=0))
    if cfg.subintervals_per_step <= worst:
        raise DataError(
            f"subintervals_per_step={cfg.subintervals_per_step} cannot host "
            f"{worst} jumps in one step without collisions; need more slots"
        )
    rng = np.random.default_rng(cfg.seed)
    d = float(panel.step_length_days)
    slot_width = d / cfg.subintervals_per_step

    times: list[float] = []
    sources: list[int] = []
    targets: list[int] = []
    for t in range(panel.steps):
        n_jumps = int(per_step_jumps[t])
        if n_jumps == 0:
            continue
        labels = np.repeat(
            np.arange(p * p), panel.counts[t].ravel() * off.ravel().astype(np.int64)
        )
        slots = np.sort(rng.choice(cfg.subintervals_per_step, size=n_jumps, replace=False))
        labels = rng.permutation(labels)
        for slot, label in zip(slots, labels):
            times.append(t * d + (slot + 0.5) * slot_width)
            j, k = divmod(int(label), p)
            sources.append(j)
            targets.append(k)
    boundary_times = None
    boundary_exposures = None
    if panel.steps > 1:
        boundary_times = np.arange(1, panel.steps) * d
        boundary_exposures = panel.exposures[1:]
    return EventStream(
        times=np.array(times, dtype=float),
        sources=np.array(sources, dtype=np.int64),
        targets=np.array(targets, dtype=np.int64),
        initial_exposures=panel.exposures[0],
        horizon=panel.steps * d,
        boundary_times=boundary_times,
        boundary_exposures=boundary_exposures,
    )


def stream_to_panel(stream: EventStream, step_days: float) -> MigrationPanel:
    """Aggregate an event stream onto a regular grid (inverse of spreading).

    The horizon must be a whole number of steps.  Exposures are taken at
    step starts; each event adds one off-diagonal count to its step and the
    diagonal absorbs the stayers, so conservation holds by construction.
    """
    n_steps = stream.horizon / step_days
    if abs(n_steps - round(n_steps)) > 1e-9:
        raise DataError(
            f"horizon {stream.horizon} is not a whole number of {step_days}-day steps"
        )
    n_steps = int(round(n_steps))
    p = stream.p
    exposures = np.zeros((n_steps, p), dtype=np.int64)
    counts = np.zeros((n_steps, p, p), dtype=np.int64)

    y = stream.initial_exposures.astype(np.int64).copy()
    b = 0
    e = 0
    for t in range(n_steps):
        start = t * step_days
        while (
            stream.boundary_times is not None
            and b < stream.boundary_times.shape[0]
            and stream.boundary_times[b] <= start + 1e-12
        ):
            y = stream.boundary_exposures[b].astype(np.int64).copy()
            b += 1
        exposures[t] = y
        end = (t + 1) * step_days
        while e < stream.n_events and stream.times[e] <= end + 1e-12:
            if stream.times[e] <= start + 1e-12:
                raise DataError("event time fell on or before its step start")
            j, k = int(stream.sources[e]), int(stream.targets[e])
            counts[t, j, k] += 1
            y[j] -= 1
            y[k] += 1
            e += 1
        for j in range(p):
            counts[t, j, j] = exposures[t, j] - counts[t, j].sum()
            if counts[t, j, j] < 0:
                raise DataError(
                    f"step {t}: more departures from rating {j} than exposure"
                )
    return MigrationPanel(exposures, counts, step_length_days=step_days)


def _drift_derivative(
    probs: np.ndarray, trans: np.ndarray, intensity_load: np.ndarray
) -> np.ndarray:
    """Right-hand side of the between-events filtering ODE.

    ``intensity_load[h]`` is the aggregate predicted jump intensity if the
    hidden state were ``h`` (exposure-weighted sum of off-diagonal
    intensities).  States loading more intensity than the filtered average
    lose mass while nothing jumps.
    """
    mean_load = probs @ intensity_load
    return trans.T @ probs + probs * (mean_load - intensity_load)


def _intensity_load(law: MigrationLaw, exposures: np.ndarray) -> np.ndarray:
    off = ~np.eye(law.p, dtype=bool)
    rates = law.per_state * exposures[None, :, None]
    return np.where(off[None, :, :], rates, 0.0).sum(axis=(1, 2))


def continuous_drift_step(
    state: FilterState,
    dt: float,
    factor: HiddenFactorSpec,
    law: MigrationLaw,
    exposures: np.ndarray,
) -> FilterState:
    """Propagate the filtered law over a jump-free interval of length ``dt``.

    Explicit Euler with automatic substepping: the step is split until no
    substep moves more than a fixed fraction of the fastest rate, then each
    substep is renormalized.
    """
    if dt <= 0:
        raise ModelError(f"dt must be positive, got {dt}")
    if factor.mode is not Mode.CONTINUOUS or law.mode is not Mode.CONTINUOUS:
        raise ModelError("continuous_drift_step requires continuous mode")
    exposures = np.asarray(exposures, dtype=float)
    load = _intensity_load(law, exposures)
    probs, _, _ = _integrate_drift(state.probs, dt, factor.trans, load)
    return FilterState(probs, time_index=state.time_index + dt)


def _integrate_drift(
    probs: np.ndarray,
    dt: float,
    trans: np.ndarray,
    load: np.ndarray,
    max_h: float | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Euler-integrate the drift ODE; also accumulate the chain-drift part
    and the predicted aggregate intensity integral (for the log-likelihood).

    Substeps never exceed ``max_h`` (the caller's grid cap) nor the
    stability bound tied to the fastest rate in play.
    """
    rate_scale = float(np.max(-np.diag(trans), initial=0.0) + np.max(load, initial=0.0))
    n_sub = max(1, math.ceil(dt * rate_scale / _MAX_EULER_MASS))
    if max_h is not None and max_h < dt:
        n_sub = max(n_sub, math.ceil(round(dt / max_h, 9)))
    h = dt / n_sub
    chain_part = np.zeros_like(probs)
    intensity_integral = 0.0
    for _ in range(n_sub):
        chain = trans.T @ probs
        mean_load = float(probs @ load)
        chain_part += chain * h
        intensity_integral += mean_load * h
        probs = probs + (chain + probs * (mean_load - load)) * h
        probs = renormalize(probs)
    return probs, chain_part, intensity_integral


def continuous_jump_update(
    state: FilterState, transition: tuple[int, int], law: MigrationLaw
) -> FilterState:
    """Bayes update of the filtered law at an observed migration.

    Each state's probability is reweighted by its intensity for the observed
    transition; the closed form normalizes itself, and a common rescaling of
    that intensity column across states cancels out.
    """
    if law.mode is not Mode.CONTINUOUS:
        raise ModelError("continuous_jump_update requires a continuous-mode law")
    j, k = transition
    if j == k:
        raise DataError(f"not a migration: {transition}")
    column = law.per_state[:, j, k]
    denom = float(state.probs @ column)
    if denom <= 0.0:
        raise ImpossibleObservationError(
            f"transition {j}->{k} has zero intensity under every hidden state "
            "carrying filter mass",
            time_index=state.time_index,
            transitions=[(j, k)],
        )
    return FilterState(
        renormalize(state.probs * column / denom), time_index=state.time_index
    )


def run_continuous_filter(
    events: EventStream,
    factor: HiddenFactorSpec,
    law: MigrationLaw,
    init: FilterState | np.ndarray | None = None,
    grid_dt: float = 0.1,
    report_dt: float | None = None,
    forecast_dt: float | None = None,
    exact_conversion: bool = False,
) -> FilterTrajectory:
    """Filter the hidden factor through a dated event stream.

    Integration alternates drift segments (never longer than ``grid_dt`` or
    the time to the next event) with jump updates at event times.  The state
    is emitted on the reporting grid (every ``report_dt``, default
    ``grid_dt``) together with a transition-probability forecast obtained by
    converting each state's intensity matrix over ``forecast_dt`` (default:
    the reporting interval) and mixing with the current filtered law.  Per
    reporting interval, the chain-drift and observation-driven parts of the
    law's movement are recorded separately.
    """
    if grid_dt <= 0:
        raise ModelError(f"grid_dt must be positive, got {grid_dt}")
    if factor.mode is not Mode.CONTINUOUS or law.mode is not Mode.CONTINUOUS:
        raise ModelError("run_continuous_filter requires continuous mode")
    if law.n_states != factor.m:
        raise ModelError("law/factor state counts disagree")
    if events.p != law.p:
        raise ModelError(f"stream has {events.p} rating classes, law has {law.p}")
    if report_dt is None:
        report_dt = grid_dt
    if forecast_dt is None:
        forecast_dt = report_dt

    if init is None:
        probs = factor.pi.copy()
    elif isinstance(init, FilterState):
        probs = init.probs.copy()
    else:
        probs = renormalize(np.asarray(init, dtype=float))

    horizon = float(events.horizon)
    n_intervals = max(1, math.ceil(round(horizon / report_dt, 9)))
    report_times = np.minimum(np.arange(1, n_intervals + 1) * report_dt, horizon)

    step_matrices = np.array(
        [generator_to_transition(g, forecast_dt, exact=exact_conversion) for g in law.per_state]
    )

    y = events.initial_exposures.astype(float).copy()
    load = _intensity_load(law, y)
    states = [FilterState(probs, time_index=0.0)]
    predicted = np.empty((n_intervals, law.p, law.p))
    pred_parts = np.zeros((n_intervals, factor.m))
    corr_parts = np.zeros((n_intervals, factor.m))
    loglik = 0.0

    predicted[0] = np.tensordot(probs, step_matrices, axes=1)
    interval = 0
    interval_start_probs = probs.copy()

    e = 0
    b = 0
    t = 0.0
    eps = 1e-12
    while t < horizon - eps:
        stops = [report_times[interval], horizon]
        if e < events.n_events:
            stops.append(float(events.times[e]))
        if events.boundary_times is not None and b < events.boundary_times.shape[0]:
            stops.append(float(events.boundary_times[b]))
        stop = min(stops)
        if stop > t + eps:
            probs, chain_part, intensity_int = _integrate_drift(
                probs, stop - t, factor.trans, load, max_h=grid_dt
            )
            pred_parts[interval] += chain_part
            loglik -= intensity_int
            t = stop
        else:
            t = stop

        if (
            events.boundary_times is not None
            and b < events.boundary_times.shape[0]
            and events.boundary_times[b] <= t + eps
        ):
            y = events.boundary_exposures[b].astype(float).copy()
            load = _intensity_load(law, y)
            b += 1
        if e < events.n_events and events.times[e] <= t + eps:
            j, k = int(events.sources[e]), int(events.targets[e])
            column = law.per_state[:, j, k]
            event_intensity = y[j] * float(probs @ column)
            if event_intensity <= 0.0:
                raise ImpossibleObservationError(
                    f"event {e} ({j}->{k} at t={t}) has zero predicted intensity",
                    time_index=t,
                    transitions=[(j, k)],
                )
            loglik += float(np.log(event_intensity))
            probs = renormalize(probs * column / float(probs @ column))
            y[j] -= 1.0
            y[k] += 1.0
            load = _intensity_load(law, y)
            e += 1
        if report_times[interval] <= t + eps:
            states.append(FilterState(probs, time_index=float(report_times[interval])))
            corr_parts[interval] = (probs - interval_start_probs) - pred_parts[interval]
            interval_start_probs = probs.copy()
            interval += 1
            if interval < n_intervals:
                predicted[interval] = np.tensordot(probs, step_matrices, axes=1)
            else:
                break
    if len(states) < n_intervals + 1:
        # horizon reached mid-interval (only possible with degenerate grids)
        states.append(FilterState(probs, time_index=horizon))
        corr_parts[interval] = (probs - interval_start_probs) - pred_parts[interval]
    return FilterTrajectory(
        states=tuple(states),
        predicted_ratios=predicted,
        loglik=loglik,
        prediction_parts=pred_parts,
        correction_parts=corr_parts,
    )
