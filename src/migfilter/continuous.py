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

Every reader of a stream takes its exposures from one walker with one tie
rule: at a given time (or grid index) every event at or before it applies
first, then the last boundary override at or before it.  On a grid of step
``d``, event and boundary times within ``1e-9 * d`` of a grid point count
as on it: an event belongs to the step ``(start, end]`` holding it, and an
override to the first step start at or after it.
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
    _exposures_at,
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

# Times within this fraction of a step of a grid point snap to it; absorbs
# the rounding of times written as ``k * step``.
_GRID_TOL = 1e-9


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
    if abs(n_steps - round(n_steps)) > _GRID_TOL:
        raise DataError(
            f"horizon {stream.horizon} is not a whole number of {step_days}-day steps"
        )
    n_steps = int(round(n_steps))
    p = stream.p
    # event i lies in step bins[i], whose (start, end] holds it; its grid
    # position is that step's end, bins[i] + 1
    bins = np.ceil(stream.times / step_days - _GRID_TOL).astype(np.int64) - 1
    bins = np.clip(bins, 0, n_steps - 1)
    boundary_pos = None
    if stream.boundary_times is not None:
        boundary_pos = np.ceil(stream.boundary_times / step_days - _GRID_TOL)
    exposures = _exposures_at(stream, np.arange(n_steps), bins + 1, boundary_pos)
    flat = (bins * p + stream.sources) * p + stream.targets
    counts = np.bincount(flat, minlength=n_steps * p * p).reshape(n_steps, p, p)
    stayers = exposures - counts.sum(axis=2)
    short = np.argwhere(stayers < 0)
    if short.size:
        t, j = (int(x) for x in short[0])
        raise DataError(f"step {t}: more departures from rating {j} than exposure")
    diagonal = np.arange(p)
    counts[:, diagonal, diagonal] = stayers
    return MigrationPanel(exposures, counts, step_length_days=step_days)


def _intensity_load(law: MigrationLaw, exposures: np.ndarray) -> np.ndarray:
    """Aggregate jump intensity (exposure-weighted sum of off-diagonal
    intensities) if the hidden state were ``h``, for each ``h`` and each row
    of ``exposures``; states loading more than the filtered average lose mass
    while nothing jumps."""
    off = ~np.eye(law.p, dtype=bool)
    rates = law.per_state * exposures[..., None, :, None]
    return np.where(off, rates, 0.0).sum(axis=(-2, -1))


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
    posterior, _ = _bayes_jump(state.probs, law.per_state[:, j, k])
    if posterior is None:
        raise ImpossibleObservationError(
            f"transition {j}->{k} has zero intensity under every hidden state "
            "carrying filter mass",
            time_index=state.time_index,
            transitions=[(j, k)],
        )
    return FilterState(posterior, time_index=state.time_index)


def _bayes_jump(probs: np.ndarray, column: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Reweight ``probs`` by the per-state intensity ``column`` of an observed
    transition.  Returns the posterior and the mixture intensity
    ``probs @ column``; the posterior is ``None`` when that intensity is not
    positive."""
    intensity = float(probs @ column)
    if intensity <= 0.0:
        return None, intensity
    return renormalize(probs * column / intensity), intensity


def run_continuous_filter(
    events: EventStream,
    factor: HiddenFactorSpec,
    law: MigrationLaw,
    grid_dt: float = 0.1,
    report_dt: float | None = None,
) -> FilterTrajectory:
    """Filter the hidden factor through a dated event stream.

    Integration alternates drift segments (never longer than ``grid_dt`` or
    the time to the next event) with jump updates at event times.  The law
    is emitted on the reporting grid (every ``report_dt``, default
    ``grid_dt``) together with a transition-probability forecast obtained by
    linearizing each state's intensity matrix over the reporting interval
    and mixing with the current filtered law.  Per reporting interval, the
    chain-drift and observation-driven parts of the law's movement are
    recorded separately.
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
    probs = factor.pi.copy()

    horizon = float(events.horizon)
    n_intervals = max(1, math.ceil(round(horizon / report_dt, 9)))
    report_times = np.minimum(np.arange(1, n_intervals + 1) * report_dt, horizon)

    step_matrices = np.array([generator_to_transition(g, report_dt) for g in law.per_state])

    # exposures change only at event and boundary times (the knots):
    # loads[i] is in force from knots[i - 1] to knots[i]
    knots = events.times
    if events.boundary_times is not None:
        knots = np.union1d(knots, events.boundary_times)
    loads = _intensity_load(law, _exposures_at(events, np.concatenate(([-np.inf], knots))))
    pre_jump = _exposures_at(events, np.nextafter(events.times, -np.inf))
    # row i + 1 holds the law at the end of reporting interval i
    laws = np.empty((n_intervals + 1, factor.m))
    laws[0] = probs
    times = np.concatenate(([0.0], report_times))
    pred_parts = np.zeros((n_intervals, factor.m))
    loglik = 0.0
    interval = 0
    e = 0
    t = 0.0
    eps = 1e-12
    while t < horizon - eps:
        passed = int(np.searchsorted(knots, t + eps, side="right"))
        stops = [report_times[interval], horizon]
        if e < events.n_events:
            stops.append(float(events.times[e]))
        if passed < knots.shape[0]:
            stops.append(float(knots[passed]))
        stop = min(stops)
        if stop > t + eps:
            probs, chain_part, intensity_int = _integrate_drift(
                probs, stop - t, factor.trans, loads[passed], max_h=grid_dt
            )
            pred_parts[interval] += chain_part
            loglik -= intensity_int
        t = stop

        if e < events.n_events and events.times[e] <= t + eps:
            j, k = int(events.sources[e]), int(events.targets[e])
            posterior, intensity = _bayes_jump(probs, law.per_state[:, j, k])
            event_intensity = pre_jump[e, j] * intensity
            if posterior is None or event_intensity <= 0.0:
                raise ImpossibleObservationError(
                    f"event {e} ({j}->{k} at t={t}) has zero predicted intensity",
                    time_index=t,
                    transitions=[(j, k)],
                )
            loglik += float(np.log(event_intensity))
            probs = posterior
            e += 1
        if report_times[interval] <= t + eps:
            interval += 1
            laws[interval] = probs
            if interval == n_intervals:
                break
    if interval < n_intervals:
        # horizon reached mid-interval (only possible with degenerate grids)
        laws[interval + 1 :] = probs
        times[-1] = horizon
    return FilterTrajectory(
        probs=laws,
        time_index=times,
        predicted_ratios=np.array([np.tensordot(row, step_matrices, axes=1) for row in laws[:-1]]),
        loglik=loglik,
        prediction_parts=pred_parts,
        correction_parts=np.diff(laws, axis=0) - pred_parts,
    )
