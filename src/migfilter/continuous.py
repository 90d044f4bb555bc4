"""Continuous-time filtering over dated migration events.

Between events the filtered law follows a drift ODE: the hidden chain's own
Kolmogorov drift plus a no-news term that bleeds probability away from
states whose predicted aggregate jump intensity exceeds the average.  Each
observed migration applies a closed-form Bayes reweighting by the per-state
intensity of that transition.  The drift is an explicit Euler walk whose
substeps between two stops share one length ``h``: each is
``p <- M p + h (ℓ·p) p`` with ``M = I + h (Kᵀ - diag ℓ)`` built once per
stop (generator ``K``, per-state aggregate jump intensity ``ℓ``), and the
drift part and intensity integral are ``h Kᵀ Σp`` and ``h ℓ·Σp`` over the
laws the substeps start from.  Both steps work on vectors of ``m`` hidden
states, a handful of entries, where each numpy call would cost far more in
per-call overhead than in arithmetic; so their kernels,
:func:`_integrate_drift` and :func:`_bayes_jump`, run on Python floats, and
the filter converts its inputs to lists once per run.

Daily panels violate the no-simultaneous-jumps assumption this filter needs,
so :func:`spread_jumps` redistributes each step's jumps onto distinct random
subintervals first; re-aggregating the result reproduces the original
off-diagonal counts exactly.

Every reader of a stream takes its exposures from one walker with one tie
rule: at a given time (or grid index) every event at or before it applies
first, then the last boundary override at or before it.  The filter
compares times exactly, orders equal times as event, override, report and
reports up to the horizon.  Only the grid readers (:func:`stream_to_panel`
and the picker EM's fine grid) snap, by one rule: on a grid of step ``d``,
times within ``1e-9 * d`` of a grid point count as on it, so an event falls
in the step ``(start, end]`` holding it and an override at the first step
start at or after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, mul

import numpy as np

from .errors import DataError, ImpossibleObservationError, ModelError
from .filtering import FilterTrajectory
from .model import (
    EventStream,
    HiddenFactorSpec,
    MigrationLaw,
    MigrationPanel,
    Mode,
    _RENORM_TRIGGER,
    _check_model,
    _exposures_at,
    _grid_positions,
    _positive,
    _whole,
    generator_to_transition,
    predict_transition_probs,
)

__all__ = [
    "SpreadConfig",
    "spread_jumps",
    "stream_to_panel",
    "run_continuous_filter",
]

# Largest (rate * dt) an explicit Euler substep is allowed to take; keeps the
# update on the simplex with a wide margin.
_MAX_EULER_MASS = 0.2
# Substep laws an Euler walk keeps before folding them into its running sum.
_FOLD_EVERY = 1024


@dataclass(frozen=True)
class SpreadConfig:
    """How to redistribute same-step jumps onto a finer grid.

    ``subintervals_per_step`` must be a whole number exceeding the largest
    per-step jump total, so that every jump can get its own slot.
    """

    subintervals_per_step: int
    seed: int = 0

    def __post_init__(self):
        for name, least in (("subintervals_per_step", 1), ("seed", 0)):
            object.__setattr__(self, name, _whole(getattr(self, name), name, least))


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
    # per step: the jumps' slot midpoints, then their (source, target)
    # labels ``source * p + target`` in shuffled order
    jump_cells = panel.counts.reshape(panel.steps, p * p) * off.ravel()
    times, labels = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    for t in np.flatnonzero(per_step_jumps):
        slots = rng.choice(cfg.subintervals_per_step, size=per_step_jumps[t], replace=False)
        times.append(t * d + (np.sort(slots) + 0.5) * slot_width)
        labels.append(rng.permutation(np.repeat(np.arange(p * p), jump_cells[t])))
    sources, targets = np.divmod(np.concatenate(labels), p)
    return EventStream(
        times=np.concatenate(times),
        sources=sources,
        targets=targets,
        initial_exposures=panel.exposures[0],
        horizon=panel.steps * d,
        boundary_times=np.arange(1, panel.steps) * d,
        boundary_exposures=panel.exposures[1:],
    )


def stream_to_panel(stream: EventStream, step_days: float) -> MigrationPanel:
    """Aggregate an event stream onto a regular grid (inverse of spreading).

    The step must be positive and finite, and the horizon a whole number
    of steps.  Exposures are taken at step starts; each event adds one
    off-diagonal count to its step and the diagonal absorbs the stayers, so
    conservation holds by construction.
    """
    n_steps, bins, boundary_pos = _grid_positions(stream, step_days)
    p = stream.p
    # event i lies in step bins[i]; its grid position is that step's end
    exposures = _exposures_at(stream, np.arange(n_steps), bins + 1, boundary_pos)
    flat = (bins * p + stream.sources) * p + stream.targets
    counts = np.bincount(flat, minlength=n_steps * p * p).reshape(n_steps, p, p)
    stayers = exposures - counts.sum(axis=2)
    short = np.argwhere(stayers < 0)
    if short.size:
        t, j = (int(x) for x in short[0])
        # a consistent stream falls short past a snapped override or a second move
        late = (boundary_pos == t + 1) & (stream.boundary_times < stream.times[bins == t].max())
        cause = f"an entity moved more than once within step {t}"
        if late.any():
            cause = (f"the override at t={stream.boundary_times[late][0]} snaps to the end "
                     f"of step {t}, after the events it precedes")
        raise DataError(
            f"step {t}: more departures from rating {j} than exposure at its start: "
            f"{cause}; aggregate with a finer step_days"
        )
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


def _drift_inputs(
    trans: np.ndarray, loads: np.ndarray
) -> tuple[list[list[float]], list[list[float]], list[float]]:
    """The float inputs of :func:`_integrate_drift` for each row of
    ``loads``: the rows of ``trans.T``, the load rows and each row's rate
    scale, the fastest exit rate of the chain plus the largest load."""
    exit_rate = np.max(-np.diag(trans), initial=0.0)
    scales = exit_rate + np.max(loads, axis=-1, initial=0.0)
    return trans.T.tolist(), loads.tolist(), scales.tolist()


def _renormalized(probs: list[float]) -> list[float]:
    """:func:`~migfilter.model.renormalize` on a list of floats: entries
    below 0 are clipped to 0, and the list is rescaled only when its sum
    drifts further than 1e-13 from 1.  The clipping pass runs only when
    ``min`` is not at least 0: ``min`` of a list with a negative entry is
    that entry or a NaN, so the test is safe with NaNs."""
    if not min(probs) >= 0.0:
        probs = [0.0 if x < 0.0 else x for x in probs]
    total = sum(probs)
    if abs(total - 1.0) > _RENORM_TRIGGER:
        if total <= 0.0:
            raise ModelError("probability vector has collapsed to zero mass")
        probs = [x / total for x in probs]
    return probs


def _integrate_drift(
    probs: list[float],
    dt: float,
    trans_t: list[list[float]],
    load: list[float],
    rate_scale: float,
    max_h: float,
) -> tuple[list[float], list[float], float]:
    """Euler-integrate the drift ODE; also accumulate the chain-drift part
    and the predicted aggregate intensity integral (for the log-likelihood).

    ``trans_t``, ``load`` and ``rate_scale`` come from :func:`_drift_inputs`.
    Substeps never exceed ``max_h`` (the caller's grid cap) nor the
    stability bound tied to ``rate_scale``, the fastest rate in play.  All
    substeps share their length ``h``, so each is ``p <- M p + h (ℓ·p) p``,
    renormalized, with ``M = I + h (Kᵀ - diag ℓ)`` built once per call.
    The drift part ``h Kᵀ Σp`` and the intensity integral ``h ℓ·Σp`` are
    linear in the laws the substeps start from, so they are formed once
    from ``Σp``; the laws are kept and folded into one running sum every
    ``_FOLD_EVERY`` substeps, so a long stop holds bounded memory.  The
    walk runs on Python floats: on vectors of ``m`` entries each numpy call
    costs more in per-call overhead than in arithmetic.
    """
    n_sub = max(1, math.ceil(dt * rate_scale / _MAX_EULER_MASS))
    if max_h < dt:
        n_sub = max(n_sub, math.ceil(round(dt / max_h, 9)))
    h = dt / n_sub
    h_load = [h * q for q in load]
    step = [[h * k for k in row] for row in trans_t]
    for i, row in enumerate(step):
        row[i] += 1.0 - h_load[i]
    kept = []
    for done in range(0, n_sub, _FOLD_EVERY):
        for _ in range(min(_FOLD_EVERY, n_sub - done)):
            kept.append(probs)
            no_news = sum(map(mul, h_load, probs))
            probs = _renormalized(
                [sum(map(mul, row, probs)) + no_news * x for row, x in zip(step, probs)]
            )
        # fold the kept laws into one entry, their sum
        kept = [list(map(sum, zip(*kept)))]
    (law_sum,) = kept
    chain_part = [sum(map(mul, row, law_sum)) * h for row in trans_t]
    return probs, chain_part, sum(map(mul, h_load, law_sum))


def _bayes_jump(probs: list[float], column: list[float]) -> tuple[list[float] | None, float]:
    """Reweight ``probs`` by the per-state intensity ``column`` of an observed
    transition.  Returns the posterior and the mixture intensity
    ``probs @ column``; the posterior is ``None`` when that intensity is not
    positive.  Works on Python floats, as :func:`_integrate_drift` does."""
    intensity = sum(map(mul, probs, column))
    if intensity <= 0.0:
        return None, intensity
    return _renormalized([x * c / intensity for x, c in zip(probs, column)]), intensity


def run_continuous_filter(
    events: EventStream,
    factor: HiddenFactorSpec,
    law: MigrationLaw,
    grid_dt: float,
    report_dt: float,
) -> FilterTrajectory:
    """Filter the hidden factor through a dated event stream.

    The law drifts between stops (Euler substeps no longer than
    ``grid_dt``): event, boundary and report times, compared exactly with
    no snapping; at equal times an event applies, then an override, then
    the report.  Reports fall every ``report_dt`` and at the horizon, each
    with a transition-probability forecast: :func:`predict_transition_probs`
    of the law and each state's intensity matrix linearized over
    ``report_dt``.  Per reporting interval, the chain-drift and
    observation-driven parts of the law's movement are recorded separately.
    """
    _positive(grid_dt, "grid_dt")
    _positive(report_dt, "report_dt")
    _check_model("run_continuous_filter", Mode.CONTINUOUS, factor, law, None, events.p)
    horizon = float(events.horizon)
    n_intervals = max(1, math.ceil(round(horizon / report_dt, 9)))
    report_times = np.append(np.arange(1, n_intervals) * report_dt, horizon)

    # exposures change only at event and boundary times (the knots); row i
    # of ``exposures`` is in force from knots[i - 1] to knots[i]
    knots = np.union1d(events.times, events.boundary_times)
    query = np.concatenate(([-np.inf], knots))
    exposures = _exposures_at(events, query, events.times, events.boundary_times)
    stops = np.union1d(knots, report_times)
    stops = stops[(stops > 0.0) & (stops <= horizon)]
    # per stop: the exposure row in force since the previous stop (so just
    # before an event at it), its event if any, and its reporting interval
    rows = np.searchsorted(knots, stops)
    event_at = np.searchsorted(events.times, stops)
    interval_of = np.searchsorted(report_times, stops)

    # the walk below runs on Python floats (see _integrate_drift)
    trans_t, loads, scales = _drift_inputs(factor.trans, _intensity_load(law, exposures))
    exposure_rows = exposures.tolist()
    columns = law.per_state.transpose(1, 2, 0).tolist()  # [j][k]: each state's j->k
    times, sources, targets = (a.tolist() for a in (events.times, events.sources, events.targets))
    reports = report_times.tolist()
    # row i + 1 holds the law at the end of reporting interval i
    laws = np.empty((n_intervals + 1, factor.m))
    laws[0] = factor.pi
    probs = factor.pi.tolist()
    pred_parts = [[0.0] * factor.m for _ in range(n_intervals)]
    loglik = 0.0
    t = 0.0
    for stop, row, e, interval in zip(
        stops.tolist(), rows.tolist(), event_at.tolist(), interval_of.tolist()
    ):
        probs, chain_part, intensity_int = _integrate_drift(
            probs, stop - t, trans_t, loads[row], scales[row], grid_dt
        )
        pred_parts[interval] = list(map(add, pred_parts[interval], chain_part))
        loglik -= intensity_int
        t = stop
        if e < len(times) and times[e] == stop:
            j, k = sources[e], targets[e]
            # a consistent stream holds exposure in ``j`` just before the event
            posterior, intensity = _bayes_jump(probs, columns[j][k])
            if posterior is None:
                raise ImpossibleObservationError(
                    f"event {e} ({j}->{k} at t={t}) has zero predicted intensity",
                    time_index=t,
                )
            loglik += math.log(exposure_rows[row][j] * intensity)
            probs = posterior
        if reports[interval] == stop:
            laws[interval + 1] = probs
    return FilterTrajectory(
        probs=laws,
        time_index=np.concatenate(([0.0], report_times)),
        predicted_ratios=predict_transition_probs(
            MigrationLaw(generator_to_transition(law.per_state, report_dt)), laws[:-1]
        ),
        loglik=loglik,
        prediction_parts=np.array(pred_parts),
    )
