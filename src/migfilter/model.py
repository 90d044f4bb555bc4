"""Core model types: hidden economic factor, conditional migration laws,
aggregated observation panels and filter states.

All containers are immutable after construction (arrays are set read-only),
so they can be shared freely across threads; every operation in the package
is a pure function of its inputs.

Conventions used throughout the package:

* hidden states are anonymous integers ``0..m-1``,
* rating categories are integers ``0..p-1``, ordered from best to worst
  (whether the last one is absorbing is entirely up to the matrices),
* ``trans`` is a row-stochastic one-step matrix ``K`` in discrete mode and
  an intensity matrix (generator, rows sum to zero) in continuous mode,
* panel step ``t`` is driven by the hidden state at the *start* of the step
  (one-step response lag between the factor and the ratings).
"""

from __future__ import annotations

import enum
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ModelError

__all__ = [
    "Mode",
    "HiddenFactorSpec",
    "MigrationLaw",
    "MigrationPanel",
    "FilterState",
    "EventStream",
    "validate_model",
    "predict_transition_probs",
    "generator_to_transition",
    "transition_to_generator",
    "risk_scores",
    "sort_states_by_risk",
    "model_to_json",
    "model_from_json",
]

_SUM_TOL = 1e-12
_RENORM_TRIGGER = 1e-13
# Times within this fraction of a step of a grid point snap to it; absorbs
# the rounding of times written as ``k * step``.
_GRID_TOL = 1e-9


class Mode(str, enum.Enum):
    """Time convention of a model: one-step matrices or intensity matrices."""

    DISCRETE = "discrete"
    CONTINUOUS = "continuous"


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _freeze_int(a: np.ndarray, name: str) -> np.ndarray:
    """``a`` as frozen int64; whole-valued floats pass, any other value is
    a :class:`DataError` naming ``name``."""
    a = np.asarray(a)
    if a.dtype.kind == "f":
        bad = ~np.isfinite(a) | (a != np.round(a))
        if np.any(bad):
            raise DataError(f"{name} must hold whole numbers, got {float(a[bad][0])!r}")
    out = np.array(a, dtype=np.int64, copy=True)
    out.setflags(write=False)
    return out


def _whole(value, name: str, least: int) -> int:
    """``value``, an integer or a whole-valued float of at least ``least``,
    as an ``int``; any other value is a :class:`DataError` naming ``name``."""
    real = isinstance(value, numbers.Real)
    whole = isinstance(value, numbers.Integral) or real and float(value).is_integer()
    if not whole or value < least:
        raise DataError(f"{name} must be a whole number of at least {least}, got {value!r}")
    return int(value)


def _positive(value, name: str):
    """``value`` unchanged if a finite real above 0, else a :class:`DataError` naming ``name``."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
        raise DataError(f"{name} must be positive and finite, got {value!r}")
    return value


def renormalize(probs: np.ndarray) -> np.ndarray:
    """Project near-probability vectors on the last axis onto the simplex.

    Tiny negative entries from floating-point arithmetic are clipped to 0;
    a vector is rescaled only when its sum drifts further than 1e-13 from 1,
    so exact results pass through bit-identically.
    """
    probs = np.where(probs < 0.0, 0.0, probs)
    total = probs.sum(axis=-1)
    drift = abs(total - 1.0) > _RENORM_TRIGGER
    if drift.any():
        if np.any(total <= 0.0):
            raise ModelError("probability vector has collapsed to zero mass")
        probs = np.where(drift[..., None], probs / total[..., None], probs)
    return probs


def _checked_laws(probs, name: str) -> np.ndarray:
    """Filtered laws on the last axis, checked (finite, no entry below
    -1e-10, sums within 1e-10 of 1; ``name`` opens every message), passed
    through :func:`renormalize` and frozen."""
    probs = np.asarray(probs, dtype=float)
    if not np.isfinite(probs).all():
        raise ModelError(f"{name} has non-finite probabilities")
    if np.any(probs < -1e-10):
        raise ModelError(f"{name} has negative probabilities")
    sums = probs.sum(axis=-1)
    off = np.abs(sums - 1.0) > 1e-10
    if np.any(off):
        raise ModelError(f"{name} probabilities sum to {sums[off][0]!r}, expected 1")
    return _freeze(renormalize(probs))


def _kernel_violations(name: str, mat: np.ndarray, mode: Mode) -> list[str]:
    """Violations of one one-step matrix (no negative entry, rows sum to 1)
    or, in continuous mode, intensity matrix (no negative off-diagonal
    entry, rows sum to 0), all entries finite; ``name`` opens every
    message."""
    if not np.isfinite(mat).all():
        return [f"{name} has non-finite entries"]
    if mode is Mode.DISCRETE:
        checked, what, target = mat, "entries", 1.0
    else:
        checked, what, target = mat[~np.eye(len(mat), dtype=bool)], "off-diagonal entries", 0.0
    out = [f"{name} has negative {what}"] if np.any(checked < 0) else []
    return out + [
        f"{name} row {i} sums to {row_sum!r}, expected {target:g}"
        for i, row_sum in enumerate(mat.sum(axis=1).tolist())
        if abs(row_sum - target) > _SUM_TOL
    ]


@dataclass(frozen=True)
class HiddenFactorSpec:
    """Finite-state hidden economic factor.

    Parameters
    ----------
    pi : array_like, shape (m,)
        Initial law of the hidden state.
    trans : array_like, shape (m, m)
        Row-stochastic one-step matrix (discrete mode) or intensity matrix
        with nonnegative off-diagonals and zero row sums (continuous mode).
    mode : Mode
    """

    pi: np.ndarray
    trans: np.ndarray
    mode: Mode = Mode.DISCRETE

    def __post_init__(self):
        object.__setattr__(self, "pi", _freeze(np.atleast_1d(self.pi)))
        object.__setattr__(self, "trans", _freeze(np.atleast_2d(self.trans)))
        object.__setattr__(self, "mode", Mode(self.mode))

    @property
    def m(self) -> int:
        return self.pi.shape[0]

    def violations(self) -> list[str]:
        """All invariant violations of this factor (empty list = valid)."""
        m = self.m
        if self.trans.shape != (m, m):
            return [f"factor: trans has shape {self.trans.shape}, expected {(m, m)}"]
        kernel = _kernel_violations("factor: trans", self.trans, self.mode)
        if not np.isfinite(self.pi).all():
            return ["factor: pi has non-finite entries"] + kernel
        out = ["factor: pi has negative entries"] if np.any(self.pi < 0) else []
        s = float(self.pi.sum())
        if abs(s - 1.0) > _SUM_TOL:
            out.append(f"factor: pi sums to {s!r}, expected 1")
        return out + kernel


@dataclass(frozen=True)
class MigrationLaw:
    """Per-hidden-state rating migration matrices.

    ``per_state[h]`` is the p x p one-step transition matrix (discrete mode)
    or intensity matrix (continuous mode) common to every entity while the
    hidden factor sits in state ``h``.
    """

    per_state: np.ndarray
    mode: Mode = Mode.DISCRETE

    def __post_init__(self):
        arr = np.asarray(self.per_state, dtype=float)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ModelError(
                f"per_state must have shape (m, p, p), got {arr.shape}"
            )
        object.__setattr__(self, "per_state", _freeze(arr))
        object.__setattr__(self, "mode", Mode(self.mode))

    @property
    def n_states(self) -> int:
        return self.per_state.shape[0]

    @property
    def p(self) -> int:
        return self.per_state.shape[1]

    def violations(self) -> list[str]:
        return [
            problem
            for h, mat in enumerate(self.per_state)
            for problem in _kernel_violations(f"law: state {h} matrix", mat, self.mode)
        ]


@dataclass(frozen=True)
class MigrationPanel:
    """Aggregated migration observations on a regular time grid.

    ``exposures[t, j]`` counts the entities holding rating ``j`` when
    interval ``t`` opens; ``counts[t, j, k]`` counts those among them holding
    ``k`` when it closes (the diagonal holds the stayers).  Every exposed
    entity either stays or moves, so ``counts[t, j].sum() == exposures[t, j]``.
    ``step_length_days`` is the interval length, positive and finite; it may
    be fractional, and a whole number of days is kept as an ``int``.
    """

    exposures: np.ndarray
    counts: np.ndarray
    step_length_days: float = 1

    def __post_init__(self):
        exposures = _freeze_int(np.atleast_2d(self.exposures), "exposures")
        object.__setattr__(self, "exposures", exposures)
        object.__setattr__(self, "counts", _freeze_int(self.counts, "counts"))
        if self.counts.ndim != 3 or self.counts.shape[:2] != self.exposures.shape:
            raise DataError(
                "counts must have shape (steps, p, p) matching exposures "
                f"{self.exposures.shape}, got {self.counts.shape}"
            )
        if self.counts.shape[1] != self.counts.shape[2]:
            raise DataError(f"counts must be square per step, got {self.counts.shape}")
        step = float(_positive(self.step_length_days, "step_length_days"))
        # a whole number of days stays an int, as files and reports print it
        object.__setattr__(self, "step_length_days", int(step) if step.is_integer() else step)
        if np.any(self.exposures < 0) or np.any(self.counts < 0):
            raise DataError("exposures and counts must be nonnegative")
        bad = np.nonzero(self.counts.sum(axis=2) != self.exposures)
        if bad[0].size:
            t, j = int(bad[0][0]), int(bad[1][0])
            raise DataError(
                f"conservation violated at step {t}, rating {j}: "
                f"counts sum to {int(self.counts[t, j].sum())} but exposure is "
                f"{int(self.exposures[t, j])}"
            )

    @property
    def steps(self) -> int:
        return self.exposures.shape[0]

    @property
    def p(self) -> int:
        return self.exposures.shape[1]


@dataclass(frozen=True)
class FilterState:
    """Filtered law of the hidden factor at one point in time."""

    probs: np.ndarray
    time_index: float

    def __post_init__(self):
        object.__setattr__(self, "probs", _checked_laws(np.atleast_1d(self.probs), "filter state"))

    @property
    def m(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True)
class EventStream:
    """Individually dated rating transitions on ``[0, horizon]``.

    Event ``i`` moves one entity from ``sources[i]`` to ``targets[i]`` at
    ``times[i]`` (strictly increasing: no simultaneous jumps).  Exposures
    start at ``initial_exposures`` and follow the events; an optional
    boundary track (nondecreasing ``boundary_times``, given together with
    one row of ``boundary_exposures`` each) overrides them at given times,
    which is how entry and censoring at aggregation-step boundaries are
    represented.  Without a track both are empty, of shapes (0,) and (0, p).

    Tie rule: the exposures in force at time ``q`` are those after every
    event at a time ``<= q`` and then the last boundary override at a time
    ``<= q``, so an override replaces the events it coincides with.  Grid
    readers (:func:`~migfilter.continuous.stream_to_panel`, the fine grid of
    :func:`~migfilter.calibrate.em_fit_continuous`) apply the same rule to
    grid indices, snapping by :func:`_grid_positions`.

    A stream is consistent once built: :class:`DataError` refuses event or
    boundary times outside ``(0, horizon]``, and an event that departs from
    a rating holding no exposure just before it.
    """

    times: np.ndarray
    sources: np.ndarray
    targets: np.ndarray
    initial_exposures: np.ndarray
    horizon: float
    boundary_times: np.ndarray | None = None
    boundary_exposures: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "times", _freeze(np.atleast_1d(self.times)))
        for name in ("sources", "targets", "initial_exposures"):
            object.__setattr__(self, name, _freeze_int(np.atleast_1d(getattr(self, name)), name))
        track = (self.boundary_times, self.boundary_exposures)
        missing = [name for name, part in zip(("times", "exposures"), track) if part is None]
        if len(missing) == 1:
            raise DataError(f"boundary times and exposures go together; {missing[0]} are missing")
        times, exposures = ((), ()) if missing else track
        object.__setattr__(self, "boundary_times", _freeze(np.atleast_1d(times)))
        exposures = np.asarray(exposures)
        # an empty list holds no rows, so it reads as shape (0, p), not (1, 0)
        exposures = exposures.reshape(0, self.p) if exposures.shape == (0,) else exposures
        exposures = _freeze_int(np.atleast_2d(exposures), "boundary_exposures")
        object.__setattr__(self, "boundary_exposures", exposures)
        want = (self.boundary_times.shape[0], self.p)
        if self.boundary_exposures.shape != want:
            raise DataError(f"boundary_exposures must have shape {want}, got {exposures.shape}")
        if np.any(np.diff(self.boundary_times) < 0):
            raise DataError("boundary times must be nondecreasing")
        if np.any(self.boundary_exposures < 0):
            raise DataError("boundary_exposures must be nonnegative")
        if np.any(self.initial_exposures < 0):
            raise DataError("initial_exposures must be nonnegative")
        _positive(self.horizon, "horizon")
        for name, when in (("event", self.times), ("boundary", self.boundary_times)):
            if not np.isfinite(when).all():
                raise DataError(f"{name} times must be finite")
            if np.any(when <= 0) or np.any(when > self.horizon):
                raise DataError(f"{name} times must lie in (0, horizon]")
        n = self.times.shape[0]
        if self.sources.shape[0] != n or self.targets.shape[0] != n:
            raise DataError("times, sources and targets must have equal length")
        if n > 1 and np.any(np.diff(self.times) <= 0):
            raise DataError("event times must be strictly increasing")
        if np.any(self.sources == self.targets):
            raise DataError("events must change the rating (source != target)")
        outside = np.setdiff1d(np.concatenate([self.sources, self.targets]), np.arange(self.p))
        if outside.size:
            raise DataError(f"event ratings must lie in [0, {self.p}), got {int(outside[0])}")
        empty = np.flatnonzero(self.exposure_snapshots()[np.arange(n), self.sources] <= 0)
        if empty.size:
            i = int(empty[0])
            raise DataError(
                f"event {i} at t={self.times[i]}: departure from rating "
                f"{int(self.sources[i])} with no exposure"
            )

    @property
    def n_events(self) -> int:
        return self.times.shape[0]

    @property
    def p(self) -> int:
        return self.initial_exposures.shape[0]

    def exposure_snapshots(self) -> np.ndarray:
        """Exposure vector in force just before each event, shape (n, p)."""
        before = np.nextafter(self.times, -np.inf)
        return _exposures_at(self, before, self.times, self.boundary_times)


def _exposures_at(
    stream: EventStream, query: np.ndarray, event_pos: np.ndarray, boundary_pos: np.ndarray
) -> np.ndarray:
    """Exposure vector in force at each query position, shape (len(query), p).

    Every event at a position ``<= q`` applies first, then the last boundary
    override at a position ``<= q``.  Positions (both nondecreasing) are
    the stream's own times or, for grid readers, grid indices.
    """
    n, p = stream.n_events, stream.p
    rows = np.arange(n)
    step = np.zeros((n, p), dtype=np.int64)
    step[rows, stream.sources] = -1
    step[rows, stream.targets] = 1
    # moved[i]: net effect of the first i events
    moved = np.zeros((n + 1, p), dtype=np.int64)
    np.cumsum(step, axis=0, out=moved[1:])
    base = np.broadcast_to(stream.initial_exposures, (len(query), p))
    since = np.zeros(len(query), dtype=np.intp)
    if boundary_pos.size:
        last = np.searchsorted(boundary_pos, query, side="right") - 1
        hit = last >= 0
        base = np.where(hit[:, None], stream.boundary_exposures[last], base)
        since = np.where(hit, np.searchsorted(event_pos, boundary_pos[last], side="right"), 0)
    return base + moved[np.searchsorted(event_pos, query, side="right")] - moved[since]


def _grid_positions(stream: EventStream, step: float) -> tuple[int, np.ndarray, np.ndarray]:
    """A grid of ``step`` over the stream: its number of steps, the step
    ``(start, end]`` holding each event and the grid index of each override,
    the first step start at or after it.  Times within ``1e-9 * step`` of a
    grid point count as on it.  The step must be positive and finite, and
    the horizon a positive whole number of steps."""
    _positive(step, "grid step")
    n_steps = round(stream.horizon / step)
    if n_steps < 1 or abs(stream.horizon / step - n_steps) > _GRID_TOL:
        raise DataError(
            f"horizon {stream.horizon} is not a positive whole number of {step}-day steps"
        )
    bins, boundary_pos = (
        np.ceil(t / step - _GRID_TOL).astype(np.int64)
        for t in (stream.times, stream.boundary_times)
    )
    return n_steps, np.clip(bins - 1, 0, n_steps - 1), boundary_pos


def validate_model(factor: HiddenFactorSpec, law: MigrationLaw) -> list[str]:
    """Collect every invariant violation of a (factor, law) pair.

    Violations are returned as human-readable strings; an empty list means
    the model is valid.  Nothing is raised: broken input is data here.
    """
    return factor.violations() + law.violations() + _pair_violations(factor, law)


def _pair_violations(factor: HiddenFactorSpec, law: MigrationLaw) -> list[str]:
    """Violations of the rule that ``factor`` and ``law`` form one model:
    one matrix per hidden state, and one mode."""
    out = []
    if law.n_states != factor.m:
        out.append(f"law has {law.n_states} per-state matrices but factor has {factor.m} states")
    if law.mode is not factor.mode:
        out.append(f"law mode {law.mode.value} differs from factor mode {factor.mode.value}")
    return out


def _check_model(caller: str, mode: Mode, factor: HiddenFactorSpec | None,
                 law: MigrationLaw | None, width: int | None, p: int | None) -> None:
    """Raise :class:`ModelError`, naming ``caller``, unless each given part
    is valid (:meth:`HiddenFactorSpec.violations`,
    :meth:`MigrationLaw.violations`), ``factor`` and ``law`` form one model
    of ``mode`` (see :func:`_pair_violations`), a filter state of ``width``
    entries fits it and the caller's data (a panel, a stream or a cohort)
    has the law's ``p`` rating classes.  A part given as ``None`` is not
    checked; the factor or the law must be given, and the law with ``p``."""
    model = factor if factor is not None else law
    problems = [] if model.mode is mode else [f"needs {mode.value} mode, got {model.mode.value}"]
    problems += [v for part in (factor, law) if part is not None for v in part.violations()]
    if factor is not None and law is not None:
        problems += _pair_violations(factor, law)
    name, m = ("factor", factor.m) if factor is not None else ("law", law.n_states)
    if width is not None and width != m:
        problems.append(f"{name} has {m} states but filter state has {width}")
    if p is not None and p != law.p:
        problems.append(f"data has {p} rating classes but law has {law.p}")
    if problems:
        raise ModelError(f"{caller}: " + "; ".join(problems))


def predict_transition_probs(law: MigrationLaw, state: FilterState | np.ndarray) -> np.ndarray:
    """Forecast transition probabilities: the filtered mixture of the
    per-state migration matrices, ``sum_h probs[h] * per_state[h]``.

    ``state`` is a :class:`FilterState` or laws of shape (..., m) held to
    its rule, giving shape (..., p, p).  Requires a discrete-mode law;
    convert intensities first with :func:`generator_to_transition`.
    """
    probs = state.probs if isinstance(state, FilterState) else np.asarray(state, dtype=float)
    _check_model("predict_transition_probs", Mode.DISCRETE, None, law, probs.shape[-1], None)
    if not isinstance(state, FilterState):
        _checked_laws(probs, "predict_transition_probs: state")
    return np.einsum("...h,hjk->...jk", probs, law.per_state)


def generator_to_transition(gen: np.ndarray, dt: float) -> np.ndarray:
    """Convert intensity matrices, shape (..., p, p), to ``dt``-step
    probability matrices by the small-step linearization ``I + gen*dt``,
    the inverse of :func:`transition_to_generator`.  Each row passes
    through :func:`renormalize`: a row the step is not small for has its
    negative entries clipped to 0, and a row is rescaled only when its sum
    drifts further than 1e-13 from 1.  So every valid generator gives a
    valid one-step law, however long the step, and the other rows are left
    as they are.
    """
    gen = np.asarray(gen, dtype=float)
    return renormalize(np.eye(gen.shape[-1]) + gen * dt)


def transition_to_generator(mat: np.ndarray, dt: float) -> np.ndarray:
    """Inverse of the linearized conversion: ``(mat - I) / dt``."""
    mat = np.asarray(mat, dtype=float)
    return (mat - np.eye(mat.shape[-1])) / dt


def risk_scores(law: MigrationLaw) -> np.ndarray:
    """Per-hidden-state riskiness: mean downgrade mass of each matrix.

    The score of state ``h`` is the average over rating rows of the total
    probability (or intensity) assigned to strictly worse ratings.  Used to
    order anonymous hidden states stably across calibration restarts.
    """
    p = law.p
    down = np.triu(np.ones((p, p)), k=1)
    return np.einsum("hjk,jk->h", law.per_state, down) / p


def sort_states_by_risk(
    factor: HiddenFactorSpec, law: MigrationLaw
) -> tuple[HiddenFactorSpec, MigrationLaw, np.ndarray]:
    """Relabel hidden states from least to most risky.

    Returns the permuted factor and law plus the permutation used, where
    ``perm[new_index] = old_index``.
    """
    perm = np.argsort(risk_scores(law), kind="stable")
    new_factor = HiddenFactorSpec(
        pi=factor.pi[perm],
        trans=factor.trans[np.ix_(perm, perm)],
        mode=factor.mode,
    )
    new_law = MigrationLaw(per_state=law.per_state[perm], mode=law.mode)
    return new_factor, new_law, perm


def model_to_json(factor: HiddenFactorSpec, law: MigrationLaw, extra: dict | None = None) -> str:
    """Serialize a model to the package's JSON document format."""
    doc = {
        "mode": factor.mode.value,
        "m": factor.m,
        "p": law.p,
        "pi": factor.pi.tolist(),
        "trans": factor.trans.tolist(),
        "law": law.per_state.tolist(),
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2)


def model_from_json(text: str) -> tuple[HiddenFactorSpec, MigrationLaw]:
    """Parse a model JSON document and validate it."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid model JSON: {exc}") from exc
    try:
        mode = Mode(doc["mode"])
        factor = HiddenFactorSpec(pi=doc["pi"], trans=doc["trans"], mode=mode)
        law = MigrationLaw(per_state=doc["law"], mode=mode)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"model JSON missing or malformed field: {exc}") from exc
    if factor.m != doc.get("m", factor.m) or law.p != doc.get("p", law.p):
        raise DataError("model JSON dimensions disagree with its arrays")
    problems = validate_model(factor, law)
    if problems:
        raise ModelError("invalid model: " + "; ".join(problems))
    return factor, law
