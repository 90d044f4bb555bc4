"""Causal discrete-time filtering of the hidden factor from panel counts.

The filter is the forward pass of the calibration E-step
(:func:`migfilter.calibrate.forward_pass`): its normalized rows are the
Bayes-updated laws of the hidden state driving each step, and pushing them
through the hidden chain's transition matrix gives the filtered laws.  The
pass runs as a column-scaled prefix scan with no loop over time, checked
by one exact log-space recursion step per row, so weights hundreds of nats
apart neither underflow nor read as impossible.  The per-state observation
weights are binomial (single tracked transition) or multinomial (full
migration matrix) with the combinatorial coefficients dropped — they
cancel in the normalization, and dropping them keeps the log-likelihood
identical to the one the calibration recursions compute.

Smoothing (conditioning on the full sample) lives in
:mod:`migfilter.calibrate`; everything here only looks backwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibrate import _forward, _panel_log_weights
from .errors import DataError, ImpossibleObservationError, ModelError
from .model import FilterState, HiddenFactorSpec, MigrationLaw, MigrationPanel, Mode
from .model import _checked_laws, _freeze, predict_transition_probs

__all__ = [
    "FilterTrajectory",
    "filter_step_univariate",
    "filter_step_multivariate",
    "run_filter",
]


@dataclass(frozen=True)
class FilterTrajectory:
    """Output of a filtering run.

    ``probs[t]`` is the filtered law at grid time ``time_index[t]`` (row 0
    the initial law); every array is read-only, and every row of ``probs``
    is checked and projected onto the simplex by the rule of
    :class:`FilterState`.
    ``predicted_ratios[t]`` is the (p, p) forecast issued *before* observing
    step ``t``; ``loglik`` sums each observed step's log-probability under
    the one-step-ahead predictive law.  ``n_steps + 1`` rows of ``probs``
    need ``n_steps + 1`` time indices and ``n_steps`` forecasts, or
    :class:`ModelError` is raised.

    Continuous runs additionally report, per reporting interval, how much of
    the filtered law's movement came from the hidden chain's own drift
    (``prediction_parts``, ``n_steps`` rows); the rest of the movement came
    from the observation updates (``correction_parts``, derived).
    """

    probs: np.ndarray
    time_index: np.ndarray
    predicted_ratios: np.ndarray
    loglik: float
    prediction_parts: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "probs", _checked_laws(np.atleast_2d(self.probs)))
        object.__setattr__(self, "time_index", _freeze(self.time_index))
        object.__setattr__(self, "predicted_ratios", _freeze(self.predicted_ratios))
        if self.prediction_parts is not None:
            object.__setattr__(self, "prediction_parts", _freeze(self.prediction_parts))
        n = self.n_steps
        if self.time_index.shape != (n + 1,):
            raise ModelError(
                f"{n + 1} filtered laws need {n + 1} time indices, "
                f"got shape {self.time_index.shape}"
            )
        for name in ("predicted_ratios", "prediction_parts"):
            rows = getattr(self, name)
            if rows is not None and len(rows) != n:
                raise ModelError(f"{n + 1} filtered laws need {n} rows of {name}, got {len(rows)}")

    @property
    def n_steps(self) -> int:
        return self.probs.shape[0] - 1

    @property
    def correction_parts(self) -> np.ndarray | None:
        """Per reporting interval, the law's movement minus the chain's
        drift; ``None`` without ``prediction_parts``."""
        if self.prediction_parts is None:
            return None
        return np.diff(self.probs, axis=0) - self.prediction_parts

    @property
    def states(self) -> tuple[FilterState, ...]:
        """The rows as :class:`FilterState` objects, built on each access."""
        return tuple(map(FilterState, self.probs, self.time_index.tolist()))

    def probs_matrix(self) -> np.ndarray:
        """Filtered probabilities as an array of shape (n_steps + 1, m)."""
        return self.probs

    def times(self) -> np.ndarray:
        return self.time_index


def _univariate_log_weights(d_n: int, y: int, jump_probs: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        log_l = np.log(jump_probs)
        log_1ml = np.log1p(-jump_probs)
    w = np.zeros_like(jump_probs)
    if d_n > 0:
        w = w + d_n * log_l
    if y - d_n > 0:
        w = w + (y - d_n) * log_1ml
    return w


def _one_step(state: FilterState, log_w: np.ndarray, trans: np.ndarray) -> FilterState:
    """One forward step from ``state``: Bayes update by ``log_w``, then the
    hidden chain; errors carry the state's time index."""
    try:
        fwd = _forward(log_w[None, :], state.probs, trans)
    except ImpossibleObservationError as exc:
        exc.time_index = state.time_index
        raise
    return FilterState(fwd.alpha[0] @ trans, time_index=state.time_index + 1)


def filter_step_univariate(
    state: FilterState,
    d_n: int,
    y: int,
    factor: HiddenFactorSpec,
    jump_probs: np.ndarray,
) -> FilterState:
    """Assimilate one step of a single tracked transition.

    ``d_n`` of the ``y`` exposed entities jumped this step; ``jump_probs[h]``
    is the per-entity jump probability under hidden state ``h``.  The update
    reweights the current law by the binomial likelihood (coefficient
    dropped) and then applies the hidden chain's transition matrix.
    """
    jump_probs = np.asarray(jump_probs, dtype=float)
    if not 0 <= d_n <= y:
        raise DataError(f"need 0 <= d_n <= y, got d_n={d_n}, y={y}")
    if factor.mode is not Mode.DISCRETE:
        raise ModelError("filter_step_univariate requires a discrete-mode factor")
    w = _univariate_log_weights(int(d_n), int(y), jump_probs)
    return _one_step(state, w, factor.trans)


def filter_step_multivariate(
    state: FilterState,
    d_n: np.ndarray,
    y: np.ndarray,
    factor: HiddenFactorSpec,
    law: MigrationLaw,
) -> FilterState:
    """Assimilate one panel step of the full migration count matrix.

    The per-state weight is the multinomial likelihood of ``d_n`` given
    exposures ``y`` (coefficients dropped, computed in log space); the prior
    is reweighted and pushed through the hidden chain.
    """
    if factor.mode is not Mode.DISCRETE or law.mode is not Mode.DISCRETE:
        raise ModelError("filter_step_multivariate requires discrete mode")
    step = MigrationPanel(np.asarray(y)[None], np.asarray(d_n)[None])
    return _one_step(state, _panel_log_weights(step, law.per_state)[0], factor.trans)


def run_filter(
    panel: MigrationPanel,
    factor: HiddenFactorSpec,
    law: MigrationLaw,
) -> FilterTrajectory:
    """Filter the hidden factor through a whole panel.

    Row ``t`` of the trajectory is the filtered law after assimilating
    steps ``1..t`` (row 0 is the factor's ``pi``).  Because step ``t``'s
    moves are driven by the hidden state at the step's start, the forecast
    for step ``t`` mixes the migration matrices with row ``t-1`` directly —
    no extra chain propagation.

    Raises :class:`~migfilter.errors.ImpossibleObservationError` at the
    first step no reachable hidden state can explain, and, like
    :func:`~migfilter.calibrate.forward_pass`,
    :class:`~migfilter.errors.NumericalError` when the scan loses precision
    (the command-line tools exit with code 3).
    """
    if factor.mode is not Mode.DISCRETE or law.mode is not Mode.DISCRETE:
        raise ModelError("run_filter requires discrete mode")
    if law.n_states != factor.m:
        raise ModelError("law/factor state counts disagree")
    if panel.p != law.p:
        raise ModelError(f"panel has {panel.p} rating classes, law has {law.p}")
    probs = _checked_laws(factor.pi)[None, :]
    loglik = 0.0
    if panel.steps:
        fwd = _forward(_panel_log_weights(panel, law.per_state), probs[0], factor.trans)
        probs = np.vstack([probs, fwd.alpha @ factor.trans])
        loglik = fwd.loglik
    return FilterTrajectory(
        probs=probs,
        time_index=np.arange(panel.steps + 1),
        predicted_ratios=predict_transition_probs(law, probs[:-1]),
        loglik=loglik,
    )
