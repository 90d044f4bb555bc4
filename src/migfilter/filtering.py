"""Causal discrete-time filtering of the hidden factor from panel counts.

The filter is the forward pass of the calibration E-step
(:func:`migfilter.calibrate.forward_pass`): its normalized rows are the
Bayes-updated laws of the hidden state driving each step, and pushing them
through the hidden chain's transition matrix gives the filtered laws.  The
pass runs as a column-scaled prefix scan with no loop over time, checked
by one exact log-space recursion step per row, so weights hundreds of nats
apart neither underflow nor read as impossible.  The per-state observation
weights are multinomial in each step's migration count matrix, with the
combinatorial coefficients dropped — they cancel in the normalization, and
dropping them keeps the log-likelihood identical to the one the
calibration recursions compute.  A single tracked transition (say, default)
is the two-rating case: performing and defaulted, each state's law row
``[1 - q_h, q_h]``, which makes the weights binomial.

Smoothing (conditioning on the full sample) lives in
:mod:`migfilter.calibrate`; everything here only looks backwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibrate import _forward, _panel_log_weights
from .errors import ModelError
from .model import FilterState, HiddenFactorSpec, MigrationLaw, MigrationPanel, Mode
from .model import _check_model, _checked_laws, _freeze, predict_transition_probs

__all__ = ["FilterTrajectory", "run_filter"]


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
    need ``n_steps + 1`` time indices and ``n_steps`` (p, p) forecasts, or
    :class:`ModelError` is raised.

    Continuous runs additionally report, per reporting interval, how much of
    the filtered law's movement came from the hidden chain's own drift
    (``prediction_parts``, shape (n_steps, m)); the rest of the movement
    came from the observation updates (``correction_parts``, derived).
    """

    probs: np.ndarray
    time_index: np.ndarray
    predicted_ratios: np.ndarray
    loglik: float
    prediction_parts: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "probs", _checked_laws(np.atleast_2d(self.probs), "filter state"))
        object.__setattr__(self, "time_index", _freeze(self.time_index))
        object.__setattr__(self, "predicted_ratios", _freeze(self.predicted_ratios))
        if self.prediction_parts is not None:
            object.__setattr__(self, "prediction_parts", _freeze(self.prediction_parts))
        n, m = self.n_steps, self.probs.shape[1]
        ratios, parts = self.predicted_ratios.shape, self.prediction_parts
        if len(ratios) != 3 or ratios[1] != ratios[2]:
            raise ModelError(f"predicted_ratios must have shape (steps, p, p), got {ratios}")
        if parts is not None and parts.shape[1:] != (m,):
            raise ModelError(f"prediction_parts must have shape (steps, {m}), got {parts.shape}")
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
    _check_model("run_filter", Mode.DISCRETE, factor, law, None, panel.p)
    probs = _checked_laws(factor.pi, "filter state")[None, :]
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
