"""EM calibration of the hidden factor and migration laws.

The E-step evaluates the forward/backward recursions over the panel's
aggregated per-step likelihood weights without a loop over time.  Each
recursion is a product of per-step matrices (``diag(g_t) K^T`` forward,
``K diag(g_t)`` backward), so all its steps at once are the inclusive
prefix products of that sequence.  They come from a work-efficient
parallel-prefix scan (Sarkka & Garcia-Fernandez, 2021): pair neighbours,
scan the pairs, fill in the rest, one batched matrix product per level.
Every column of every product carries its own log-scale, so columns
hundreds of orders of magnitude apart never underflow against each other.
One exact recursion step in log space from every scanned row then gives
the normalized rows and their per-step log-scales (so samples thousands
of steps long cannot underflow), decides impossible observations, and
checks the scan.  The smoothing posteriors follow in one broadcast.  The
discrete M-step is closed form.

The restarts of a multi-start fit run in lockstep: their parameters are
stacked on a leading axis, and every E-step and M-step function takes
such leading axes (through ``...`` indexing, so an unbatched call keeps
its shapes and bits).  One iteration is then one scan per direction for
all restarts, which on short panels saves the per-call overhead that
would otherwise be paid once per restart.  A restart leaves the stack
when it converges or hits an impossible observation.

The continuous adaptation calibrates on a fine grid with at most one jump
per interval: interval likelihoods come from a uniform picker model (one
entity at a time is allowed to move), the hidden-chain updates stay closed
form, and the migration rows are maximized numerically under simplex
constraints.  The fitted fine-grid probabilities convert to intensity
matrices by the small-step linearization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize

from .errors import DataError, ImpossibleObservationError, ModelError, NumericalError
from .model import (
    EventStream,
    HiddenFactorSpec,
    MigrationLaw,
    MigrationPanel,
    Mode,
    model_to_json,
    sort_states_by_risk,
    transition_to_generator,
)

__all__ = [
    "EmConfig",
    "CalibrationResult",
    "ForwardResult",
    "BackwardResult",
    "forward_pass",
    "backward_pass",
    "posteriors",
    "m_step",
    "em_fit",
    "picker_weights",
    "em_fit_continuous",
]


@dataclass(frozen=True)
class EmConfig:
    """Knobs of the EM run.

    ``tol`` is the relative log-likelihood improvement below which a restart
    is declared converged; ``floor`` is the minimum probability kept in any
    migration-law entry so no observation can become impossible mid-run.
    """

    restarts: int = 10
    max_iters: int = 500
    tol: float = 1e-8
    seed: int = 0
    floor: float = 1e-12

    def __post_init__(self):
        if self.restarts < 1:
            raise DataError("restarts must be at least 1")
        if self.tol <= 0:
            raise DataError("tol must be positive")
        if not 0 <= self.floor < 1:
            raise DataError("floor must lie in [0, 1)")


@dataclass(frozen=True)
class CalibrationResult:
    """Fitted parameters plus convergence diagnostics.

    ``restart_traces[r]`` is restart ``r``'s per-iteration log-likelihood
    (evaluated at the parameters entering each iteration; empty for a
    failed restart); traces are non-decreasing up to the configured
    tolerances.  ``loglik_trace`` is the best restart's.
    ``restart_converged[r]`` says whether restart ``r`` met the tolerance
    before the iteration cap, and ``restart_failures[r]`` holds the message
    of the impossible observation that failed it (None if it finished).
    """

    factor: HiddenFactorSpec
    law: MigrationLaw
    best_restart: int
    restart_traces: tuple[np.ndarray, ...]
    restart_seeds: tuple[int, ...]
    restart_converged: tuple[bool, ...]
    restart_failures: tuple[str | None, ...]
    fine_dt: float | None = None

    @property
    def converged(self) -> bool:
        return self.restart_converged[self.best_restart]

    @property
    def loglik_trace(self) -> np.ndarray:
        return self.restart_traces[self.best_restart]

    @property
    def loglik(self) -> float:
        return float(self.loglik_trace[-1])

    def to_json(self) -> str:
        extra = {
            "diagnostics": {
                "best_restart": self.best_restart,
                "converged": self.converged,
                "loglik": self.loglik,
                "loglik_trace": np.asarray(self.loglik_trace).tolist(),
                "restart_traces": [np.asarray(t).tolist() for t in self.restart_traces],
                "restart_seeds": [int(s) for s in self.restart_seeds],
            }
        }
        if self.fine_dt is not None:
            extra["diagnostics"]["fine_dt"] = self.fine_dt
        return model_to_json(self.factor, self.law, extra=extra)


class ForwardResult(NamedTuple):
    """Scaled forward probabilities: row ``t`` (normalized to sum 1) times
    ``exp(log_scale[t])`` is the joint likelihood of the first ``t + 1``
    observed steps and the hidden state driving step ``t + 1``.  With
    leading restart axes, ``loglik`` is an array over them."""

    alpha: np.ndarray
    log_scale: np.ndarray
    loglik: float


class BackwardResult(NamedTuple):
    """Scaled backward probabilities, same convention as ForwardResult."""

    beta: np.ndarray
    log_scale: np.ndarray


def _safe_log_law(per_state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log of the migration matrices with a mask of their zero cells.

    Zero cells get log 0 -> 0 here; whether they make a state impossible is
    decided against the observed counts (zero counts never do).
    """
    positive = per_state > 0.0
    log_law = np.log(np.where(positive, per_state, 1.0))
    return log_law, (~positive).astype(float)


def _panel_log_weights(panel: MigrationPanel, per_state: np.ndarray) -> np.ndarray:
    """Per-step, per-state log-likelihood of the observed count matrices
    (multinomial coefficients dropped) under the migration matrices
    ``per_state`` of shape (..., m, p, p).  Shape (..., steps, m);
    impossible combinations get -inf."""
    *batch, m, p, _ = per_state.shape
    log_law, zero_mask = (
        np.swapaxes(x.reshape(*batch, m, p * p), -1, -2) for x in _safe_log_law(per_state)
    )
    counts = panel.counts.reshape(panel.steps, p * p).astype(float)
    logg = counts @ log_law
    if zero_mask.any():
        logg[(counts > 0).astype(float) @ zero_mask > 0] = -np.inf
    return logg


def _max_over(x: np.ndarray, axis: int) -> np.ndarray:
    """``x.max(axis)`` for a short ``axis`` (-1 or -2): one elementwise
    maximum per entry along it, several times faster than numpy's
    reduction."""
    x = x.swapaxes(axis, -1)
    top = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(top, x[..., j], out=top)
    return top


def _column_normalized(
    mats: np.ndarray, log_scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Divide every column by its largest entry (in place) and add that
    entry's log to the column's log-scale; all-zero columns stay zero
    (log-scale -inf)."""
    top = _max_over(mats, -2)
    mats /= np.where(top > 0.0, top, 1.0)[..., None, :]
    return mats, log_scale + np.log(top)


def _exp_normalized(log_x: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """``exp(log_x)`` divided by its maximum along ``axis`` (-1 or -2),
    computed in place of ``log_x``, and the maximum of ``log_x`` along it
    (slices that are all -inf give zeros)."""
    top = _max_over(log_x, axis)
    shift = np.where(np.isfinite(top), top, 0.0)
    log_x -= shift[..., None, :] if axis == -2 else shift[..., None]
    return np.exp(log_x, out=log_x), top


def _scaled_matmul(
    a: np.ndarray, a_scale: np.ndarray, b: np.ndarray, b_scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``a @ b`` for stacks of matrices whose true column j is ``a[..., j] *
    exp(a_scale[..., j])``.  Row j of ``b`` is weighted by column j's scale
    in log space first, so columns whose scales lie hundreds of orders of
    magnitude apart never underflow against each other."""
    log_w = np.log(b)
    log_w += a_scale[..., None]
    w, top = _exp_normalized(log_w, -2)
    return _column_normalized(a @ w, top + b_scale)


def _prefix_products(
    mats: np.ndarray, log_scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive prefix products ``mats[k] @ ... @ mats[0]`` along the
    leading axis of column-scaled nonnegative matrices (see
    ``_scaled_matmul``), computed in place; axes between the leading axis
    and the matrix axes are batch axes.

    Work-efficient scan: multiply neighbouring pairs, scan the half-length
    sequence of pairs, then extend each odd prefix by the next even matrix.
    O(n) matrix products in O(log n) batched calls.
    """
    n = mats.shape[0]
    if n > 1:
        odd, odd_scale = _prefix_products(
            *_scaled_matmul(mats[1::2], log_scale[1::2], mats[:-1:2], log_scale[:-1:2])
        )
        mats[1::2], log_scale[1::2] = odd, odd_scale
        fill = (n - 1) // 2
        mats[2::2], log_scale[2::2] = _scaled_matmul(
            mats[2::2], log_scale[2::2], odd[:fill], odd_scale[:fill]
        )
    return mats, log_scale


def _time_major(mats: np.ndarray) -> np.ndarray:
    """View of matrices stored time-major, shape (steps, ..., m, m), with
    the time axis moved to third from last, where ``_scan_directions``
    takes it; the scan then runs on contiguous memory, as it does
    without batch axes."""
    return np.moveaxis(mats, 0, -3)


def _scan_directions(log_mats: np.ndarray) -> np.ndarray:
    """Every step of the recursion ``x_k = M[..., k, :, :] @ x_(k-1)``, its
    start folded into the first matrix, where ``M = exp(log_mats)`` has
    shape (..., steps, m, m), as rows (..., steps, m) normalized to sum 1
    (zero rows once the recursion dies).  Overwrites ``log_mats``."""
    # the scan runs along the leading axis (swapping is its own inverse)
    with np.errstate(divide="ignore"):
        prods, scale = _prefix_products(*_exp_normalized(log_mats.swapaxes(0, -3), -2))
    col_weight, _ = _exp_normalized(scale, -1)
    rows = np.einsum("...ij,...j->...i", prods, col_weight).swapaxes(0, -2)
    total = rows.sum(axis=-1, keepdims=True)
    return rows / np.where(total > 0.0, total, 1.0)


def _raise_impossible(t: int, every_state: bool):
    if every_state:
        raise ImpossibleObservationError(
            "observations at one step are impossible under every hidden state",
            time_index=t,
        )
    raise ImpossibleObservationError(
        "observations are impossible under every reachable hidden state",
        time_index=t,
    )


def _first_flagged(flags: np.ndarray, last: bool) -> tuple[int, int] | None:
    """The first restart (in batch order) with a flagged step, and its first
    flagged step (its last when ``last``); None when nothing is flagged."""
    if not flags.any():
        return None
    flat = flags.reshape(-1, flags.shape[-1])
    r = int(flat.any(axis=1).argmax())
    steps = np.flatnonzero(flat[r])
    return r, int(steps[-1] if last else steps[0])


def _settled(
    scanned: np.ndarray, row: np.ndarray, impossible: np.ndarray, last: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Normalize the exact-step rows ``row`` and check the scanned rows
    against them; return the normalized rows and their norms.

    A forward recursion dies at its first row of zero norm, a backward one
    (``last``) at its last; the rows it computed before dying must agree
    with the scan, or the scan lost precision and a NumericalError names
    the first (forward) or last (backward) disagreeing step.  A restart
    whose recursion dies then raises ImpossibleObservationError at the step
    that killed it; with several restarts, the first that fails decides
    both errors.
    """
    norm = row.sum(axis=-1)
    flip = (lambda x: x[..., ::-1]) if last else (lambda x: x)
    alive = flip(np.logical_and.accumulate(flip(norm > 0.0), axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = row / norm[..., None]
        off = alive & (np.abs(scanned - exact).max(axis=-1, initial=0.0) > 1e-9)
    lost = _first_flagged(off, last)
    if lost is not None:
        raise NumericalError(
            f"the prefix scan lost precision at step {lost[1]}: the per-step "
            "likelihoods span more orders of magnitude than double precision holds"
        )
    dead = _first_flagged(~alive, last)
    if dead is not None:
        r, t = dead[0], dead[1] + last  # beta[t] reads step t + 1
        _raise_impossible(t, bool(impossible.reshape(-1, impossible.shape[-1])[r, t]))
    return exact, norm


def _forward(logg: np.ndarray, pi: np.ndarray, trans: np.ndarray) -> ForwardResult:
    *batch, steps, m = logg.shape
    impossible = ~np.isfinite(logg.max(axis=-1))
    with np.errstate(divide="ignore"):
        log_mats = _time_major(np.full((steps, *batch, m, m), -np.inf))
        log_mats[..., 0, range(m), range(m)] = np.log(pi) + logg[..., 0, :]
        log_mats[..., 1:, :, :] = (
            logg[..., 1:, :, None] + np.log(np.swapaxes(trans, -1, -2))[..., None, :, :]
        )
        scanned = _scan_directions(log_mats)
        # one exact recursion step, in log space, from each scanned row
        carry = np.concatenate([pi[..., None, :], scanned[..., :-1, :] @ trans], axis=-2)
        row, top = _exp_normalized(np.log(carry) + logg, -1)
    alpha, norm = _settled(scanned, row, impossible, last=False)
    log_scale = np.cumsum(np.log(norm) + top, axis=-1)
    loglik = log_scale[..., -1]
    return ForwardResult(alpha, log_scale, loglik if batch else float(loglik))


def _backward(logg: np.ndarray, trans: np.ndarray) -> BackwardResult:
    *batch, steps, m = logg.shape
    impossible = ~np.isfinite(logg.max(axis=-1))
    # reversed: element k drives beta[steps - 1 - k]; the flat terminal
    # column is folded into element 0
    with np.errstate(divide="ignore"):
        log_mats = _time_major(np.zeros((steps, *batch, m, m)))
        log_mats[..., 1:, :, :] = np.log(trans)[..., None, :, :] + logg[..., :0:-1, None, :]
        scanned = _scan_directions(log_mats)[..., ::-1, :]
        # one exact recursion step, in log space, from each scanned row;
        # beta[t] reads step t + 1
        w, top = _exp_normalized(logg[..., 1:, :] + np.log(scanned[..., 1:, :]), -1)
    row = np.concatenate([w @ np.swapaxes(trans, -1, -2), np.ones((*batch, 1, m))], axis=-2)
    beta, norm = _settled(scanned, row, impossible, last=True)
    top = np.concatenate([top, np.zeros((*batch, 1))], axis=-1)
    log_scale = np.cumsum((np.log(norm) + top)[..., ::-1], axis=-1)[..., ::-1]
    return BackwardResult(beta=beta, log_scale=log_scale)


def forward_pass(
    panel: MigrationPanel, factor: HiddenFactorSpec, law: MigrationLaw
) -> ForwardResult:
    """Scaled forward recursion over the panel, conditioned on the observed
    time-zero ratings.

    Row ``t`` of ``alpha`` refers to the hidden state driving step ``t``
    (the state in force at the step's start).
    """
    if panel.steps == 0:
        return ForwardResult(
            alpha=np.empty((0, factor.m)), log_scale=np.empty(0), loglik=0.0
        )
    return _forward(_panel_log_weights(panel, law.per_state), factor.pi, factor.trans)


def backward_pass(
    panel: MigrationPanel, factor: HiddenFactorSpec, law: MigrationLaw
) -> BackwardResult:
    """Scaled backward recursion; the terminal column is flat (nothing is
    observed after the last step)."""
    if panel.steps == 0:
        return BackwardResult(beta=np.empty((0, factor.m)), log_scale=np.empty(0))
    logg = _panel_log_weights(panel, law.per_state)
    return _backward(logg, factor.trans)


def posteriors(
    fwd: ForwardResult,
    bwd: BackwardResult,
    panel: MigrationPanel,
    factor: HiddenFactorSpec,
    law: MigrationLaw,
) -> tuple[np.ndarray, np.ndarray]:
    """Smoothing posteriors of the hidden chain given the whole sample.

    Returns ``u`` of shape (steps, m) — the marginal law of the hidden state
    driving each step — and ``v`` of shape (steps - 1, m, m), the joint law
    of consecutive hidden states; ``v[t]`` has row marginal ``u[t]`` and
    column marginal ``u[t + 1]``.
    """
    if panel.steps == 0:
        m = factor.m
        return np.empty((0, m)), np.empty((0, m, m))
    return _posteriors_from(_panel_log_weights(panel, law.per_state), fwd, bwd, factor.trans)


def _posteriors_from(
    logg: np.ndarray, fwd: ForwardResult, bwd: BackwardResult, trans: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    u = fwd.alpha * bwd.beta
    u /= u.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore"):
        w, _ = _exp_normalized(logg[..., 1:, :] + np.log(bwd.beta[..., 1:, :]), -1)
    v = fwd.alpha[..., :-1, :, None] * trans[..., None, :, :]
    v *= w[..., None, :]
    v /= np.einsum("...tij->...t", v)[..., None, None]
    return u, v


def _e_step(
    logg: np.ndarray, pi: np.ndarray, trans: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """The E-step on per-step log-weights ``logg``: the log-likelihood and
    the smoothing posteriors ``u`` and ``v`` (see :func:`posteriors`).
    Leading axes of ``logg``, ``pi`` and ``trans`` are restart axes."""
    fwd = _forward(logg, pi, trans)
    u, v = _posteriors_from(logg, fwd, _backward(logg, trans), trans)
    return fwd.loglik, u, v


def _floored(x: np.ndarray, floor: float) -> np.ndarray:
    """Laws on the last axis floored at ``floor`` and renormalized."""
    x = np.maximum(x, floor)
    return x / x.sum(axis=-1, keepdims=True)


def m_step(
    u: np.ndarray,
    v: np.ndarray,
    panel: MigrationPanel,
    prev_law: MigrationLaw | np.ndarray | None = None,
    floor: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form maximization given the smoothing posteriors.

    Returns updated ``(pi, trans, per_state)`` arrays.  The migration row of
    a state whose expected exposure in some rating class falls below
    ``floor`` keeps its previous value (no information to update it with);
    migration rows are floored at ``floor`` and renormalized.  Leading axes
    of ``u`` and ``v`` are restart axes, and ``prev_law`` may be given as
    its per-state array stacked the same way.
    """
    pi, trans = _chain_m_step(u, v)
    num = np.einsum("...ti,tkr->...ikr", u, panel.counts.astype(float))
    den = np.einsum("...ti,tk->...ik", u, panel.exposures.astype(float))
    blind = den < max(floor, 1e-300)
    prev = 1.0 / panel.p if prev_law is None else getattr(prev_law, "per_state", prev_law)
    per_state = np.where(
        blind[..., None], prev, num / np.where(blind, 1.0, den)[..., None]
    )
    return pi, trans, _floored(per_state, floor)


def _chain_m_step(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form update of the hidden chain's initial law and transition
    matrix; a state never visited before the last step gets a flat row."""
    *batch, steps, m = u.shape
    pi = u[..., 0, :] / u[..., 0, :].sum(axis=-1, keepdims=True)
    if steps > 1:
        k_num = v.sum(axis=-3)
        k_den = u[..., :-1, :].sum(axis=-2)[..., None]
        trans = np.where(k_den > 0, k_num / np.where(k_den > 0, k_den, 1.0), 1.0 / m)
    else:
        trans = np.full((*batch, m, m), 1.0 / m)
    return pi, trans / trans.sum(axis=-1, keepdims=True)


def _random_init(rng, m: int, p: int, floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uniform draws on the relevant simplices, floored away from the edge."""
    pi = _floored(rng.dirichlet(np.ones(m)), floor)
    trans = _floored(rng.dirichlet(np.ones(m), size=m), floor)
    return pi, trans, _floored(rng.dirichlet(np.ones(p), size=(m, p)), floor)


def em_fit(panel: MigrationPanel, m: int, cfg: EmConfig) -> CalibrationResult:
    """Multi-start EM fit of the discrete model.

    Each restart starts from independent uniform draws on the parameter
    simplices and iterates expectation and maximization until the relative
    log-likelihood improvement drops below ``cfg.tol`` (or ``max_iters``).
    The restarts run in lockstep, stacked on a leading axis, so one E-step
    and one M-step serve all of them per iteration.  The best restart by
    final log-likelihood wins; its states are relabeled from least to most
    risky before being returned.
    """
    return _multi_start(panel, m, cfg, _discrete_e_and_m)


def _multi_start(panel, m, cfg, e_and_m) -> CalibrationResult:
    """Run ``cfg.restarts`` EM restarts on ``panel`` from seeded random
    starts and return the best one, states relabeled from least to most
    risky.  The starts are stacked on a leading axis and iterated in
    lockstep by ``_em_lockstep``.  An empty panel, ``m < 1`` or a floor of
    ``1 / max(m, p)`` or more is a DataError.  Restarts that hit an
    impossible observation count as failed; all failing is a ModelError."""
    p = panel.p
    if panel.steps == 0:
        raise DataError("cannot calibrate on an empty panel")
    if m < 1:
        raise DataError("need at least one hidden state")
    if cfg.floor >= 1.0 / max(m, p):
        raise DataError(f"floor {cfg.floor} too large for {m} states / {p} ratings")
    master = np.random.default_rng(cfg.seed)
    seeds = [int(s) for s in master.integers(0, 2**63 - 1, size=cfg.restarts)]
    starts = [_random_init(np.random.default_rng(seed), m, p, cfg.floor) for seed in seeds]
    traces, params, converged, errors = _em_lockstep(
        panel, [np.stack(x) for x in zip(*starts)], cfg, e_and_m
    )
    failures = tuple(None if exc is None else str(exc) for exc in errors)
    if all(failures):
        raise ModelError(
            "every EM restart failed on impossible observations: " + failures[0]
        )
    best = int(np.argmax([t[-1] if t.size else -np.inf for t in traces]))
    pi, trans, per_state = (x[best] for x in params)
    factor = HiddenFactorSpec(pi=pi, trans=trans, mode=Mode.DISCRETE)
    law = MigrationLaw(per_state=per_state, mode=Mode.DISCRETE)
    factor, law, _ = sort_states_by_risk(factor, law)
    return CalibrationResult(
        factor=factor,
        law=law,
        best_restart=best,
        restart_traces=tuple(traces),
        restart_seeds=tuple(seeds),
        restart_converged=tuple(converged),
        restart_failures=failures,
    )


def _discrete_e_and_m(panel, pi, trans, per_state, cfg):
    loglik, u, v = _e_step(_panel_log_weights(panel, per_state), pi, trans)
    return loglik, m_step(u, v, panel, prev_law=per_state, floor=cfg.floor)


def _em_step(panel, params, cfg, e_and_m):
    """One EM iteration of every restart stacked in ``params``: their
    log-likelihoods, their new parameters and, per restart, the
    ImpossibleObservationError it hit or None.  When a stack raises, each
    restart is iterated alone, so a failure is charged to its own restart,
    with its own message, and the others are unaffected."""
    try:
        loglik, new = e_and_m(panel, *params, cfg)
    except ImpossibleObservationError as exc:
        if len(params[0]) == 1:
            return np.full(1, np.nan), params, [exc]
        alone = [
            _em_step(panel, [x[r : r + 1] for x in params], cfg, e_and_m)
            for r in range(len(params[0]))
        ]
        return (
            np.concatenate([a[0] for a in alone]),
            [np.concatenate(x) for x in zip(*(a[1] for a in alone))],
            [exc for a in alone for exc in a[2]],
        )
    return loglik, new, [None] * len(loglik)


def _em_lockstep(panel, starts, cfg, e_and_m):
    """Run EM restarts in lockstep from ``starts``, the stacked ``(pi,
    trans, per_state)`` with a leading restart axis, calling
    ``e_and_m(panel, pi, trans, per_state, cfg)`` once per iteration on the
    restarts still running.  A restart leaves the batch when its relative
    log-likelihood improvement drops to ``cfg.tol`` or when it hits an
    impossible observation.  Returns each restart's trace (empty for a
    failed one), the stacked final parameters, the converged flags and the
    ImpossibleObservationError of each failed restart (None otherwise)."""
    params = [np.array(x, dtype=float) for x in starts]
    n = len(params[0])
    traces: list[list[float]] = [[] for _ in range(n)]
    converged = np.zeros(n, dtype=bool)
    errors = [None] * n
    prev = np.full(n, np.nan)
    running = np.arange(n)
    for _ in range(cfg.max_iters):
        if not running.size:
            break
        loglik, new, hit = _em_step(panel, [x[running] for x in params], cfg, e_and_m)
        for x, y in zip(params, new):
            x[running] = y
        for r, value, exc in zip(running, loglik, hit):
            traces[r].append(value)
            errors[r] = exc
        last = prev[running]
        done = loglik - last <= cfg.tol * np.maximum(np.abs(last), 1.0)
        failed = np.array([exc is not None for exc in hit])
        converged[running[done]] = True
        prev[running] = loglik
        running = running[~(done | failed)]
    traces = [np.array(t) if exc is None else np.empty(0) for t, exc in zip(traces, errors)]
    return traces, params, converged.tolist(), errors


def _em_single(panel, pi, trans, per_state, cfg, e_and_m):
    """Run one EM restart (``_em_lockstep`` on a batch of one); returns
    (trace, final params, converged) or raises the restart's
    ImpossibleObservationError."""
    traces, params, converged, errors = _em_lockstep(
        panel, [pi[None], trans[None], per_state[None]], cfg, e_and_m
    )
    if errors[0] is not None:
        raise errors[0]
    return traces[0], tuple(x[0] for x in params), converged[0]


# --------------------------------------------------------------------------
# Continuous adaptation: fine grid, uniform picker likelihood, numeric M-step
# --------------------------------------------------------------------------


def _fine_grid_from_panel(panel: MigrationPanel):
    """Read a panel whose steps are fine intervals (at most one jump each):
    the exposures, each interval's jump source and target (-1 without a
    jump) and ``n_bar``, the largest per-interval entity total."""
    p = panel.p
    off = ~np.eye(p, dtype=bool)
    totals = panel.counts[:, off].sum(axis=1)
    bad = np.nonzero(totals > 1)[0]
    if bad.size:
        raise DataError(
            f"fine-grid step {int(bad[0])} holds {int(totals[bad[0]])} jumps; "
            "the picker likelihood needs at most one per interval"
        )
    # the one jump of a step is its largest off-diagonal cell
    cell = (panel.counts * off).reshape(panel.steps, p * p).argmax(axis=1)
    src = np.where(totals == 1, cell // p, -1)
    dst = np.where(totals == 1, cell % p, -1)
    n_bar = float(panel.exposures.sum(axis=1).max(initial=0))
    if n_bar <= 0:
        raise DataError("sample holds no entities")
    return panel.exposures, src, dst, n_bar


def _picker_log_weights(
    exposures: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    per_state: np.ndarray,
    n_bar: float,
) -> np.ndarray:
    """Per-interval, per-state log-likelihood under the uniform picker model,
    shape (..., steps, m) for migration matrices ``per_state`` of shape
    (..., m, p, p).

    One entity slot out of ``n_bar`` is picked uniformly; a slot outside the
    current sample forbids jumps, a picked entity moves by its migration
    row.  Only the picked entity contributes a probability factor.
    """
    n_t = exposures.sum(axis=1).astype(float)
    *batch, m, _, _ = per_state.shape
    diag = np.einsum("...ijj->...ij", per_state)
    nojump = src < 0
    rows = np.flatnonzero(~nojump)
    with np.errstate(divide="ignore"):
        jump_logw = np.log(np.swapaxes(per_state[..., src[rows], dst[rows]], -1, -2))
        jump_logw -= math.log(n_bar)
    logw = np.empty((*batch, exposures.shape[0], m))
    base = (1.0 - n_t / n_bar)[:, None] + (
        exposures.astype(float) @ np.swapaxes(diag, -1, -2)
    ) / n_bar
    with np.errstate(divide="ignore"):
        logw[..., nojump, :] = np.log(base[..., nojump, :])
    logw[..., rows, :] = jump_logw
    return logw


def picker_weights(panel_fine: MigrationPanel, law: MigrationLaw) -> np.ndarray:
    """Interval likelihood matrix of a fine-grid panel, shape (steps, m).

    The picker draws from ``n_bar`` slots, the largest per-interval entity
    total.  Weights are strictly positive whenever the law has no exact
    zeros (flooring guarantees that during calibration).
    """
    exposures, src, dst, n_bar = _fine_grid_from_panel(panel_fine)
    return np.exp(_picker_log_weights(exposures, src, dst, law.per_state, n_bar))


def _jump_posterior_mass(
    u: np.ndarray, src: np.ndarray, dst: np.ndarray, m: int, p: int
) -> np.ndarray:
    """Expected number of picked jumps per (state, source, target)."""
    mass = np.zeros((m, p, p))
    rows = np.flatnonzero(src >= 0)
    np.add.at(mass, (slice(None), src[rows], dst[rows]), u[rows].T)
    return mass


def _row_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _optimize_picker_rows(
    jump_mass: np.ndarray,
    u_nj: np.ndarray,
    y_nj: np.ndarray,
    n_bar: float,
    start: np.ndarray,
    floor: float,
) -> np.ndarray:
    """Maximize one state's picker-likelihood contribution over its
    row-stochastic migration matrix.

    Rows are reparameterized by softmax logits and ascended jointly (the
    no-jump terms couple the diagonal entries across rows), with analytic
    gradients.  Returns the new matrix, or ``start`` itself when the
    optimizer's result scores lower.
    """
    p = start.shape[0]
    c_nj = 1.0 - y_nj.sum(axis=1) / n_bar
    jump_row_mass = jump_mass.sum(axis=1)

    def q_of(mat: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """The objective, with the diagonal and no-jump weights its
        gradient reuses."""
        with np.errstate(divide="ignore"):
            log_mat = np.log(mat)
        jump_term = float(np.sum(np.where(jump_mass > 0, jump_mass * log_mat, 0.0)))
        diag = np.diag(mat).copy()
        w = c_nj + (y_nj @ diag) / n_bar
        return jump_term + float(u_nj @ np.log(w)), diag, w

    def neg_q_and_grad(x: np.ndarray):
        mat = _row_softmax(x.reshape(p, p))
        q, diag, w = q_of(mat)
        # gradient in logits, division-free through the softmax chain rule
        grad_x = jump_mass - mat * jump_row_mass[:, None]
        d_diag = ((u_nj / w) @ y_nj / n_bar) * diag
        grad_x -= mat * d_diag[:, None]
        grad_x[np.diag_indices(p)] += d_diag
        return -q, -grad_x.ravel()

    q_start, _, _ = q_of(start)
    x0 = np.log(np.maximum(start, floor)).ravel()
    res = minimize(
        neg_q_and_grad,
        x0,
        jac=True,
        method="L-BFGS-B",
        options={"gtol": 1e-8, "ftol": 1e-13, "maxiter": 300},
    )
    mat = _floored(_row_softmax(res.x.reshape(p, p)), floor)
    if q_of(mat)[0] + 1e-12 * (1.0 + abs(q_start)) < q_start:
        return start
    return mat


def em_fit_continuous(
    events: EventStream,
    m: int,
    cfg: EmConfig,
    fine_dt: float | None = None,
    to_generator: bool = True,
) -> CalibrationResult:
    """Multi-start EM fit adapted to event data with no simultaneous jumps.

    The stream is binned onto intervals of ``fine_dt`` (required), which
    must isolate every jump.  Interval likelihoods come from the uniform
    picker model; the hidden chain's updates are closed form while the
    migration rows are maximized numerically (an iteration only ever
    accepts a non-decreasing objective).  The fitted fine-grid
    probabilities are returned as intensity matrices when ``to_generator``
    is set.

    Conversion note: the fitted migration matrix is the law of a *picked*
    entity, and an entity is picked once per ``n_bar`` intervals on average,
    so its intensities are ``(L - I) / (n_bar * fine_dt)``; the hidden chain
    moves every interval, so its generator is ``(K - I) / fine_dt``.
    """
    if fine_dt is None:
        raise DataError("fine_dt is required when calibrating on an event stream")
    from .continuous import stream_to_panel

    fine = stream_to_panel(events, fine_dt)
    exposures, src, dst, n_bar = _fine_grid_from_panel(fine)
    nojump = src < 0
    y_nj = exposures[nojump].astype(float)

    def e_and_m(_panel, pi, trans, per_state, cfg):
        """One iteration of the restarts stacked on the leading axis: one
        batched E-step, then L-BFGS per restart and state."""
        logw = _picker_log_weights(exposures, src, dst, per_state, n_bar)
        loglik, u, v = _e_step(logw, pi, trans)
        u_nj = u[:, nojump]
        new_per_state = np.empty_like(per_state)
        for r in range(len(per_state)):
            jump_mass = _jump_posterior_mass(u[r], src, dst, m, fine.p)
            for i in range(m):
                new_per_state[r, i] = _optimize_picker_rows(
                    jump_mass[i], u_nj[r, :, i], y_nj, n_bar, per_state[r, i], cfg.floor
                )
        return loglik, (*_chain_m_step(u, v), new_per_state)

    result = _multi_start(fine, m, cfg, e_and_m)
    if to_generator:
        result = replace(
            result,
            factor=HiddenFactorSpec(
                pi=result.factor.pi,
                trans=transition_to_generator(result.factor.trans, fine_dt),
                mode=Mode.CONTINUOUS,
            ),
            law=MigrationLaw(
                per_state=transition_to_generator(result.law.per_state, n_bar * fine_dt),
                mode=Mode.CONTINUOUS,
            ),
        )
    return replace(result, fine_dt=fine_dt)
