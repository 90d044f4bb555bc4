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
    """

    factor: HiddenFactorSpec
    law: MigrationLaw
    best_restart: int
    converged: bool
    restart_traces: tuple[np.ndarray, ...]
    restart_seeds: tuple[int, ...]
    fine_dt: float | None = None

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
    observed steps and the hidden state driving step ``t + 1``."""

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


def _panel_log_weights(panel: MigrationPanel, law: MigrationLaw) -> np.ndarray:
    """Per-step, per-state log-likelihood of the observed count matrices
    (multinomial coefficients dropped).  Shape (steps, m); impossible
    combinations get -inf."""
    log_law, zero_mask = _safe_log_law(law.per_state)
    m, p = law.n_states, law.p
    counts = panel.counts.reshape(panel.steps, p * p).astype(float)
    logg = counts @ log_law.reshape(m, p * p).T
    if zero_mask.any():
        hits = (counts > 0).astype(float) @ zero_mask.reshape(m, p * p).T
        logg[hits > 0] = -np.inf
    return logg


def _max_axis1(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=1)`` for a short axis 1: one elementwise maximum per
    entry along it, several times faster than numpy's reduction."""
    top = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        np.maximum(top, x[:, j], out=top)
    return top


def _column_normalized(
    mats: np.ndarray, log_scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Divide every column by its largest entry and add that entry's log to
    the column's log-scale; all-zero columns stay zero (log-scale -inf)."""
    top = _max_axis1(mats)
    return mats / np.where(top > 0.0, top, 1.0)[:, None, :], log_scale + np.log(top)


def _exp_normalized(log_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``exp(log_x)`` divided by its maximum along axis 1, and the maximum
    of ``log_x`` along axis 1 (slices that are all -inf give zeros)."""
    top = _max_axis1(log_x)
    return np.exp(log_x - np.where(np.isfinite(top), top, 0.0)[:, None]), top


def _scaled_matmul(
    a: np.ndarray, a_scale: np.ndarray, b: np.ndarray, b_scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``a @ b`` for stacks of matrices whose true column j is ``a[..., j] *
    exp(a_scale[..., j])``.  Row j of ``b`` is weighted by column j's scale
    in log space first, so columns whose scales lie hundreds of orders of
    magnitude apart never underflow against each other."""
    w, top = _exp_normalized(a_scale[:, :, None] + np.log(b))
    return _column_normalized(a @ w, top + b_scale)


def _prefix_products(
    mats: np.ndarray, log_scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive prefix products ``mats[k] @ ... @ mats[0]`` of column-scaled
    nonnegative matrices (see ``_scaled_matmul``).

    Work-efficient scan: multiply neighbouring pairs, scan the half-length
    sequence of pairs, then extend each odd prefix by the next even matrix.
    O(n) matrix products in O(log n) batched calls.
    """
    n = mats.shape[0]
    if n == 1:
        return mats, log_scale
    lo, hi = slice(0, n - 1, 2), slice(1, n, 2)
    odd, odd_scale = _prefix_products(
        *_scaled_matmul(mats[hi], log_scale[hi], mats[lo], log_scale[lo])
    )
    out = np.empty_like(mats)
    out_scale = np.empty_like(log_scale)
    out[0], out_scale[0] = mats[0], log_scale[0]
    out[1::2], out_scale[1::2] = odd, odd_scale
    fill = (n - 1) // 2
    out[2::2], out_scale[2::2] = _scaled_matmul(
        mats[2::2], log_scale[2::2], odd[:fill], odd_scale[:fill]
    )
    return out, out_scale


def _scan_directions(log_mats: np.ndarray) -> np.ndarray:
    """Every step of the recursion ``x_k = M[k] @ x_(k-1)``, its start
    folded into ``M[0]``, where ``M = exp(log_mats)``, as rows normalized to
    sum 1 (zero rows once the recursion dies)."""
    with np.errstate(divide="ignore"):
        prods, scale = _prefix_products(*_exp_normalized(log_mats))
    col_weight, _ = _exp_normalized(scale)
    rows = np.einsum("tij,tj->ti", prods, col_weight)
    total = rows.sum(axis=1, keepdims=True)
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


def _check_scan(scanned: np.ndarray, exact: np.ndarray, steps: np.ndarray, last: bool):
    """Every scanned row must agree with one exact recursion step taken from
    the scanned row before it; a disagreement means the scan lost precision
    and its rows cannot be trusted."""
    bad = steps[np.abs(scanned - exact).max(axis=1, initial=0.0) > 1e-9]
    if bad.size:
        t = int(bad[-1] if last else bad[0])
        raise NumericalError(
            f"the prefix scan lost precision at step {t}: the per-step "
            "likelihoods span more orders of magnitude than double precision holds"
        )


def _forward(logg: np.ndarray, pi: np.ndarray, trans: np.ndarray) -> ForwardResult:
    steps, m = logg.shape
    impossible = ~np.isfinite(logg.max(axis=1))
    with np.errstate(divide="ignore"):
        log_mats = np.full((steps, m, m), -np.inf)
        log_mats[0, range(m), range(m)] = np.log(pi) + logg[0]
        log_mats[1:] = logg[1:, :, None] + np.log(trans).T
        scanned = _scan_directions(log_mats)
        # one exact recursion step, in log space, from each scanned row
        carry = np.vstack([pi, scanned[:-1] @ trans])
        row, top = _exp_normalized(np.log(carry) + logg)
    norm = row.sum(axis=1)
    bad = np.flatnonzero(~(norm > 0.0))
    good = bad[0] if bad.size else steps
    alpha = row[:good] / norm[:good, None]
    _check_scan(scanned[:good], alpha, np.arange(good), last=False)
    if bad.size:
        _raise_impossible(int(good), bool(impossible[good]))
    log_scale = np.cumsum(np.log(norm) + top)
    return ForwardResult(alpha=alpha, log_scale=log_scale, loglik=float(log_scale[-1]))


def _backward(logg: np.ndarray, trans: np.ndarray) -> BackwardResult:
    steps, m = logg.shape
    impossible = ~np.isfinite(logg.max(axis=1))
    # reversed: element k drives beta[steps - 1 - k]; the flat terminal
    # column is folded into element 0
    with np.errstate(divide="ignore"):
        log_mats = np.zeros((steps, m, m))
        log_mats[1:] = np.log(trans) + logg[:0:-1, None, :]
        scanned = _scan_directions(log_mats)[::-1]
        # one exact recursion step, in log space, from each scanned row;
        # beta[t] reads step t + 1
        w, top = _exp_normalized(logg[1:] + np.log(scanned[1:]))
    row = np.vstack([w @ trans.T, np.ones(m)])
    norm = row.sum(axis=1)
    bad = np.flatnonzero(~(norm > 0.0))
    first = bad[-1] + 1 if bad.size else 0
    beta = row[first:] / norm[first:, None]
    _check_scan(scanned[first:], beta, np.arange(first, steps), last=True)
    if bad.size:
        _raise_impossible(int(first), bool(impossible[first]))
    log_scale = np.cumsum((np.log(norm) + np.append(top, 0.0))[::-1])[::-1]
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
    return _forward(_panel_log_weights(panel, law), factor.pi, factor.trans)


def backward_pass(
    panel: MigrationPanel, factor: HiddenFactorSpec, law: MigrationLaw
) -> BackwardResult:
    """Scaled backward recursion; the terminal column is flat (nothing is
    observed after the last step)."""
    if panel.steps == 0:
        return BackwardResult(beta=np.empty((0, factor.m)), log_scale=np.empty(0))
    logg = _panel_log_weights(panel, law)
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
    return _posteriors_from(_panel_log_weights(panel, law), fwd, bwd, factor.trans)


def _posteriors_from(
    logg: np.ndarray, fwd: ForwardResult, bwd: BackwardResult, trans: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    u = fwd.alpha * bwd.beta
    u /= u.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        w, _ = _exp_normalized(logg[1:] + np.log(bwd.beta[1:]))
    v = fwd.alpha[:-1, :, None] * trans * w[:, None, :]
    v /= np.einsum("tij->t", v)[:, None, None]
    return u, v


def _e_step(
    logg: np.ndarray, pi: np.ndarray, trans: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """The E-step on per-step log-weights ``logg``: the log-likelihood and
    the smoothing posteriors ``u`` and ``v`` (see :func:`posteriors`)."""
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
    prev_law: MigrationLaw | None = None,
    floor: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form maximization given the smoothing posteriors.

    Returns updated ``(pi, trans, per_state)`` arrays.  The migration row of
    a state whose expected exposure in some rating class falls below
    ``floor`` keeps its previous value (no information to update it with);
    migration rows are floored at ``floor`` and renormalized.
    """
    pi, trans = _chain_m_step(u, v)
    num = np.einsum("ti,tkr->ikr", u, panel.counts.astype(float))
    den = np.einsum("ti,tk->ik", u, panel.exposures.astype(float))
    blind = den < max(floor, 1e-300)
    prev = prev_law.per_state if prev_law is not None else 1.0 / panel.p
    per_state = np.where(
        blind[:, :, None], prev, num / np.where(blind, 1.0, den)[:, :, None]
    )
    return pi, trans, _floored(per_state, floor)


def _chain_m_step(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form update of the hidden chain's initial law and transition
    matrix; a state never visited before the last step gets a flat row."""
    steps, m = u.shape
    pi = u[0] / u[0].sum()
    if steps > 1:
        k_num = v.sum(axis=0)
        k_den = u[:-1].sum(axis=0)[:, None]
        trans = np.where(k_den > 0, k_num / np.where(k_den > 0, k_den, 1.0), 1.0 / m)
    else:
        trans = np.full((m, m), 1.0 / m)
    return pi, trans / trans.sum(axis=1, keepdims=True)


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
    The best restart by final log-likelihood wins; its states are relabeled
    from least to most risky before being returned.
    """
    return _multi_start(panel, m, cfg, _discrete_e_and_m)


def _multi_start(panel, m, cfg, e_and_m) -> CalibrationResult:
    """Run ``cfg.restarts`` EM restarts on ``panel`` from seeded random
    starts and return the best one, states relabeled from least to most
    risky.  An empty panel, ``m < 1`` or a floor of ``1 / max(m, p)`` or
    more is a DataError.  Restarts that hit an impossible observation count
    as failed; all failing is a ModelError."""
    p = panel.p
    if panel.steps == 0:
        raise DataError("cannot calibrate on an empty panel")
    if m < 1:
        raise DataError("need at least one hidden state")
    if cfg.floor >= 1.0 / max(m, p):
        raise DataError(f"floor {cfg.floor} too large for {m} states / {p} ratings")
    master = np.random.default_rng(cfg.seed)
    seeds = [int(s) for s in master.integers(0, 2**63 - 1, size=cfg.restarts)]
    traces: list[np.ndarray] = []
    fits: list[tuple[np.ndarray, np.ndarray, np.ndarray] | None] = []
    converged_flags: list[bool] = []
    failures: list[str] = []
    for seed in seeds:
        pi, trans, per_state = _random_init(np.random.default_rng(seed), m, p, cfg.floor)
        try:
            trace, params, conv = _em_single(panel, pi, trans, per_state, cfg, e_and_m)
        except ImpossibleObservationError as exc:
            failures.append(str(exc))
            traces.append(np.empty(0))
            fits.append(None)
            converged_flags.append(False)
            continue
        traces.append(trace)
        fits.append(params)
        converged_flags.append(conv)
    if all(f is None for f in fits):
        raise ModelError(
            "every EM restart failed on impossible observations: " + failures[0]
        )
    finals = [t[-1] if t.size else -np.inf for t in traces]
    best = int(np.argmax(finals))
    pi, trans, per_state = fits[best]
    factor = HiddenFactorSpec(pi=pi, trans=trans, mode=Mode.DISCRETE)
    law = MigrationLaw(per_state=per_state, mode=Mode.DISCRETE)
    factor, law, _ = sort_states_by_risk(factor, law)
    return CalibrationResult(
        factor=factor,
        law=law,
        best_restart=best,
        converged=converged_flags[best],
        restart_traces=tuple(traces),
        restart_seeds=tuple(seeds),
    )


def _discrete_e_and_m(panel, pi, trans, per_state, cfg):
    law = MigrationLaw(per_state=per_state, mode=Mode.DISCRETE)
    loglik, u, v = _e_step(_panel_log_weights(panel, law), pi, trans)
    return loglik, m_step(u, v, panel, prev_law=law, floor=cfg.floor)


def _em_single(panel, pi, trans, per_state, cfg, e_and_m):
    """Run one EM restart; returns (trace, final params, converged)."""
    trace = []
    converged = False
    params = (pi, trans, per_state)
    for _ in range(cfg.max_iters):
        loglik, new_params = e_and_m(panel, *params, cfg)
        trace.append(loglik)
        if len(trace) > 1:
            prev = trace[-2]
            if loglik - prev <= cfg.tol * max(abs(prev), 1.0):
                converged = True
                params = new_params
                break
        params = new_params
    return np.array(trace), params, converged


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
    """Per-interval, per-state log-likelihood under the uniform picker model.

    One entity slot out of ``n_bar`` is picked uniformly; a slot outside the
    current sample forbids jumps, a picked entity moves by its migration
    row.  Only the picked entity contributes a probability factor.
    """
    n_t = exposures.sum(axis=1).astype(float)
    m = per_state.shape[0]
    s_count = exposures.shape[0]
    diag = np.einsum("ijj->ij", per_state)
    nojump = src < 0
    rows = np.flatnonzero(~nojump)
    with np.errstate(divide="ignore"):
        jump_logw = np.log(per_state[:, src[rows], dst[rows]].T) - math.log(n_bar)
    logw = np.empty((s_count, m))
    base = (1.0 - n_t / n_bar)[:, None] + (exposures.astype(float) @ diag.T) / n_bar
    with np.errstate(divide="ignore"):
        logw[nojump] = np.log(base[nojump])
    logw[rows] = jump_logw
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
        logw = _picker_log_weights(exposures, src, dst, per_state, n_bar)
        loglik, u, v = _e_step(logw, pi, trans)
        jump_mass = _jump_posterior_mass(u, src, dst, m, fine.p)
        u_nj = u[nojump]
        new_per_state = np.stack([
            _optimize_picker_rows(
                jump_mass[i], u_nj[:, i], y_nj, n_bar, per_state[i], cfg.floor
            )
            for i in range(m)
        ])
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
