"""EM calibration of the hidden factor and migration laws.

The forward/backward recursions over the panel's aggregated per-step
likelihood weights run without a loop over time.  Each recursion is a
product of per-step matrices (``diag(g_t) K^T`` forward, ``K diag(g_t)``
backward), so all its steps at once are the inclusive prefix products of
that sequence.  They come from a work-efficient parallel-prefix scan
(Sarkka & Garcia-Fernandez, 2021): pair neighbours, scan the pairs, fill
in the rest, one batched matrix product per level.  Every column of every
product carries its own log-scale, so columns hundreds of orders of
magnitude apart never underflow against each other.  One exact recursion
step in log space from every scanned row then gives the normalized rows
and their per-step log-scales (so samples thousands of steps long cannot
underflow), decides impossible observations, and checks the scan.

Both E-steps, discrete and continuous, scan only forward, then smooth
from the forward rows alone (Rauch, Tung & Striebel, 1965): the law of
each step's state given the next one's is a column-stochastic matrix, so
the smoothed marginals are prefix products of those, computed by the same
scan with plain products in place of column-scaled ones and checked
against one exact step by the same check; the pairwise posteriors follow
in one broadcast.  The public ``posteriors`` returns the same
smoothing; the backward recursion serves only ``backward_pass``, whose
rows ``posteriors`` checks it against.  The discrete M-step is closed
form.

The restarts of a multi-start fit run in lockstep: their parameters are
stacked on a leading axis, and every E-step and M-step function takes
such leading axes (through ``...`` indexing, so an unbatched call keeps
its shapes and bits).  One iteration is then one E-step for all
restarts, which on short panels saves the per-call overhead that would
otherwise be paid once per restart.  A restart leaves the stack
when it converges or hits an impossible observation.

The continuous adaptation calibrates on a fine grid with at most one jump
per interval: interval likelihoods come from a uniform picker model (one
entity at a time is allowed to move), and the hidden-chain updates stay
closed form.  In a migration matrix only the diagonal enters the no-jump
likelihood, so each row's off-diagonal entries are the multinomial shares
of its jump mass, in closed form, scaled by one minus the diagonal; the
diagonals solve a concave problem in ``p`` unknowns by damped Newton,
batched over every restart and state.  The fitted fine-grid probabilities
convert to intensity matrices by the small-step linearization.  A no-jump
interval's likelihood depends only on the exposures, which change only at
events and overrides, so the grid is read from the stream as segments,
never interval by interval: every jump interval is one, and so is every
run of equal no-jump intervals.  The segments form a hidden-Markov chain of
their own, scanned like the discrete one with one transition matrix per
segment, and each run's posteriors summed over its intervals come from a
block matrix power (Van Loan, 1978; the same algebra as Ryden's 1996 EM
for Markov-modulated Poisson processes).  The migration-row objective sums
that mass per distinct no-jump exposure vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DataError, ImpossibleObservationError, ModelError, NumericalError
from .model import (
    EventStream,
    HiddenFactorSpec,
    MigrationLaw,
    MigrationPanel,
    Mode,
    _check_model,
    _exposures_at,
    _grid_positions,
    _positive,
    _whole,
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
        for name, least in (("restarts", 1), ("max_iters", 1), ("seed", 0)):
            object.__setattr__(self, name, _whole(getattr(self, name), name, least))
        _positive(self.tol, "tol")
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


def _prefix_products(parts: tuple[np.ndarray, ...], product) -> tuple[np.ndarray, ...]:
    """Inclusive prefix products ``x[k] @ ... @ x[0]`` along the leading
    axis of a sequence of matrices ``x`` held as ``parts``, arrays that
    share that axis, computed in place; axes between the leading axis and
    the matrix axes are batch axes.  ``product(*a, *b)`` returns the parts
    of ``a @ b``: ``_scaled_matmul`` on (matrices, column log-scales), or
    plain ``@`` on the matrices alone, which suits column-stochastic ones
    (every product of those is column-stochastic too, so nothing needs
    scaling).

    Work-efficient scan: multiply neighbouring pairs, scan the half-length
    sequence of pairs, then extend each odd prefix by the next even matrix.
    O(n) matrix products in O(log n) batched calls.
    """
    n = parts[0].shape[0]
    if n > 1:
        pairs = product(*(x[1::2] for x in parts), *(x[:-1:2] for x in parts))
        odd = _prefix_products(pairs, product)
        fill = (n - 1) // 2
        even = product(*(x[2::2] for x in parts), *(x[:fill] for x in odd))
        for x, x_odd, x_even in zip(parts, odd, even):
            x[1::2], x[2::2] = x_odd, x_even
    return parts


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
        prods, scale = _prefix_products(
            _exp_normalized(log_mats.swapaxes(0, -3), -2), _scaled_matmul
        )
    col_weight, _ = _exp_normalized(scale, -1)
    rows = np.einsum("...ij,...j->...i", prods, col_weight).swapaxes(0, -2)
    total = rows.sum(axis=-1, keepdims=True)
    return rows / np.where(total > 0.0, total, 1.0)


def _first_flagged(flags: np.ndarray, last: bool) -> tuple[int, int] | None:
    """The first restart (in batch order) with a flagged step, and its first
    flagged step (its last when ``last``); None when nothing is flagged."""
    if not flags.any():
        return None
    flat = flags.reshape(-1, flags.shape[-1])
    r = int(flat.any(axis=1).argmax())
    steps = np.flatnonzero(flat[r])
    return r, int(steps[-1] if last else steps[0])


def _check_scan(scanned: np.ndarray, exact: np.ndarray, checked, last: bool, message: str):
    """Raise a NumericalError, ``message`` formatted with the step, at the
    first (``last``: the last) step, of those ``checked``, whose scanned row
    differs from its exact one by more than 1e-9, or where either holds a
    NaN: the scan lost precision (or, in :func:`posteriors`, the rows it
    is checked against do not belong to it)."""
    diff = _max_over(np.abs(scanned - exact), -1)
    lost = _first_flagged(checked & ~(diff <= 1e-9), last)
    if lost is not None:
        raise NumericalError(message.format(lost[1]), time_index=lost[1])


def _settled(
    scanned: np.ndarray, row: np.ndarray, impossible: np.ndarray, last: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Normalize the exact-step rows ``row`` and check the scanned rows
    against them; return the normalized rows and their norms.

    A forward recursion dies at its first row of zero norm, a backward one
    (``last``) at its last; the rows it computed before dying must agree
    with the scan, or the scan lost precision and a NumericalError names
    the first (forward) or last (backward) disagreeing step.  A NaN norm
    is no death: its row fails the check.  A restart whose recursion dies
    then raises ImpossibleObservationError at the step that killed it; with
    several restarts, the first that fails decides both errors.
    """
    norm = row.sum(axis=-1)
    flip = (lambda x: x[..., ::-1]) if last else (lambda x: x)
    alive = flip(np.logical_and.accumulate(flip(~(norm <= 0.0)), axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = row / norm[..., None]
        _check_scan(
            scanned, exact, alive, last,
            "the prefix scan lost precision at step {}: the per-step likelihoods "
            "span more orders of magnitude than double precision holds",
        )
    dead = _first_flagged(~alive, last)
    if dead is not None:
        r, t = dead[0], dead[1] + last  # beta[t] reads step t + 1
        every = impossible.reshape(-1, impossible.shape[-1])[r, t]
        raise ImpossibleObservationError(
            "observations at one step are impossible under every hidden state" if every
            else "observations are impossible under every reachable hidden state",
            time_index=t,
        )
    return exact, norm


def _leading(trans: np.ndarray, logg: np.ndarray) -> np.ndarray:
    """The transitions into steps 1, 2, ... of the per-step log-weights
    ``logg``, shape (..., steps - 1 or 1, m, m): ``trans`` is either one
    matrix shared by every step, (..., m, m), or one matrix per step,
    (..., steps, m, m), where ``trans[..., t, :, :]`` leads into step ``t``
    (the first is unused)."""
    return trans[..., 1:, :, :] if trans.ndim > logg.ndim else trans[..., None, :, :]


def _times(rows: np.ndarray, lead: np.ndarray) -> np.ndarray:
    """Rows (..., n, m) times their transitions ``lead`` from
    :func:`_leading`: the shared matrix, or each row its own."""
    if lead.shape[-3] == 1:
        return rows @ lead[..., 0, :, :]
    return (rows[..., None, :] @ lead)[..., 0, :]


def _forward(logg: np.ndarray, pi: np.ndarray, trans: np.ndarray) -> ForwardResult:
    *batch, steps, m = logg.shape
    impossible = ~np.isfinite(logg.max(axis=-1))
    lead = _leading(trans, logg)
    with np.errstate(divide="ignore"):
        log_mats = _time_major(np.full((steps, *batch, m, m), -np.inf))
        log_mats[..., 0, range(m), range(m)] = np.log(pi) + logg[..., 0, :]
        log_mats[..., 1:, :, :] = logg[..., 1:, :, None] + np.log(np.swapaxes(lead, -1, -2))
        scanned = _scan_directions(log_mats)
        # one exact recursion step, in log space, from each scanned row
        carry = np.concatenate([pi[..., None, :], _times(scanned[..., :-1, :], lead)], axis=-2)
        row, top = _exp_normalized(np.log(carry) + logg, -1)
    alpha, norm = _settled(scanned, row, impossible, last=False)
    log_scale = np.cumsum(np.log(norm) + top, axis=-1)
    loglik = log_scale[..., -1]
    return ForwardResult(alpha, log_scale, loglik if batch else float(loglik))


def _backward(logg: np.ndarray, trans: np.ndarray) -> BackwardResult:
    *batch, steps, m = logg.shape
    impossible = ~np.isfinite(logg.max(axis=-1))
    lead = _leading(trans, logg)
    # reversed: element k drives beta[steps - 1 - k]; the flat terminal
    # column is folded into element 0
    with np.errstate(divide="ignore"):
        log_mats = _time_major(np.zeros((steps, *batch, m, m)))
        log_mats[..., 1:, :, :] = np.log(lead)[..., ::-1, :, :] + logg[..., :0:-1, None, :]
        scanned = _scan_directions(log_mats)[..., ::-1, :]
        # one exact recursion step, in log space, from each scanned row;
        # beta[t] reads step t + 1
        w, top = _exp_normalized(logg[..., 1:, :] + np.log(scanned[..., 1:, :]), -1)
    row = np.concatenate([_times(w, np.swapaxes(lead, -1, -2)), np.ones((*batch, 1, m))], axis=-2)
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
    _check_model("forward_pass", Mode.DISCRETE, factor, law, None, panel.p)
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
    _check_model("backward_pass", Mode.DISCRETE, factor, law, None, panel.p)
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
    column marginal ``u[t + 1]``.  ``fwd`` and ``bwd`` must cover the
    panel's steps.

    ``u`` and ``v`` are smoothed from the forward rows alone, as in the
    fitters' E-step (:func:`_smoothed`).  The backward rows check them:
    at every step, ``u`` must match the normalized product ``fwd.alpha *
    bwd.beta`` within 1e-9, or a NumericalError names the first step where
    the forward and backward rows disagree (passes over two different
    panels, say, or a product row of zero sum).
    """
    _check_model("posteriors", Mode.DISCRETE, factor, law, None, panel.p)
    want = (panel.steps, factor.m)
    if fwd.alpha.shape != want or bwd.beta.shape != want:
        raise DataError(
            f"posteriors: forward rows of shape {fwd.alpha.shape} and backward rows of "
            f"shape {bwd.beta.shape} do not cover a panel of {panel.steps} steps "
            f"and {factor.m} states"
        )
    if panel.steps == 0:
        m = factor.m
        return np.empty((0, m)), np.empty((0, m, m))
    u, v = _smoothed(fwd.alpha, _leading(factor.trans, fwd.alpha))
    with np.errstate(invalid="ignore"):  # a product row of zero sum fails the check
        product = fwd.alpha * bwd.beta
        product /= product.sum(axis=-1, keepdims=True)
    _check_scan(
        u, product, checked=True, last=False,
        message="posteriors: the forward and backward rows disagree at step {}",
    )
    return u, v


def _smoothed(alpha: np.ndarray, lead: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The smoothing posteriors ``u`` and ``v`` (see :func:`posteriors`)
    from the forward rows ``alpha`` and their transitions ``lead`` (see
    :func:`_leading`) alone (Rauch, Tung & Striebel, 1965).

    Given step ``t + 1``'s state ``j``, step ``t``'s state has the law
    ``B_t[:, j] = alpha_t * K[:, j] / pred[j]``, with ``pred = alpha_t K``
    the one-step prediction; where ``pred[j]`` is 0 the column stays zero.
    Then ``u_(T-1) = alpha_(T-1)``, ``u_t = B_t u_(t+1)`` and ``v_t = B_t
    * u_(t+1)``.  The ``B_t`` are column-stochastic, so ``u`` comes from
    the forward recursion's scan (:func:`_prefix_products`) with plain
    products in place of column-scaled ones, reversed, with ``alpha_(T-1)``
    folded into its first matrix; one exact step from every scanned row
    checks the scan, by the forward recursion's check (:func:`_check_scan`)."""
    *batch, steps, m = alpha.shape
    kernels = alpha[..., :-1, :, None] * lead
    pred = np.einsum("...ij->...j", kernels)[..., None, :]
    np.divide(kernels, pred, out=kernels, where=pred > 0.0)
    mats = np.empty((steps, *batch, m, m))
    # reversed: element k drives u[steps - 1 - k]
    reversed_mats = _time_major(mats)
    reversed_mats[..., 0, :, :] = alpha[..., -1, :, None]
    reversed_mats[..., 1:, :, :] = kernels[..., ::-1, :, :]
    (prods,) = _prefix_products((mats,), lambda a, b: (a @ b,))
    scanned = _time_major(prods)[..., ::-1, :, 0]
    v = kernels * scanned[..., 1:, None, :]
    with np.errstate(invalid="ignore"):  # a corrupt scan's 0 / 0 fails the check
        v /= np.einsum("...tij->...t", v)[..., None, None]
    u = np.concatenate([np.einsum("...ij->...i", v), alpha[..., -1:, :]], axis=-2)
    _check_scan(
        scanned, u, checked=True, last=True, message="the smoothing scan lost precision at step {}"
    )
    return u, v


def _e_step(
    logg: np.ndarray, pi: np.ndarray, trans: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """The E-step on per-step log-weights ``logg``: the log-likelihood and
    the smoothing posteriors ``u`` and ``v`` (see :func:`posteriors`).
    Leading axes of ``logg``, ``pi`` and ``trans`` are restart axes.

    Only the forward recursion is scanned in log space; the posteriors
    follow from its rows (:func:`_smoothed`), with no backward pass."""
    fwd = _forward(logg, pi, trans)
    return fwd.loglik, *_smoothed(fwd.alpha, _leading(trans, logg))


def _floored(x: np.ndarray, floor: float) -> np.ndarray:
    """Laws on the last axis floored at ``floor`` and renormalized."""
    x = np.maximum(x, floor)
    return x / x.sum(axis=-1, keepdims=True)


def m_step(
    u: np.ndarray,
    v: np.ndarray,
    panel: MigrationPanel,
    prev_law: MigrationLaw | np.ndarray,
    floor: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form maximization given the smoothing posteriors.

    Returns updated ``(pi, trans, per_state)`` arrays.  The migration row of
    a state whose expected exposure in some rating class falls below
    ``floor`` keeps its previous value (no information to update it with);
    migration rows are floored at ``floor`` and renormalized.  Leading axes
    of ``u`` and ``v`` are restart axes, and ``prev_law`` may be given as
    its per-state array stacked the same way; all must fit the panel.
    """
    prev = getattr(prev_law, "per_state", prev_law)
    m, steps, p = u.shape[-1], panel.steps, panel.p
    fits = u.shape[-2:-1] == (steps,) and v.shape[-3:] == (max(steps - 1, 0), m, m)
    if not (fits and np.shape(prev)[-3:] == (m, p, p)):
        raise DataError(f"m_step: posteriors of shapes {u.shape} and {v.shape} and previous "
                        f"law of shape {np.shape(prev)} do not fit a {steps}-step {p}-rating panel")
    pi, trans = _chain_m_step(u, v)
    weights = np.swapaxes(u, -1, -2)
    num = weights @ panel.counts.reshape(steps, p * p).astype(float)
    num = num.reshape(*num.shape[:-1], p, p)
    den = weights @ panel.exposures.astype(float)
    blind = den < max(floor, 1e-300)
    per_state = np.where(
        blind[..., None], prev, num / np.where(blind, 1.0, den)[..., None]
    )
    return pi, trans, _floored(per_state, floor)


def _chain_m_step(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form update of the hidden chain's initial law and transition
    matrix; a state never visited before the last step gets a flat row."""
    pi = u[..., 0, :] / u[..., 0, :].sum(axis=-1, keepdims=True)
    k_num = v.sum(axis=-3)
    k_den = u[..., :-1, :].sum(axis=-2)[..., None]
    trans = np.where(k_den > 0, k_num / np.where(k_den > 0, k_den, 1.0), 1.0)
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
    Each E-step scans the forward recursion and smooths from its rows, with
    no backward pass.  The restarts run in lockstep, stacked on a leading
    axis, so one E-step and one M-step serve all of them per iteration.
    The best restart by final log-likelihood wins; its states are
    relabeled from least to most risky before being returned.
    """
    if panel.steps == 0:
        raise DataError("cannot calibrate on an empty panel")
    return _multi_start(panel, panel.p, m, cfg, _discrete_e_and_m)


def _multi_start(data, p, m, cfg, e_and_m) -> CalibrationResult:
    """Run ``cfg.restarts`` EM restarts over ``p`` ratings from seeded
    random starts, ``data`` passed to ``e_and_m`` as it is, and return the
    best, states relabeled from least to most risky.  The starts run in
    lockstep (``_em_lockstep``).  ``m`` not a whole number of at least 1
    or a floor of ``1 / max(m, p)`` or more is a DataError.  A restart that
    hits an impossible observation fails; all failing is a ModelError."""
    m = _whole(m, "m", 1)
    if cfg.floor >= 1.0 / max(m, p):
        raise DataError(f"floor {cfg.floor} too large for {m} states / {p} ratings")
    master = np.random.default_rng(cfg.seed)
    seeds = [int(s) for s in master.integers(0, 2**63 - 1, size=cfg.restarts)]
    starts = [_random_init(np.random.default_rng(seed), m, p, cfg.floor) for seed in seeds]
    traces, params, converged, errors = _em_lockstep(
        data, [np.stack(x) for x in zip(*starts)], cfg, e_and_m
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
# Continuous adaptation: fine grid, uniform picker likelihood, Newton M-step
# --------------------------------------------------------------------------


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


class _Segments(NamedTuple):
    """A fine grid collapsed into segments of equal interval likelihoods.

    Interval 0, the last interval and every jump interval are segments of
    their own; from interval 1 on, every maximal run of no-jump intervals
    with equal exposures is one segment.  Segment ``s`` covers the
    ``lengths[s]`` intervals from ``starts[s]``, which all share its
    ``exposures``, ``src`` and ``dst`` (-1 without a jump).
    """

    starts: np.ndarray
    lengths: np.ndarray
    exposures: np.ndarray
    src: np.ndarray
    dst: np.ndarray


def _fine_segments(events: EventStream, fine_dt: float) -> tuple[_Segments, float]:
    """The grid of ``fine_dt`` over ``events`` as segments, and ``n_bar``,
    the largest per-interval entity total.

    Events fall in intervals by :func:`~migfilter.model._grid_positions`.
    Exposures change only where an event or an override lands, so they are
    read at the candidate starts alone: intervals 0, 1 and the last, every
    jump interval and the one after it, and every interval an override
    reaches; a candidate that continues a no-jump run with equal exposures
    is dropped.  An interval with two events is a DataError, and so is a
    jump from a rating empty at its interval's start (snapping can move an
    override past an event)."""
    steps, bins, boundary_pos = _grid_positions(events, fine_dt)
    twice = np.flatnonzero(np.diff(bins) == 0)
    if twice.size:
        t = int(bins[twice[0]])
        raise DataError(
            f"fine-grid step {t} holds {np.count_nonzero(bins == t)} jumps; "
            "the picker likelihood needs at most one per interval"
        )
    cand = np.unique(np.concatenate(([0, 1, steps - 1], bins, bins + 1, boundary_pos)))
    cand = cand[cand < steps]
    exposures = _exposures_at(events, cand, bins + 1, boundary_pos)
    jumps = np.searchsorted(cand, bins)
    empty = np.flatnonzero(exposures[jumps, events.sources] <= 0)
    if empty.size:
        i = int(empty[0])
        raise DataError(
            f"fine-grid step {int(bins[i])}: event {i} leaves rating {int(events.sources[i])}, "
            "which holds no exposure at the step's start (an override snapped past the event)"
        )
    src, dst = np.full((2, cand.size), -1, dtype=np.int64)
    src[jumps], dst[jumps] = events.sources, events.targets
    # a jump interval's next candidate is the interval after it
    new = (cand < 2) | (cand == steps - 1) | (src >= 0)
    new[1:] |= (src[:-1] >= 0) | (exposures[1:] != exposures[:-1]).any(axis=1)
    n_bar = float(exposures.sum(axis=1).max(initial=0))
    if n_bar <= 0:
        raise DataError("sample holds no entities")
    starts = cand[new]
    lengths = np.diff(starts, append=steps)
    return _Segments(starts, lengths, exposures[new], src[new], dst[new]), n_bar


def _matrix_powers(base: np.ndarray, exps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``base[k]`` to the power ``exps[k]`` along the leading axis, for
    exponents of at least 1 in descending order, by repeated squaring
    batched over ``k``, as column-scaled matrices (see ``_scaled_matmul``),
    so long runs cannot underflow."""
    out, out_scale = base.copy(), np.zeros(base.shape[:-1])
    square, square_scale = base.copy(), np.zeros(base.shape[:-1])
    rest = exps - 1
    live = np.count_nonzero(rest)  # the powers still to square: a prefix
    with np.errstate(divide="ignore"):
        while live:
            odd = np.flatnonzero(rest[:live] % 2)
            out[odd], out_scale[odd] = _scaled_matmul(
                out[odd], out_scale[odd], square[odd], square_scale[odd]
            )
            rest //= 2
            live = np.count_nonzero(rest)
            square[:live], square_scale[:live] = _scaled_matmul(
                square[:live], square_scale[:live], square[:live], square_scale[:live]
            )
    return out, out_scale


def _segment_e_step(
    logg: np.ndarray, pi: np.ndarray, trans: np.ndarray, seg: _Segments
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """The picker E-step on segments, from the segments' log-weights
    ``logg`` (..., segments, m): the log-likelihood, ``u`` summed over each
    segment's intervals, and ``v`` summed over the transitions into each
    segment after the first.  Leading axes are restart axes.

    The segments form a hidden-Markov chain over the state in force at
    their last interval: a run of ``r`` intervals with weights ``g`` and
    ``A = K diag(g)`` steps by ``A^(r-1) K`` and weighs by ``g``.  Its
    column scales move into its log-weights, and the chain is scanned
    forward and smoothed from its rows (:func:`_smoothed`), with per-step
    transitions.  With ``a`` the forward row of the previous segment and
    ``b`` the backward row of the run, the run's summed posteriors come from
    ``C``, the top-right block of ``[[A, b a], [0, A]]^r`` (Van Loan, 1978):
    ``u`` is ``diag(C A)`` and ``v`` is ``K * C^T diag(g)``, both over
    ``sum(diag(C A)) / r``.  No backward scan is needed: the run's smoothed
    row is proportional to its forward row times ``b``, so ``b`` is the
    smoothed row over the forward row, up to a scale that cancels, and 0
    where the forward row is 0 (every term of ``C`` that such an entry
    multiplies is 0, since those terms sum to the run's forward mass in
    that state).  It is divided in log space and scaled to a largest entry
    of 1, so a subnormal forward entry cannot overflow it.  An impossible
    observation, a scan that lost precision, or run sums that are not
    finite, is reported at the first interval of its segment.
    """
    runs = np.flatnonzero(seg.lengths > 1)
    runs = runs[np.argsort(-seg.lengths[runs], kind="stable")]
    r = seg.lengths[runs].reshape(-1, *[1] * (logg.ndim - 1))
    m = logg.shape[-1]
    log_g = np.moveaxis(logg[..., runs, :], -2, 0)
    step = trans * np.exp(log_g)[..., None, :]
    zeros = np.zeros(step.shape[:-1])
    with np.errstate(divide="ignore"):
        into, into_scale = _scaled_matmul(
            *_matrix_powers(step, seg.lengths[runs] - 1), np.broadcast_to(trans, step.shape), zeros
        )
    per_step = np.broadcast_to(trans[..., None, :, :], (*logg.shape, m)).copy()
    per_step[..., runs, :, :] = np.moveaxis(into, 0, -3)
    logg = logg.copy()
    logg[..., runs, :] += np.moveaxis(np.where(np.isfinite(into_scale), into_scale, 0.0), 0, -2)
    try:
        fwd = _forward(logg, pi, per_step)
        u, v = _smoothed(fwd.alpha, _leading(per_step, logg))
    except (ImpossibleObservationError, NumericalError) as exc:
        # the scans count segments; the user counts fine-grid intervals
        t = int(seg.starts[exc.time_index])
        message = str(exc).replace(f"at step {exc.time_index}", f"at fine-grid step {t}")
        raise type(exc)(message, time_index=t) from None
    # the runs' summed posteriors replace their end-of-run ones; a run's
    # backward row is its end-of-run posterior over its forward row
    a, alpha = (np.moveaxis(fwd.alpha[..., at, :], -2, 0) for at in (runs - 1, runs))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_b = np.log(np.moveaxis(u[..., runs, :], -2, 0)) - np.log(alpha)
    b, _ = _exp_normalized(np.where(alpha > 0.0, log_b, -np.inf), -1)
    block = np.zeros((*step.shape[:-2], 2 * m, 2 * m))
    block[..., :m, :m] = block[..., m:, m:] = step
    block[..., :m, m:] = b[..., :, None] * a[..., None, :]
    power, scale = _matrix_powers(block, seg.lengths[runs])
    c, c_scale = power[..., :m, m:], scale[..., m:]
    with np.errstate(divide="ignore"):
        ca, ca_scale = _scaled_matmul(c, c_scale, step, zeros)
        w, top = _exp_normalized(np.log(np.diagonal(ca, axis1=-2, axis2=-1)) + ca_scale, -1)
        total = w.sum(axis=-1, keepdims=True)
        log_z = top[..., None] + np.log(total / r)
        log_v = np.log(np.swapaxes(c, -1, -2)) + (c_scale - log_z)[..., :, None]
        log_v += np.log(trans) + log_g[..., None, :]
    u[..., runs, :] = np.moveaxis(r * w / total, 0, -2)
    v[..., runs - 1, :, :] = np.moveaxis(np.exp(log_v), 0, -3)
    # v[s - 1] leads into segment s
    bad = ~np.isfinite(u).all(axis=-1)
    bad[..., 1:] |= ~np.isfinite(v).all(axis=(-2, -1))
    lost = _first_flagged(bad, last=False)
    if lost is not None:
        t = int(seg.starts[lost[1]])
        raise NumericalError(f"the run sums at fine-grid step {t} are not finite", time_index=t)
    return fwd.loglik, u, v


def _jump_posterior_mass(
    u: np.ndarray, src: np.ndarray, dst: np.ndarray, m: int, p: int
) -> np.ndarray:
    """Expected number of picked jumps per (state, source, target), shape
    (..., m, p, p) for posteriors ``u`` of shape (..., steps, m); leading
    axes are restart axes."""
    mass = np.zeros((*u.shape[:-2], m, p, p))
    rows = np.flatnonzero(src >= 0)
    np.add.at(mass, (..., src[rows], dst[rows]), np.swapaxes(u[..., rows, :], -1, -2))
    return mass


# Damped Newton on the leave probabilities (see ``minimize``): the iteration
# cap, the relative step at which a pair takes its last full step, the
# Armijo fraction of the predicted gain a step must realize, the step
# halvings before a pair stops where it is, the smallest curvature, relative
# to the largest, the Newton step divides by, the fraction of the way to
# the nearest barrier a line search starts from when the full step would
# cross it, and the largest distance to 1 of an epsilon-active coordinate.
_NEWTON_ITERS = 100
_NEWTON_TOL = 1e-6
_ARMIJO = 1e-4
_HALVINGS = 60
_MIN_CURVATURE = 1e-13
_TO_BARRIER = 0.99
_ACTIVE_EPS = 1e-6


def _no_jump_term(d, x, u_nj, y_nj, n_bar):
    """``sum_r u_r log(w_r)`` over the no-jump exposure rows ``y_nj``
    (rows, p), where ``w_r = 1 - sum(y_r) / n_bar + y_r . d / n_bar =
    1 - y_r . x / n_bar`` is the no-jump weight of diagonals ``d`` (..., p)
    with ``x = 1 - d``, and ``w``; rows of zero mass ``u_nj`` (..., rows)
    count 0.  ``log(w_r)`` comes from ``d`` below 1/2 and from ``x`` above
    it, so it keeps its relative precision next to 0 and next to 1."""
    w = 1.0 - y_nj.sum(axis=1) / n_bar + (y_nj @ d[..., None])[..., 0] / n_bar
    with np.errstate(divide="ignore", invalid="ignore"):
        log_w = np.where(w < 0.5, np.log(w), np.log1p(-(y_nj @ x[..., None])[..., 0] / n_bar))
        return np.where(u_nj > 0, u_nj * log_w, 0.0).sum(axis=-1), w


def _picker_q(mat, jump_mass, u_nj, y_nj, n_bar):
    """One state's picker-likelihood contribution
    ``sum_jk J_jk log L_jk + sum_r u_r log(w_r)`` (see :func:`_no_jump_term`)
    for migration matrices ``mat`` (..., p, p), with jump mass ``J`` of the
    same shape."""
    off = ~np.eye(mat.shape[-1], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        jump = np.where(jump_mass > 0, jump_mass * np.log(mat), 0.0)
    stay, _ = _no_jump_term(
        np.diagonal(mat, 0, -2, -1), np.where(off, mat, 0.0).sum(axis=-1), u_nj, y_nj, n_bar
    )
    return jump.reshape(*jump.shape[:-2], -1).sum(axis=-1) + stay


def _leave_objective(d, x, rows_mass, u_nj, y_nj, n_bar):
    """The picker objective when every row's off-diagonal entries are
    ``x_j J_jk / S_j``, up to a constant: ``f(x) = sum_j S_j log(x_j) +
    sum_r u_r log(w_r)`` at the diagonal ``d = 1 - x``, where ``S_j`` is row
    ``j``'s jump mass; and ``w``.  It is -inf outside the domain: some
    ``x_j <= 0`` with ``S_j > 0`` or some ``w_r <= 0`` with ``u_r > 0``."""
    stay, w = _no_jump_term(d, x, u_nj, y_nj, n_bar)
    with np.errstate(divide="ignore", invalid="ignore"):
        leave = np.where(rows_mass > 0, rows_mass * np.log(x), 0.0).sum(axis=-1)
    inside = ((x > 0.0) | (rows_mass == 0)).all(axis=-1) & ((w > 0.0) | (u_nj == 0)).all(axis=-1)
    return np.where(inside, leave + stay, -np.inf), w


def minimize(
    jump_mass: np.ndarray,
    u_nj: np.ndarray,
    y_nj: np.ndarray,
    n_bar: float,
    start: np.ndarray,
    floor: float,
) -> np.ndarray:
    """Maximize the picker objective :func:`_picker_q` (minimize ``-Q``)
    over row-stochastic migration matrices, for a batch of (restart, state)
    pairs on the leading axis: ``jump_mass`` and ``start`` (n, p, p),
    ``u_nj`` (n, rows) on the exposure rows ``y_nj`` (rows, p).

    For a leave probability ``x_j = 1 - L_jj``, row ``j``'s best
    off-diagonal entries are ``x_j J_jk / S_j`` with ``S_j = sum_k J_jk``,
    which leaves the concave problem :func:`_leave_objective` in ``x`` on
    ``0 < x_j <= 1``.  A rating with ``S_j = 0`` stays put (``x_j = 0``), and
    one in no no-jump row of positive mass always leaves (``x_j = 1``, its
    optimum).  The others start from ``start``'s leave probabilities or
    from 0.5, whichever scores higher, and take damped Newton steps on the
    ``p x p`` Hessian.  Each backtracking line search starts from the full
    step, or from ``_TO_BARRIER`` of the way to the nearest barrier
    (``x_j = 0`` or ``w_r = 0``), and accepts a step that realizes
    ``_ARMIJO`` of the gain it predicts.  Coordinates stepping above 1 are
    projected onto 1.  One within ``eps`` of 1 whose gradient points above
    it (``_ACTIVE_EPS``, or the largest projected-gradient move if less)
    takes a gradient step scaled by its curvature and capped at 1 while
    Newton solves the free ones: Bertsekas' (1982) epsilon-active set.
    Every pair iterates alone, so its result does not depend on its batch.

    Returns the matrices floored at ``floor``; a pair whose result scores
    below its ``start`` by more than rounding keeps ``start``.
    """
    # contiguous, so every sum over one pair's entries runs in the same
    # order whatever the batch
    jump_mass, u_nj, start = (np.ascontiguousarray(a) for a in (jump_mass, u_nj, start))
    rows_mass = jump_mass.sum(axis=-1)
    lifted = rows_mass > 0
    eye = np.eye(rows_mass.shape[-1], dtype=bool)
    always = lifted & ~((u_nj > 0).astype(float) @ (y_nj > 0) > 0)
    # the diagonal d and the leave probabilities x = 1 - d are kept apart, so
    # each keeps its relative precision next to 0
    d = np.where(always, 0.0, np.where(lifted, np.diagonal(start, 0, -2, -1), 1.0))
    x = np.where(always, 1.0, np.where(lifted, np.where(eye, 0.0, start).sum(axis=-1), 0.0))
    f, w = _leave_objective(d, x, rows_mass, u_nj, y_nj, n_bar)
    d_mid = np.where(always, 0.0, np.where(lifted, 0.5, 1.0))
    f_mid, w_mid = _leave_objective(d_mid, 1.0 - d_mid, rows_mass, u_nj, y_nj, n_bar)
    # a start next to the x = 0 barrier would take many steps to leave it
    cold = f_mid > f
    d[cold], x[cold] = d_mid[cold], 1.0 - d_mid[cold]
    f[cold], w[cold] = f_mid[cold], w_mid[cold]
    running = np.flatnonzero((lifted & ~always).any(axis=-1))
    for _ in range(_NEWTON_ITERS):
        if not running.size:
            break
        dr, xr, fr = d[running], x[running], f[running]
        s_mass, u = rows_mass[running], u_nj[running]
        free = lifted[running]
        s_over_x = np.where(free, s_mass / np.where(free, xr, 1.0), 0.0)
        wr = np.where(u > 0, w[running], 1.0)
        q = np.where(u > 0, u / wr, 0.0)
        grad = s_over_x - (q[:, None, :] @ y_nj)[:, 0, :] / n_bar
        hess = (y_nj.T * (q / wr)[:, None, :]) @ y_nj / n_bar**2
        hess[:, eye] += s_over_x / np.where(free, xr, 1.0)
        reachable = np.where(free, np.abs(np.clip(grad, -xr, dr)), 0.0).max(axis=-1)
        clamped = free & (grad > 0) & (dr <= np.minimum(_ACTIVE_EPS, reachable)[:, None])
        free &= ~clamped
        scaled = np.minimum(grad / np.where(clamped, np.diagonal(hess, 0, -2, -1), 1.0), dr)
        hess = np.where(free[:, :, None] & free[:, None, :], hess, eye)
        g = np.where(free, grad, 0.0)
        # the Newton step through the eigendecomposition of -H, with
        # curvatures lost to rounding raised to _MIN_CURVATURE of the largest:
        # next to a barrier one curvature can exceed the rest by more than
        # double precision resolves
        curv, basis = np.linalg.eigh(hess)
        curv = np.maximum(curv, _MIN_CURVATURE * curv[:, -1:])
        step = (basis @ ((g[:, None, :] @ basis)[:, 0, :] / curv)[..., None])[..., 0]
        step = np.where(clamped, scaled, step)
        # predicted gain of the full step: Newton on the free coordinates,
        # first order on the clamped ones
        gain = (g * step).sum(axis=-1) + np.where(clamped, grad * step, 0.0).sum(axis=-1)
        dw = -(y_nj @ step[..., None])[..., 0] / n_bar
        with np.errstate(divide="ignore", invalid="ignore"):
            reach = np.minimum(
                np.where(free & (step < 0), xr / -step, np.inf).min(axis=-1, initial=np.inf),
                np.where((u > 0) & (dw < 0), wr / -dw, np.inf).min(axis=-1, initial=np.inf),
            )
        t = np.minimum(1.0, _TO_BARRIER * reach)
        # a full step that is exact Newton (nothing projected) and moves no
        # coordinate by more than _NEWTON_TOL of its distance to 0 or 1 is the
        # last: Newton then leaves an error of about its square, and the step
        # is taken whenever it stays inside
        with np.errstate(divide="ignore", invalid="ignore"):
            moves = np.where(free & (step != 0), np.abs(step) / np.minimum(xr, dr), 0.0)
        projected = (free & (xr + step > 1.0)).any(axis=-1)
        last = (moves <= _NEWTON_TOL).all(axis=-1) & ~projected & (t == 1.0)
        last &= ~(clamped & (dr > 0.0)).any(axis=-1)
        todo = np.arange(len(running))
        for _ in range(_HALVINGS):
            move = t[todo, None] * step[todo]
            keep = ~(free | clamped)[todo]
            trial_d = np.where(keep, dr[todo], np.maximum(dr[todo] - move, 0.0))
            trial = np.where(keep, xr[todo], np.minimum(xr[todo] + move, 1.0))
            f_trial, w_trial = _leave_objective(trial_d, trial, s_mass[todo], u[todo], y_nj, n_bar)
            ok = np.isfinite(f_trial) & (
                last[todo]
                | ((f_trial >= fr[todo] + _ARMIJO * t[todo] * gain[todo]) & (f_trial > fr[todo]))
            )
            done = running[todo[ok]]
            d[done], x[done] = trial_d[ok], trial[ok]
            f[done], w[done] = f_trial[ok], w_trial[ok]
            todo = todo[~ok]
            if not todo.size:
                break
            t[todo] /= 2.0
        # a pair stops after its last step, or where no step length helps
        last[todo] = True
        running = running[~last]
    share = jump_mass / np.where(lifted, rows_mass, 1.0)[..., None]
    mat = np.where(eye, d[..., None], x[..., None] * share)
    mat = _floored(mat, floor)
    q_new, q_start = (_picker_q(a, jump_mass, u_nj, y_nj, n_bar) for a in (mat, start))
    worse = q_new + 1e-12 * (1.0 + np.abs(q_start)) < q_start
    return np.where(worse[:, None, None], start, mat)


def em_fit_continuous(
    events: EventStream,
    m: int,
    cfg: EmConfig,
    fine_dt: float,
    to_generator: bool = True,
) -> CalibrationResult:
    """Multi-start EM fit adapted to event data with no simultaneous jumps.

    Events fall in intervals of ``fine_dt`` (positive and finite) by the
    grid readers' snap rule, at most one per interval.  Interval likelihoods
    come from the uniform picker model; the hidden chain's updates are
    closed form, and each migration matrix has closed-form off-diagonal
    shares and a diagonal found by damped Newton (see :func:`minimize`; an
    iteration only ever accepts a non-decreasing objective).  The fitted
    fine-grid probabilities are returned as intensity matrices when
    ``to_generator`` is set.

    The E-step takes one forward scan step per segment (see
    :func:`_fine_segments`) and smooths from the forward rows, with no
    backward pass; each run's posteriors are summed in closed form (see
    :func:`_segment_e_step`), and the migration-row objective takes one term
    per distinct no-jump exposure vector.  The result is the per-interval EM's
    up to rounding, at a cost that follows the number of segments rather
    than of intervals.

    Conversion note: the fitted migration matrix is the law of a *picked*
    entity, and an entity is picked once per ``n_bar`` intervals on average,
    so its intensities are ``(L - I) / (n_bar * fine_dt)``; the hidden chain
    moves every interval, so its generator is ``(K - I) / fine_dt``.
    """
    seg, n_bar = _fine_segments(events, fine_dt)
    nojump = seg.src < 0
    y_nj, row_of = np.unique(seg.exposures[nojump].astype(float), axis=0, return_inverse=True)
    p = events.p

    def e_and_m(seg, pi, trans, per_state, cfg):
        """One iteration of the restarts stacked on the leading axis: one
        batched E-step on segments, then one batched M-step solve for every
        (restart, state) pair over the distinct no-jump exposure rows."""
        m = pi.shape[-1]
        logw = _picker_log_weights(seg.exposures, seg.src, seg.dst, per_state, n_bar)
        loglik, u, v = _segment_e_step(logw, pi, trans, seg)
        u_nj = np.zeros((len(per_state), len(y_nj), m))
        np.add.at(u_nj, (slice(None), row_of.ravel()), u[:, nojump])
        pairs = len(per_state) * m
        new_per_state = minimize(
            _jump_posterior_mass(u, seg.src, seg.dst, m, p).reshape(pairs, p, p),
            np.swapaxes(u_nj, 1, 2).reshape(pairs, len(y_nj)),
            y_nj, n_bar, per_state.reshape(pairs, p, p), cfg.floor,
        )
        return loglik, (*_chain_m_step(u, v), new_per_state.reshape(per_state.shape))

    result = _multi_start(seg, p, m, cfg, e_and_m)
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
