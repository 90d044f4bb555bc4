"""The time-vectorised E-step against the sequential recursions it replaced.

The reference loops below are the step-by-step scaled forward/backward
recursions and the per-step pairwise posteriors.  The scans, and the
E-step's posteriors smoothed from the forward rows alone, must agree with
them to 1e-12, raise the same errors at the same time index, and survive
samples long enough to underflow an unscaled recursion.  Where the scaled
loops themselves underflow, a log-space recursion is the reference.
"""

import contextlib
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from migfilter import calibrate, filtering
from migfilter.calibrate import _backward, _e_step, _exp_normalized, _forward, _leading
from migfilter.errors import ImpossibleObservationError, NumericalError
from migfilter.model import HiddenFactorSpec, MigrationLaw, MigrationPanel

EVERY = "observations at one step are impossible under every hidden state"
REACHABLE = "observations are impossible under every reachable hidden state"


def loop_forward(logg, pi, trans):
    steps, m = logg.shape
    alpha = np.empty((steps, m))
    log_scale = np.empty(steps)
    carry = pi
    total = 0.0
    for t in range(steps):
        top = logg[t].max()
        if not np.isfinite(top):
            raise ImpossibleObservationError(EVERY, time_index=t)
        if t > 0:
            carry = trans.T @ alpha[t - 1]
        row = carry * np.exp(logg[t] - top)
        norm = row.sum()
        if norm <= 0.0:
            raise ImpossibleObservationError(REACHABLE, time_index=t)
        alpha[t] = row / norm
        total += math.log(norm) + top
        log_scale[t] = total
    return alpha, log_scale, total


def loop_backward(logg, trans):
    """Backward loop that, like the forward one, stops on a step impossible
    under every state instead of carrying NaN through."""
    steps, m = logg.shape
    beta = np.empty((steps, m))
    log_scale = np.empty(steps)
    beta[steps - 1] = 1.0 / m
    log_scale[steps - 1] = math.log(m)
    for t in range(steps - 2, -1, -1):
        top = logg[t + 1].max()
        if not np.isfinite(top):
            raise ImpossibleObservationError(EVERY, time_index=t + 1)
        row = trans @ (np.exp(logg[t + 1] - top) * beta[t + 1])
        norm = row.sum()
        if norm <= 0.0:
            raise ImpossibleObservationError(REACHABLE, time_index=t + 1)
        beta[t] = row / norm
        log_scale[t] = log_scale[t + 1] + math.log(norm) + top
    return beta, log_scale


def loop_posteriors(logg, alpha, beta, trans):
    steps, m = logg.shape
    u = alpha * beta
    u /= u.sum(axis=1, keepdims=True)
    v = np.empty((steps - 1, m, m))
    for t in range(steps - 1):
        g = np.exp(logg[t + 1] - logg[t + 1].max())
        joint = alpha[t][:, None] * trans * (g * beta[t + 1])[None, :]
        v[t] = joint / joint.sum()
    return u, v


def _posteriors_from(logg, fwd, bwd, trans):
    """The alpha-beta posteriors, vectorised over steps: ``u`` the
    normalized product of the forward and backward rows, ``v`` each step's
    forward row times its transition, weights and backward row."""
    u = fwd.alpha * bwd.beta
    u /= u.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore"):
        w, _ = _exp_normalized(logg[..., 1:, :] + np.log(bwd.beta[..., 1:, :]), -1)
    v = fwd.alpha[..., :-1, :, None] * _leading(trans, logg)
    v *= w[..., None, :]
    v /= np.einsum("...tij->...t", v)[..., None, None]
    return u, v


def random_problem(rng, steps, m, spread=20.0, holes=0.1):
    """Log-weights with a wide spread between states and some states
    impossible at some steps (never all at once), a random chain."""
    logg = rng.normal(scale=spread, size=(steps, m)) - 50.0
    if m > 1:
        hole = rng.random((steps, m)) < holes
        hole[np.arange(steps), rng.integers(0, m, size=steps)] = False
        logg[hole] = -np.inf
    pi = rng.dirichlet(np.ones(m))
    trans = rng.dirichlet(np.ones(m), size=m)
    return logg, pi, trans


def assert_matches_loops(logg, pi, trans):
    alpha, f_scale, loglik = loop_forward(logg, pi, trans)
    beta, b_scale = loop_backward(logg, trans)
    fwd = _forward(logg, pi, trans)
    bwd = _backward(logg, trans)
    np.testing.assert_allclose(fwd.alpha, alpha, rtol=0, atol=1e-12)
    np.testing.assert_allclose(bwd.beta, beta, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fwd.log_scale, f_scale, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(bwd.log_scale, b_scale, rtol=1e-12, atol=1e-12)
    assert fwd.loglik == pytest.approx(loglik, rel=1e-12, abs=1e-12)
    u_ref, v_ref = loop_posteriors(logg, alpha, beta, trans)
    u, v = _posteriors_from(logg, fwd, bwd, trans)
    assert u.shape == u_ref.shape and v.shape == v_ref.shape
    np.testing.assert_allclose(u, u_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(v, v_ref, rtol=0, atol=1e-12)
    # the E-step smooths from the forward rows alone, to the same posteriors
    e_loglik, e_u, e_v = _e_step(logg, pi, trans)
    assert e_loglik == fwd.loglik
    assert e_u.shape == u.shape and e_v.shape == v.shape
    np.testing.assert_allclose(e_u, u, rtol=0, atol=1e-12)
    np.testing.assert_allclose(e_v, v, rtol=0, atol=1e-12)
    # the public posteriors are that smoothing, passing their alpha-beta
    # check; they read the panel and law only for their sizes
    steps, m = logg.shape
    panel = MigrationPanel(np.zeros((steps, 1)), np.zeros((steps, 1, 1)))
    p_u, p_v = calibrate.posteriors(
        fwd, bwd, panel, HiddenFactorSpec(pi, trans), MigrationLaw(np.ones((m, 1, 1)))
    )
    np.testing.assert_array_equal(p_u, e_u)
    np.testing.assert_array_equal(p_v, e_v)
    return fwd, bwd


@pytest.mark.parametrize("m", [1, 2, 4, 8])
@pytest.mark.parametrize("steps", [1, 2, 3, 50, 2000])
def test_scans_match_loops(steps, m):
    rng = np.random.default_rng(1000 * steps + m)
    for _ in range(3):
        assert_matches_loops(*random_problem(rng, steps, m))


def test_sticky_chain_with_tiny_transitions():
    rng = np.random.default_rng(7)
    logg, pi, _ = random_problem(rng, 300, 4, spread=5.0, holes=0.0)
    trans = np.full((4, 4), 1e-12) + np.eye(4)
    trans /= trans.sum(axis=1, keepdims=True)
    assert_matches_loops(logg, pi, trans)


def test_long_sample_underflows_unscaled_recursion():
    rng = np.random.default_rng(3)
    steps, m = 20000, 3
    logg, pi, trans = random_problem(rng, steps, m, spread=3.0, holes=0.0)
    # the unscaled likelihood is far below the smallest double
    assert logg.max(axis=1).sum() < -1e5
    fwd, bwd = assert_matches_loops(logg, pi, trans)
    assert np.all(np.isfinite(fwd.alpha)) and np.all(np.isfinite(bwd.beta))
    assert np.isfinite(fwd.loglik)


def log_space_alpha(logg, pi, trans):
    """Sequential forward recursion on log-probabilities: no underflow."""
    with np.errstate(divide="ignore"):
        log_trans = np.log(trans)
        log_alpha = [np.log(pi) + logg[0]]
    for t in range(1, logg.shape[0]):
        log_alpha.append(logsumexp(log_alpha[-1][:, None] + log_trans, axis=0) + logg[t])
    return np.array(log_alpha)


def log_space_beta(logg, trans):
    with np.errstate(divide="ignore"):
        log_trans = np.log(trans)
    log_beta = [np.zeros(logg.shape[1])]
    for t in range(logg.shape[0] - 1, 0, -1):
        log_beta.append(logsumexp(log_trans + logg[t] + log_beta[-1], axis=1))
    return np.array(log_beta[::-1])


def log_space_forward(logg, pi, trans):
    log_alpha = log_space_alpha(logg, pi, trans)
    total = logsumexp(log_alpha, axis=1)
    return np.exp(log_alpha - total[:, None]), total[-1]


def log_space_backward(logg, trans):
    log_beta = log_space_beta(logg, trans)
    return np.exp(log_beta - logsumexp(log_beta, axis=1)[:, None])


def log_space_smoother(logg, pi, trans):
    """``u`` and ``v`` from the log-space forward and backward rows."""
    log_alpha, log_beta = log_space_alpha(logg, pi, trans), log_space_beta(logg, trans)
    with np.errstate(divide="ignore"):
        log_trans = np.log(trans)
    log_u = log_alpha + log_beta
    log_v = log_alpha[:-1, :, None] + log_trans + (logg[1:] + log_beta[1:])[:, None, :]
    return (
        np.exp(log_u - logsumexp(log_u, axis=1, keepdims=True)),
        np.exp(log_v - logsumexp(log_v, axis=(1, 2), keepdims=True)),
    )


def test_near_reducible_chains_match_log_space_recursion(monkeypatch):
    # switches as rare as 1e-300 and steps favouring one state by hundreds
    # of nats: the per-step scaled loop underflows on many of these (it
    # disagrees with the log-space recursion on about one in six), the
    # column-scaled scan and the filter built on it must not
    rng = np.random.default_rng(5)
    panel = MigrationPanel(np.zeros((60, 1)), np.zeros((60, 1, 1)))
    for _ in range(60):
        m = int(rng.integers(2, 5))
        logg = rng.normal(scale=300.0, size=(60, m))
        trans = 10.0 ** -rng.uniform(0, 300, size=(m, m))
        trans[np.arange(m), rng.integers(0, m, size=m)] = 1.0
        trans /= trans.sum(axis=1, keepdims=True)
        pi = rng.dirichlet(np.ones(m))
        alpha, loglik = log_space_forward(logg, pi, trans)
        fwd = _forward(logg, pi, trans)
        np.testing.assert_allclose(fwd.alpha, alpha, rtol=0, atol=1e-10)
        assert fwd.loglik == pytest.approx(loglik, rel=1e-12)
        beta = log_space_backward(logg, trans)
        bwd = _backward(logg, trans)
        np.testing.assert_allclose(bwd.beta, beta, rtol=0, atol=1e-10)
        u_ref, v_ref = log_space_smoother(logg, pi, trans)
        _, u, v = _e_step(logg, pi, trans)
        np.testing.assert_allclose(u, u_ref, rtol=0, atol=1e-10)
        np.testing.assert_allclose(v, v_ref, rtol=0, atol=1e-10)
        # smoothing from the forward rows keeps the alpha-beta posteriors
        u_ab, v_ab = _posteriors_from(logg, fwd, bwd, trans)
        np.testing.assert_allclose(u, u_ab, rtol=0, atol=1e-12)
        np.testing.assert_allclose(v, v_ab, rtol=0, atol=1e-12)
        # the filter reads the same weights through a one-rating panel
        monkeypatch.setattr(filtering, "_panel_log_weights", lambda panel, law: logg)
        traj = filtering.run_filter(
            panel, HiddenFactorSpec(pi, trans), MigrationLaw(np.ones((m, 1, 1)))
        )
        assert traj.loglik == pytest.approx(loglik, rel=1e-12)
        np.testing.assert_allclose(traj.probs_matrix()[1:], alpha @ trans, rtol=0, atol=1e-10)


def test_subnormal_prediction_smooths_to_finite_posteriors():
    # state 1 holds no filtered mass at steps 0 and 1, so its one-step
    # prediction into step 2 is the subnormal switch probability; step 2
    # then favours it by 1000 nats, so nearly all smoothed mass lands on it
    trans = np.array([[1.0, 1e-310], [0.5, 0.5]])
    pi = np.array([1.0, 0.0])
    logg = np.array([[0.0, -1000.0], [0.0, -1000.0], [-1000.0, 0.0], [-1000.0, 0.0]])
    pred = _forward(logg, pi, trans).alpha[:-1] @ trans
    assert np.any((pred > 0.0) & (pred < np.finfo(float).tiny))
    u_ref, v_ref = log_space_smoother(logg, pi, trans)
    _, u, v = _e_step(logg, pi, trans)
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(v))
    np.testing.assert_allclose(u, u_ref, rtol=0, atol=1e-10)
    np.testing.assert_allclose(v, v_ref, rtol=0, atol=1e-10)


def on_smoothing_scan(scan, corrupt):
    """``_prefix_rows`` (``scan``) with ``corrupt`` applied to the rows of
    every whole plain-product scan, the smoothing scan: not to its halves,
    and not to the column-scaled scans of the recursions."""
    depth = 0

    def corrupted(mats, rows, product):
        nonlocal depth
        depth += 1
        try:
            out = scan(mats, rows, product)
        finally:
            depth -= 1
        return (corrupt(out[0]),) if depth == 0 and len(out) == 1 else out

    return corrupted


def with_nan_row(rows):
    rows[len(rows) // 2] = np.nan
    return rows


def test_scan_disagreeing_with_exact_step_raises(monkeypatch):
    logg, pi, trans = random_problem(np.random.default_rng(0), 20, 3)
    scan = calibrate._scan_directions
    monkeypatch.setattr(calibrate, "_scan_directions", lambda mats: scan(mats)[::-1])
    with pytest.raises(NumericalError, match="lost precision"):
        _forward(logg, pi, trans)
    with pytest.raises(NumericalError, match="lost precision"):
        _backward(logg, trans)
    # the E-step's smoothing scan is checked the same way; a NaN, or rows
    # of zeros (0 / 0 in the pairwise posteriors), fail it too
    monkeypatch.setattr(calibrate, "_scan_directions", scan)
    rows = calibrate._prefix_rows
    for corrupt in (lambda x: x[::-1], with_nan_row, lambda x: 0 * x):
        monkeypatch.setattr(calibrate, "_prefix_rows", on_smoothing_scan(rows, corrupt))
        with pytest.raises(NumericalError, match="smoothing scan lost precision"):
            _e_step(logg, pi, trans)


def test_nan_scan_row_is_lost_precision_not_a_dead_recursion(monkeypatch):
    """A NaN row of the prefix scan makes the exact step's norm NaN, which
    must fail the scan check, not count as an impossible observation."""
    logg, pi, trans = random_problem(np.random.default_rng(0), 20, 3)
    scan = calibrate._scan_directions

    def corrupt(log_mats):
        rows = scan(log_mats)
        rows[..., 7, :] = np.nan
        return rows

    monkeypatch.setattr(calibrate, "_scan_directions", corrupt)
    # the backward scan runs reversed: its row 7 is beta[12]
    for run, args, t in [(_forward, (logg, pi, trans), 7), (_backward, (logg, trans), 12)]:
        with pytest.raises(NumericalError, match="^the prefix scan lost precision") as info:
            run(*args)
        assert info.value.time_index == t


@pytest.mark.parametrize("shift, raises", [(2e-9, True), (5e-10, False)])
def test_scan_check_bound_is_1e9(shift, raises, monkeypatch):
    """Both scans are checked against their exact steps to 1e-9.  The
    shifted row feeds no exact step (the last forward row, the first
    smoothed one), so the shift is the whole difference."""
    logg, pi, trans = random_problem(np.random.default_rng(0), 20, 3)

    def outcome(scan_name):
        if not raises:
            return contextlib.nullcontext()
        return pytest.raises(NumericalError, match=f"^the {scan_name} scan lost precision")

    scan = calibrate._scan_directions

    def shifted_rows(log_mats):
        rows = scan(log_mats)
        rows[..., -1, 0] += shift
        return rows

    monkeypatch.setattr(calibrate, "_scan_directions", shifted_rows)
    with outcome("prefix"):
        _forward(logg, pi, trans)
    monkeypatch.setattr(calibrate, "_scan_directions", scan)

    def shifted_smoothed_row(rows):
        # the last scanned row is the smoothed row of step 0
        rows[-1, ..., 0, 0] += shift
        return rows

    rows = calibrate._prefix_rows
    monkeypatch.setattr(calibrate, "_prefix_rows", on_smoothing_scan(rows, shifted_smoothed_row))
    with outcome("smoothing"):
        _e_step(logg, pi, trans)


def sequential_rows(mats):
    """The rows ``x_k = mats[k] @ x_(k-1)`` from ``x_0``, the first column
    of ``mats[0]``, one matrix-vector product per step."""
    rows = [mats[0][..., :1]]
    for mat in mats[1:]:
        rows.append(mat @ rows[-1])
    return np.stack(rows)


def prefix_rows(mats, *scale):
    """``_prefix_rows`` on ``mats`` with plain products, or with
    column-scaled ones when given column log-scales: the rows as column
    vectors (and their log-scales)."""
    steps, batch, m, _ = mats.shape
    rows = (np.empty((steps, batch, m, 1)), np.empty((steps, batch, 1)))[: 1 + len(scale)]
    product = calibrate._scaled_matmul if scale else lambda a, b: (a @ b,)
    return calibrate._prefix_rows((mats.copy(), *(x.copy() for x in scale)), rows, product)


@pytest.mark.parametrize("steps", range(1, 34))
def test_prefix_rows_match_matrix_vector_loop(steps):
    """The one scan against a loop of matrix-vector products, one batch
    axis: plain products on column-stochastic stacks, and column-scaled
    products on column-scaled ones, with scales drawn N(0, 3) and, where an
    unscaled loop underflows, of +-700 (compared in log space).  The start
    is the first column of the first matrix."""
    rng = np.random.default_rng(steps)
    batch, m = 2, 3
    mats = np.swapaxes(rng.dirichlet(np.ones(m), size=(steps, batch, m)), -1, -2)
    (got,) = prefix_rows(mats)
    np.testing.assert_allclose(got, sequential_rows(mats), rtol=0, atol=1e-12)

    mats = rng.random((steps, batch, m, m))
    scale = rng.normal(scale=3.0, size=(steps, batch, m))
    got, got_scale = prefix_rows(mats, scale)
    want = sequential_rows(mats * np.exp(scale)[..., None, :])
    np.testing.assert_allclose(got * np.exp(got_scale)[..., None], want, rtol=1e-12, atol=0)

    scale = rng.choice([-700.0, 700.0], size=(steps, batch, m))
    got, got_scale = prefix_rows(mats, scale)
    log_mats = np.log(mats) + scale[..., None, :]
    log_want = [log_mats[0, ..., 0]]
    for log_mat in log_mats[1:]:
        log_want.append(logsumexp(log_mat + log_want[-1][..., None, :], axis=-1))
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        unscaled = sequential_rows(mats * np.exp(scale)[..., None, :])
        if steps > 3:
            assert not np.all(np.isfinite(np.log(unscaled)))
        log_got = np.log(got[..., 0]) + got_scale
    np.testing.assert_allclose(log_got, np.stack(log_want), rtol=1e-13, atol=1e-12)


def unreachable_problem(steps):
    """State 2 has no inflow and no initial mass: observations that only it
    can explain are impossible under every reachable state."""
    logg = np.zeros((steps, 3))
    pi = np.array([0.5, 0.5, 0.0])
    trans = np.array([[0.7, 0.3, 0.0], [0.2, 0.8, 0.0], [0.5, 0.5, 0.0]])
    return logg, pi, trans


def raised(fn, *args):
    with pytest.raises(ImpossibleObservationError) as info:
        fn(*args)
    return str(info.value), info.value.time_index


def assert_same_outcome(scan, loop, *args):
    try:
        loop(*args)
    except ImpossibleObservationError as exc:
        assert raised(scan, *args) == (str(exc), exc.time_index)
        return exc.time_index
    scan(*args)
    return None


@pytest.mark.parametrize("kind", ["every", "reachable"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_errors_match_loops(kind, where):
    steps = 9
    t = {"first": 0, "middle": 4, "last": steps - 1}[where]
    logg, pi, trans = unreachable_problem(steps)
    logg[t] = -np.inf if kind == "every" else [-np.inf, -np.inf, 0.0]
    assert assert_same_outcome(_forward, loop_forward, logg, pi, trans) == t
    # the E-step raises the forward pass's error before it smooths
    assert assert_same_outcome(_e_step, loop_forward, logg, pi, trans) == t
    # the backward pass never reads step 0
    expected = None if t == 0 else t
    assert assert_same_outcome(_backward, loop_backward, logg, trans) == expected


@pytest.mark.parametrize("kinds", [("every", "reachable"), ("reachable", "every")])
def test_forward_reports_first_and_backward_last_bad_step(kinds):
    steps = 9
    logg, pi, trans = unreachable_problem(steps)
    for t, kind in zip((2, 6), kinds):
        logg[t] = -np.inf if kind == "every" else [-np.inf, -np.inf, 0.0]
    assert assert_same_outcome(_forward, loop_forward, logg, pi, trans) == 2
    assert assert_same_outcome(_e_step, loop_forward, logg, pi, trans) == 2
    assert assert_same_outcome(_backward, loop_backward, logg, trans) == 6
