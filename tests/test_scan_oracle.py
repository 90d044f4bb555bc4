"""The time-vectorised E-step against the sequential recursions it replaced.

The reference loops below are the step-by-step scaled forward/backward
recursions and the per-step pairwise posteriors.  The scans must agree
with them to 1e-12, raise the same errors at the same time index, and
survive samples long enough to underflow an unscaled recursion.  Where
the scaled loops themselves underflow, a log-space recursion is the
reference.
"""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from migfilter import calibrate
from migfilter.calibrate import _backward, _forward, _posteriors_from
from migfilter.errors import ImpossibleObservationError, NumericalError

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


def log_space_forward(logg, pi, trans):
    """Sequential forward recursion on log-probabilities: no underflow."""
    with np.errstate(divide="ignore"):
        log_trans = np.log(trans)
        log_alpha = [np.log(pi) + logg[0]]
    for t in range(1, logg.shape[0]):
        log_alpha.append(logsumexp(log_alpha[-1][:, None] + log_trans, axis=0) + logg[t])
    log_alpha = np.array(log_alpha)
    total = logsumexp(log_alpha, axis=1)
    return np.exp(log_alpha - total[:, None]), total[-1]


def log_space_backward(logg, trans):
    with np.errstate(divide="ignore"):
        log_trans = np.log(trans)
    log_beta = [np.zeros(logg.shape[1])]
    for t in range(logg.shape[0] - 1, 0, -1):
        log_beta.append(logsumexp(log_trans + logg[t] + log_beta[-1], axis=1))
    log_beta = np.array(log_beta[::-1])
    return np.exp(log_beta - logsumexp(log_beta, axis=1)[:, None])


def test_near_reducible_chains_match_log_space_recursion():
    # switches as rare as 1e-300 and steps favouring one state by hundreds
    # of nats: the per-step scaled loop underflows on many of these (it
    # disagrees with the log-space recursion on about one in six), the
    # column-scaled scan must not
    rng = np.random.default_rng(5)
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
        np.testing.assert_allclose(_backward(logg, trans).beta, beta, rtol=0, atol=1e-10)


def test_scan_disagreeing_with_exact_step_raises(monkeypatch):
    logg, pi, trans = random_problem(np.random.default_rng(0), 20, 3)
    scan = calibrate._scan_directions
    monkeypatch.setattr(calibrate, "_scan_directions", lambda mats: scan(mats)[::-1])
    with pytest.raises(NumericalError, match="lost precision"):
        _forward(logg, pi, trans)
    with pytest.raises(NumericalError, match="lost precision"):
        _backward(logg, trans)


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
    assert assert_same_outcome(_backward, loop_backward, logg, trans) == 6
