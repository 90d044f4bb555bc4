"""The picker M-step's Newton solver against the L-BFGS solver it replaced.

``lbfgs_picker_rows`` below is the old solver: every row of one state's
migration matrix is reparameterized by softmax logits, and scipy's L-BFGS-B
ascends the picker objective in all of them jointly.  ``calibrate.minimize``
puts each row's off-diagonal entries at their closed-form optimum and runs
Newton on the diagonal alone.  On random draws its objective is never
below the reference's beyond rounding, its diagonal meets the KKT
conditions of the bound-constrained problem, and each pair's result does
not depend on the batch it is solved in.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from migfilter import calibrate
from migfilter.calibrate import _floored
from migfilter.calibrate import minimize as newton_picker_rows


def _row_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def picker_q(mat, jump_mass, u_nj, y_nj, n_bar):
    """One state's picker objective, with the diagonal and no-jump weights
    the reference's gradient reuses; a no-jump row without mass counts 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        jump_term = float(np.sum(np.where(jump_mass > 0, jump_mass * np.log(mat), 0.0)))
    diag = np.diag(mat).copy()
    w = 1.0 - y_nj.sum(axis=1) / n_bar + (y_nj @ diag) / n_bar
    with np.errstate(divide="ignore"):
        stay = np.where(u_nj > 0, u_nj * np.log(np.where(u_nj > 0, w, 1.0)), 0.0)
    return jump_term + float(stay.sum()), diag, w


def lbfgs_picker_rows(jump_mass, u_nj, y_nj, n_bar, start, floor):
    """The L-BFGS picker M-step of one state (the package's solver before
    Newton): the new matrix, or ``start`` when the result scores lower."""
    p = start.shape[0]
    jump_row_mass = jump_mass.sum(axis=1)

    def neg_q_and_grad(x: np.ndarray):
        mat = _row_softmax(x.reshape(p, p))
        q, diag, w = picker_q(mat, jump_mass, u_nj, y_nj, n_bar)
        # gradient in logits, division-free through the softmax chain rule
        grad_x = jump_mass - mat * jump_row_mass[:, None]
        d_diag = ((u_nj / w) @ y_nj / n_bar) * diag
        grad_x -= mat * d_diag[:, None]
        grad_x[np.diag_indices(p)] += d_diag
        return -q, -grad_x.ravel()

    q_start, _, _ = picker_q(start, jump_mass, u_nj, y_nj, n_bar)
    x0 = np.log(np.maximum(start, floor)).ravel()
    # trial points whose no-jump weight underflows to 0 score -inf and are
    # backtracked from; outside a test run numpy only warned about them
    with np.errstate(divide="ignore", invalid="ignore"):
        res = minimize(
            neg_q_and_grad,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={"gtol": 1e-8, "ftol": 1e-13, "maxiter": 300},
        )
    mat = _floored(_row_softmax(res.x.reshape(p, p)), floor)
    if picker_q(mat, jump_mass, u_nj, y_nj, n_bar)[0] + 1e-12 * (1.0 + abs(q_start)) < q_start:
        return start
    return mat


def newton_one(case):
    jump_mass, u_nj, y_nj, n_bar, start, floor = case
    return newton_picker_rows(jump_mass[None], u_nj[None], y_nj, n_bar, start[None], floor)[0]


def random_problems(rng, p, rows, pairs):
    """M-step inputs of ``pairs`` states sharing ``rows`` exposure rows:
    ``(J, u, y, n_bar, start)`` with ``J`` and ``start`` (pairs, p, p) and
    ``u`` (pairs, rows).

    Exposure rows hold whole entity counts and ``n_bar`` is at least every
    row's total, as on a fine grid.  Ratings with no departures, zero-mass
    rows, empty samples and ratings absent from every no-jump row (whose
    diagonal optimum lies below 0) are all drawn often, and masses span
    five orders of magnitude.
    """
    y_nj = rng.integers(0, 6, size=(rows, p)).astype(float)
    y_nj[:, rng.random(p) < 0.3] = 0.0  # ratings without no-jump exposure
    n_bar = float(max(y_nj.sum(axis=1).max(initial=0.0), 1.0) + rng.choice([0, 0, 3]))
    scales = [1e-3, 1.0, 50.0]
    u_nj = rng.exponential(size=(pairs, rows)) * rng.choice(scales, size=(pairs, 1))
    u_nj[rng.random((pairs, rows)) < 0.2] = 0.0
    jump_mass = rng.exponential(size=(pairs, p, p)) * rng.choice(scales, size=(pairs, 1, 1))
    jump_mass[rng.random((pairs, p, p)) < 0.3] = 0.0
    jump_mass[rng.random((pairs, p)) < 0.25] = 0.0  # ratings never departed
    jump_mass[:, np.arange(p), np.arange(p)] = 0.0
    start = _floored(rng.dirichlet(np.ones(p), size=(pairs, p)), 1e-12)
    # rows at the bounds a fit with floor 0 returns: d_j = 1 or d_j = 0
    for k, j in zip(*np.nonzero(rng.random((pairs, p)) < 0.2)):
        start[k, j] = np.eye(p)[j if p == 1 or rng.random() < 0.5 else (j + 1) % p]
    return jump_mass, u_nj, y_nj, n_bar, start


@st.composite
def picker_problems(draw):
    """One state's M-step inputs ``(J, u, y, n_bar, start, floor)`` (see
    :func:`random_problems`).  The floor is 0 or the fit's default 1e-12: a
    floor as high as 1e-6 moves both solvers' results by second-order
    amounts of about 1e-12 of the mass, in either direction, which no bound
    on the solvers themselves can separate."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jump_mass, u_nj, y_nj, n_bar, start = random_problems(
        rng, draw(st.integers(1, 5)), draw(st.integers(0, 6)), 1
    )
    return jump_mass[0], u_nj[0], y_nj, n_bar, start[0], draw(st.sampled_from([0.0, 1e-12]))


def edge_case(name):
    """A hand-built draw for each case the solver treats apart."""
    y_nj = np.array([[3.0, 1.0, 0.0], [2.0, 2.0, 1.0], [0.0, 4.0, 1.0]])
    u_nj = np.array([5.0, 2.0, 7.0])
    jump_mass = np.array([[0.0, 1.5, 0.5], [0.7, 0.0, 0.2], [0.3, 0.9, 0.0]])
    start = _floored(np.full((3, 3), 1 / 3), 1e-12)
    floor = 1e-12
    if name == "no_no_jump_rows":
        y_nj, u_nj = y_nj[:0], u_nj[:0]
    elif name == "no_jumps":
        jump_mass = np.zeros((3, 3))
    elif name == "never_departed":
        jump_mass[1] = 0.0
    elif name == "optimum_below_zero":
        # rating 2 holds no no-jump exposure, and rating 0 departs so often
        # that its unconstrained optimum lies below 0 too
        y_nj[:, 2] = 0.0
        jump_mass[0] *= 1e3
    elif name == "floor_zero":
        floor = 0.0
        jump_mass[2] = 0.0
        y_nj[:, 2] = 0.0
    return jump_mass, u_nj, y_nj, 5.0, start, floor


EDGES = ["no_no_jump_rows", "no_jumps", "never_departed", "optimum_below_zero", "floor_zero"]


def check_not_below_reference(case):
    jump_mass, u_nj, y_nj, n_bar, start, floor = case
    # the reference cannot start from a zero entry: its logit would be -inf
    case = (jump_mass, u_nj, y_nj, n_bar, _floored(start, 1e-12), floor)
    want, _, _ = picker_q(lbfgs_picker_rows(*case), jump_mass, u_nj, y_nj, n_bar)
    got, _, _ = picker_q(newton_one(case), jump_mass, u_nj, y_nj, n_bar)
    assert got >= want - 1e-12 * (1.0 + abs(want))


def check_kkt(case):
    """The diagonal ``d`` of an unfloored result maximizes
    ``sum_j S_j log(1 - d_j) + sum_r u_r log(w_r)`` on ``0 <= d_j <= 1``;
    returns the coordinates clamped at 0.  ``1 - d_j`` is read as the row's
    off-diagonal sum, which keeps its relative precision next to 0."""
    jump_mass, u_nj, y_nj, n_bar, start, _ = case
    mat = newton_one((jump_mass, u_nj, y_nj, n_bar, start, 0.0))
    d = np.diag(mat)
    leave = (mat - np.diag(d)).sum(axis=1)
    rows_mass = jump_mass.sum(axis=1)
    departed = rows_mass > 0
    np.testing.assert_array_equal(d[~departed], 1.0)
    np.testing.assert_allclose(mat.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    # off-diagonal entries are the multinomial shares of the diagonal's rest
    share = jump_mass[departed] / rows_mass[departed, None]
    np.testing.assert_allclose(
        (mat - np.diag(d))[departed], leave[departed, None] * share, rtol=1e-15, atol=0
    )
    w = 1.0 - y_nj.sum(axis=1) / n_bar + y_nj @ d / n_bar
    assert np.all(w[u_nj > 0] > 0) and np.all(leave[departed] > 0) and np.all(d >= 0)
    q = np.where(u_nj > 0, u_nj / np.where(u_nj > 0, w, 1.0), 0.0)
    stay = (q @ y_nj) / n_bar
    go = np.where(departed, rows_mass / np.where(departed, leave, 1.0), 0.0)
    grad, scale = stay - go, stay + go
    tol = 1e-7 * np.maximum(scale, 1e-300)
    at_zero = departed & (d == 0)
    free = departed & ~at_zero
    assert np.all(np.abs(grad[free]) <= tol[free]), (grad[free], scale[free])
    assert np.all(grad[at_zero] <= tol[at_zero])
    return at_zero


@settings(max_examples=300, deadline=None)
@given(picker_problems())
def test_newton_objective_never_below_lbfgs(case):
    check_not_below_reference(case)


@settings(max_examples=300, deadline=None)
@given(picker_problems())
def test_newton_diagonal_meets_the_kkt_conditions(case):
    check_kkt(case)


def test_coordinate_pushed_past_its_bound_does_not_stall():
    """A draw whose optimum holds two diagonals at 0 and one just above
    it, where the Newton step keeps pushing a diagonal next to 0 past it:
    the solve still reaches the reference's objective and the KKT
    conditions."""
    jump_mass, u_nj, y_nj, n_bar, start = random_problems(np.random.default_rng(318), 3, 6, 1)
    case = (jump_mass[0], u_nj[0], y_nj, n_bar, start[0], 0.0)
    check_not_below_reference(case)
    check_kkt(case)


@pytest.mark.parametrize("seed, pair", [(46, 0), (2534, 5)])
def test_clamped_coordinate_short_of_its_bound_is_not_a_last_step(seed, pair):
    """Draws on which, in some iteration, the free coordinates' Newton step
    is small enough to be the last while a coordinate clamped within
    ``_ACTIVE_EPS`` of ``x = 1`` has not reached it: that step is not the
    last, and the solve goes on to the reference's objective and the KKT
    conditions.  Taken as the last, it leaves entries 2e-8 to 9e-8 off and
    the objective 1e-6 to 7e-6 lower."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 6))
    rows = int(rng.integers(0, 40))
    jump_mass, u_nj, y_nj, n_bar, start = random_problems(rng, p, rows, 8)
    case = (jump_mass[pair], u_nj[pair], y_nj, n_bar, start[pair], 0.0)
    check_not_below_reference(case)
    check_kkt(case)


@pytest.mark.parametrize("name", EDGES)
def test_edge_cases(name):
    case = edge_case(name)
    check_not_below_reference(case)
    at_zero = check_kkt(case)
    jump_mass, u_nj, y_nj, n_bar, start, floor = case
    got = newton_one(case)
    if name == "optimum_below_zero":
        np.testing.assert_array_equal(at_zero, [True, False, True])
    if name == "no_jumps":
        # nothing departs: every rating stays put, up to the floor
        np.testing.assert_allclose(got, _floored(np.eye(3), floor), rtol=1e-15)
    if name == "floor_zero":
        assert np.all(got[2] == [0.0, 0.0, 1.0])


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(0, 300), st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_each_pair_is_solved_as_if_alone(p, rows, pairs, seed):
    """A batch of pairs sharing one set of exposure rows gives each pair the
    bits it gets alone."""
    jump_mass, u_nj, y_nj, n_bar, start = random_problems(
        np.random.default_rng(seed), p, rows, pairs
    )
    batch = newton_picker_rows(jump_mass, u_nj, y_nj, n_bar, start, 1e-12)
    for k in range(pairs):
        one = slice(k, k + 1)
        alone = newton_picker_rows(jump_mass[one], u_nj[one], y_nj, n_bar, start[one], 1e-12)
        np.testing.assert_array_equal(batch[k], alone[0])


@pytest.mark.parametrize("below, keeps_start", [(1e-9, True), (1e-13, False)])
def test_keep_start_slack_is_1e12(below, keeps_start, monkeypatch):
    """A pair keeps its start only when the optimized matrix scores more
    than 1e-12 (relative) below it.  The objective is patched so that the
    optimized matrix scores ``below`` (relative) under the start."""
    jump_mass, u_nj, y_nj, n_bar, start = random_problems(np.random.default_rng(0), 3, 4, 2)
    optimized = newton_picker_rows(jump_mass, u_nj, y_nj, n_bar, start, 1e-12)
    assert not np.isclose(optimized, start).all(axis=(1, 2)).any()
    picker_q = calibrate._picker_q

    def scored_below_start(mat, *args):
        q_start = picker_q(start, *args)
        if np.array_equal(mat, start):
            return q_start
        return q_start - below * (1.0 + np.abs(q_start))

    monkeypatch.setattr(calibrate, "_picker_q", scored_below_start)
    got = newton_picker_rows(jump_mass, u_nj, y_nj, n_bar, start, 1e-12)
    np.testing.assert_array_equal(got, start if keeps_start else optimized)
