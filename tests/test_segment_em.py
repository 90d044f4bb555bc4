"""The picker EM on segments against the per-interval EM it replaced.

The reference below is the per-interval path: the E-step scans every fine
interval, and the picker M-step sums over every no-jump interval.  The
segment path scans one step per run of equal no-jump intervals, sums each
run's posteriors in closed form, and gives the M-step one row per distinct
no-jump exposure vector.  Both call the package's M-step solver, so the
comparison measures the E-step and the grouping alone.  One iteration from
the same parameters must agree to rounding.  Full fits agree to looser
bounds, because EM carries each iteration's rounding-level differences into
the next, and the solver, which stops once its Newton step falls below 1e-6
of each coordinate's range, can turn them into differences of about 1e-12
in its iterates.

The reference grid is ``stream_to_panel`` read back interval by interval
and collapsed into segments; the package reads its segments straight from
the stream.  On every stream the two give the same arrays bit for bit, or
both refuse it with a DataError.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import test_picker_solver
from hypothesis import given, settings
from hypothesis import strategies as st
from test_picker_solver import lbfgs_picker_rows
from test_scan_oracle import on_smoothing_scan

import migfilter as mf
from migfilter import calibrate
from migfilter.calibrate import (
    _chain_m_step,
    _e_step,
    _em_single,
    _fine_segments,
    _jump_posterior_mass,
    _multi_start,
    _picker_log_weights,
    _random_init,
    _Segments,
    _segment_e_step,
)
from migfilter.continuous import stream_to_panel
from migfilter.errors import DataError, ImpossibleObservationError, NumericalError


def fine_grid(stream, fine_dt):
    """The per-interval reference grid: ``stream_to_panel`` on intervals of
    ``fine_dt``, read back as the exposures, each interval's jump source and
    target (-1 without a jump) and ``n_bar``, the largest per-interval
    entity total."""
    panel = stream_to_panel(stream, fine_dt)
    p = panel.p
    off = ~np.eye(p, dtype=bool)
    totals = panel.counts[:, off].sum(axis=1)
    bad = np.nonzero(totals > 1)[0]
    if bad.size:
        raise DataError(f"fine-grid step {int(bad[0])} holds {int(totals[bad[0]])} jumps")
    # the one jump of a step is its largest off-diagonal cell
    cell = (panel.counts * off).reshape(panel.steps, p * p).argmax(axis=1)
    src = np.where(totals == 1, cell // p, -1)
    dst = np.where(totals == 1, cell % p, -1)
    n_bar = float(panel.exposures.sum(axis=1).max(initial=0))
    if n_bar <= 0:
        raise DataError("sample holds no entities")
    return panel.exposures, src, dst, n_bar


def collapse(exposures, src, dst):
    """The reference segments of the arrays of :func:`fine_grid`: interval
    0, interval 1 and the last interval start segments, and so does every
    other interval that is a jump, follows a jump or changes exposures."""
    steps = src.shape[0]
    new = np.ones(steps, dtype=bool)
    new[2:-1] = (
        (src[2:-1] >= 0)
        | (src[1:-2] >= 0)
        | (exposures[2:-1] != exposures[1:-2]).any(axis=1)
    )
    starts = np.flatnonzero(new)
    lengths = np.diff(starts, append=steps)
    return _Segments(starts, lengths, exposures[starts], src[starts], dst[starts])


def reference_e_and_m(exposures, src, dst, n_bar):
    """The per-interval E-step and the package's picker M-step with one row
    per no-jump interval on the arrays of :func:`fine_grid`, for restarts
    stacked on a leading axis."""
    nojump = src < 0
    y_nj = exposures[nojump].astype(float)

    def e_and_m(_data, pi, trans, per_state, cfg):
        *_, m, p, _ = per_state.shape
        logw = _picker_log_weights(exposures, src, dst, per_state, n_bar)
        loglik, u, v = _e_step(logw, pi, trans)
        pairs = len(per_state) * m
        new_per_state = calibrate.minimize(
            _jump_posterior_mass(u, src, dst, m, p).reshape(pairs, p, p),
            np.swapaxes(u[:, nojump], 1, 2).reshape(pairs, len(y_nj)),
            y_nj, n_bar, per_state.reshape(pairs, p, p), cfg.floor,
        )
        return loglik, (*_chain_m_step(u, v), new_per_state.reshape(per_state.shape))

    return e_and_m


def reference_fit(stream, m, cfg, fine_dt):
    """``em_fit_continuous(..., to_generator=False)`` on fine intervals."""
    grid = fine_grid(stream, fine_dt)
    fit = _multi_start(None, stream.p, m, cfg, reference_e_and_m(*grid))
    return replace(fit, fine_dt=fine_dt)


def reference_restart_law(stream, m, cfg, fine_dt, seed):
    """The migration law that the restart of :func:`reference_fit` seeded
    ``seed`` ends with, states sorted from least to most risky as a fit
    returns them."""
    start = _random_init(np.random.default_rng(seed), m, stream.p, cfg.floor)
    e_and_m = reference_e_and_m(*fine_grid(stream, fine_dt))
    _, (pi, trans, per_state), _ = _em_single(None, *start, cfg, e_and_m)
    _, law, _ = mf.sort_states_by_risk(
        mf.HiddenFactorSpec(pi=pi, trans=trans, mode=mf.Mode.DISCRETE),
        mf.MigrationLaw(per_state=per_state, mode=mf.Mode.DISCRETE),
    )
    return law.per_state


def spread_stream(seed, m=2, p=2, entities=12, steps=25, slot_factor=1):
    factor, law = mf.demo_model(m, p, spread=4.0)
    sim = mf.SimulationConfig(np.full(p, entities), steps, seed=seed, step_length_days=1)
    panel, _ = mf.simulate_panel_discrete(factor, law, sim)
    off = ~np.eye(p, dtype=bool)
    slots = (int(panel.counts[:, off].sum(axis=1).max()) + 2) * slot_factor
    return mf.spread_jumps(panel, mf.SpreadConfig(slots, seed=seed)), 1.0 / slots


def open_cohort_stream(seed):
    """Entities enter and leave at step boundaries with no jump there."""
    rng = np.random.default_rng(seed)
    steps, p = 12, 3
    exposures = rng.integers(2, 7, size=(steps, p))
    counts = np.zeros((steps, p, p), dtype=int)
    for t in range(steps):
        j, k = rng.choice(p, size=2, replace=False)
        counts[t, j, k] = int(rng.integers(0, 2))
        counts[t, np.arange(p), np.arange(p)] = exposures[t] - counts[t].sum(axis=1)
    panel = mf.MigrationPanel(exposures, counts)
    return mf.spread_jumps(panel, mf.SpreadConfig(4, seed=seed)), 0.25


def long_run_stream():
    """Two events, then a run of more than 4,096 no-jump intervals."""
    stream = mf.EventStream(
        times=np.array([1.5 / 8192, 3.5 / 8192]), sources=np.array([0, 1]),
        targets=np.array([1, 0]), initial_exposures=np.array([4, 3]), horizon=1.0,
    )
    return stream, 1.0 / 8192


def quiet_stream():
    stream = mf.EventStream(
        times=np.empty(0), sources=np.empty(0, int), targets=np.empty(0, int),
        initial_exposures=np.array([3, 2]), horizon=2.0,
    )
    return stream, 1.0 / 64


def busy_stream():
    """One jump in every interval."""
    steps = 40
    return mf.EventStream(
        times=(np.arange(steps) + 0.5) / steps, sources=np.arange(steps) % 2,
        targets=1 - np.arange(steps) % 2, initial_exposures=np.array([5, 5]), horizon=1.0,
    ), 1.0 / steps


CASES = {
    "spread": lambda: spread_stream(1),
    "open_cohort": lambda: open_cohort_stream(2),
    "long_run": long_run_stream,
    "no_events": quiet_stream,
    "every_interval_jumps": busy_stream,
    "three_ratings": lambda: spread_stream(3, m=3, p=3, entities=8, steps=15),
}


def assert_traces_close(got, want):
    """Traces within 1e-8 relative, on the scale EM's convergence test uses
    (``max(|loglik|, 1)``, as a trace may approach 0)."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.all(np.abs(a - b) <= 1e-8 * np.maximum(np.abs(b), 1.0))


def tied_best(traces):
    """The restarts whose final log-likelihood lies within twice the bound
    of :func:`assert_traces_close` of the best one's: traces within that
    bound of these may end best at any of them."""
    final = np.array([t[-1] if t.size else -np.inf for t in traces])
    top = final.max()
    return set(np.flatnonzero(top - final <= 2e-8 * max(abs(top), 1.0)).tolist())


def random_params(seed, restarts, m, p):
    starts = [_random_init(np.random.default_rng(seed + r), m, p, 1e-12) for r in range(restarts)]
    return [np.stack(x) for x in zip(*starts)]


def run_sums(x, starts, axis):
    """Sum a per-interval array over the runs that begin at ``starts``."""
    return np.add.reduceat(x, starts, axis=axis)


def segments_or_refusal(build):
    """The bytes, dtype and shape of every segment array and ``n_bar``,
    or "refused" when ``build`` raises DataError."""
    try:
        seg, n_bar = build()
    except DataError:
        return "refused"
    return [(a.dtype.str, a.shape, a.tobytes()) for a in seg] + [n_bar]


def reference_segments(stream, fine_dt):
    exposures, src, dst, n_bar = fine_grid(stream, fine_dt)
    return collapse(exposures, src, dst), n_bar


@st.composite
def fine_streams(draw):
    """Streams on a grid of ``fine_dt``: event and override times on grid
    points, within 1e-12 of a step of one, or between them; overrides that
    set new exposures or repeat the ones in force.  Sources always hold
    exposure, and most streams are sparse enough to keep one event per
    interval."""
    p = draw(st.integers(2, 3))
    fine_dt = draw(st.sampled_from([0.5, 0.25, 0.1, 1 / 3, 0.7]))
    steps = draw(st.integers(1, 12))

    def time():
        k = draw(st.integers(0, steps))
        kind = draw(st.sampled_from(["on", "near", "off"]))
        if kind == "on":
            return k * fine_dt
        if kind == "near":
            return (k + draw(st.floats(-1e-12, 1e-12))) * fine_dt
        return (k + draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))) * fine_dt

    horizon = steps * fine_dt
    n_events = draw(st.integers(0, steps))
    n_overrides = draw(st.integers(0, 3))
    # at equal times an event applies before an override
    moments = sorted(
        [(time(), 0) for _ in range(n_events)] + [(time(), 1) for _ in range(n_overrides)]
    )
    counts_of = st.lists(st.integers(0, 3), min_size=p, max_size=p)
    y = draw(counts_of)
    initial = list(y)
    times, sources, targets, boundary_times, boundary_exposures = [], [], [], [], []
    for t, is_override in moments:
        if not 0.0 < t <= horizon:
            continue
        if is_override:
            y = list(y) if draw(st.booleans()) else draw(counts_of)
            boundary_times.append(t)
            boundary_exposures.append(list(y))
            continue
        movable = [j for j in range(p) if y[j] > 0]
        if not movable or (times and times[-1] == t):
            continue
        j = draw(st.sampled_from(movable))
        k = draw(st.sampled_from([x for x in range(p) if x != j]))
        times.append(t)
        sources.append(j)
        targets.append(k)
        y[j] -= 1
        y[k] += 1
    return mf.EventStream(
        times=np.array(times, dtype=float),
        sources=np.array(sources, dtype=np.int64),
        targets=np.array(targets, dtype=np.int64),
        initial_exposures=np.array(initial),
        horizon=horizon,
        boundary_times=np.array(boundary_times) if boundary_times else None,
        boundary_exposures=np.array(boundary_exposures) if boundary_exposures else None,
    ), fine_dt


@settings(max_examples=400, deadline=None)
@given(fine_streams())
def test_segments_from_the_stream_match_the_interval_reference(drawn):
    stream, fine_dt = drawn
    assert segments_or_refusal(lambda: _fine_segments(stream, fine_dt)) == segments_or_refusal(
        lambda: reference_segments(stream, fine_dt)
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_segments_of_the_cases_match_the_interval_reference(case):
    stream, fine_dt = CASES[case]()
    got = segments_or_refusal(lambda: _fine_segments(stream, fine_dt))
    assert got != "refused"
    assert got == segments_or_refusal(lambda: reference_segments(stream, fine_dt))


def test_override_snapped_past_an_event_is_refused():
    """The override at 2.773 precedes the event at 3.0 that leaves rating
    2, but snaps to grid index 6, after that event's interval; at the
    interval's start rating 2 holds no exposure."""
    stream = mf.EventStream(
        times=[0.3189, 1.5, 3.0], sources=[0, 0, 2], targets=[2, 2, 0],
        initial_exposures=[2, 3, 4], horizon=3.0, boundary_times=[1.414, 2.0, 2.773],
        boundary_exposures=[[3, 0, 2], [3, 1, 0], [2, 3, 2]],
    )
    with pytest.raises(DataError, match="more departures from rating 2"):
        reference_segments(stream, 0.5)
    with pytest.raises(
        DataError, match=r"^fine-grid step 5: event 2 leaves rating 2, which holds no exposure"
    ):
        _fine_segments(stream, 0.5)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("m", [1, 2, 4])
def test_one_e_step_matches_the_interval_e_step(case, m):
    stream, fine_dt = CASES[case]()
    exposures, src, dst, n_bar = fine_grid(stream, fine_dt)
    seg, _ = _fine_segments(stream, fine_dt)
    pi, trans, per_state = random_params(7 * m, 3, m, exposures.shape[1])
    want_ll, want_u, want_v = _e_step(
        _picker_log_weights(exposures, src, dst, per_state, n_bar), pi, trans
    )
    got_ll, got_u, got_v = _segment_e_step(
        _picker_log_weights(seg.exposures, seg.src, seg.dst, per_state, n_bar), pi, trans, seg
    )
    np.testing.assert_allclose(got_ll, want_ll, rtol=1e-12, atol=0)
    mass = seg.lengths[:, None].astype(float)
    assert np.all(np.abs(got_u - run_sums(want_u, seg.starts, 1)) <= 1e-12 * mass)
    # v[t] leads into interval t + 1, so segment s >= 1 owns v[start_s - 1:]
    want_v = run_sums(want_v, seg.starts[1:] - 1, 1)
    assert np.all(np.abs(got_v - want_v) <= 1e-12 * mass[1:, None])


def test_segments_collapse_runs_of_equal_no_jump_intervals():
    stream, fine_dt = open_cohort_stream(4)
    exposures, src, dst, _ = fine_grid(stream, fine_dt)
    seg, _ = _fine_segments(stream, fine_dt)
    steps = src.shape[0]
    assert seg.starts[0] == 0 and seg.lengths[0] == 1 and seg.lengths[-1] == 1
    assert seg.lengths.sum() == steps
    assert np.all(seg.lengths[seg.src >= 0] == 1)
    owner = np.repeat(np.arange(len(seg.starts)), seg.lengths)
    np.testing.assert_array_equal(exposures, seg.exposures[owner])
    np.testing.assert_array_equal(src, seg.src[owner])
    # a boundary that changes exposures without a jump splits a run
    changed = np.flatnonzero((exposures[1:] != exposures[:-1]).any(axis=1) & (src[:-1] < 0)) + 1
    assert changed.size and np.isin(changed, seg.starts).all()


def capture_objective(monkeypatch):
    """Make the L-BFGS reference M-step hand its objective to the caller
    instead of optimizing it."""
    calls = []

    def fake_minimize(fun, x0, **kwargs):
        calls.append(fun)
        return SimpleNamespace(x=x0)

    monkeypatch.setattr(test_picker_solver, "minimize", fake_minimize)
    return calls


@pytest.mark.parametrize("case", ["spread", "open_cohort", "three_ratings", "no_events"])
def test_grouped_picker_objective_matches_per_interval_rows(case, monkeypatch):
    stream, fine_dt = CASES[case]()
    exposures, src, dst, n_bar = fine_grid(stream, fine_dt)
    seg, _ = _fine_segments(stream, fine_dt)
    p, m = exposures.shape[1], 2
    pi, trans, per_state = random_params(11, 1, m, p)
    logw = _picker_log_weights(exposures, src, dst, per_state, n_bar)
    _, u, _ = _e_step(logw, pi, trans)
    nojump = seg.src < 0
    rows, row_of = np.unique(seg.exposures[nojump], axis=0, return_inverse=True)
    u_rows = np.zeros((len(rows), m))
    np.add.at(u_rows, row_of.ravel(), run_sums(u[0], seg.starts, 0)[nojump])
    assert len(rows) <= nojump.sum()
    jump_mass = _jump_posterior_mass(u[0], src, dst, m, p)
    calls = capture_objective(monkeypatch)
    rng = np.random.default_rng(0)
    for i in range(m):
        del calls[:]
        lbfgs_picker_rows(
            jump_mass[i], u[0, src < 0, i], exposures[src < 0].astype(float), n_bar,
            per_state[0, i], 1e-12,
        )
        lbfgs_picker_rows(
            jump_mass[i], u_rows[:, i], rows.astype(float), n_bar, per_state[0, i], 1e-12
        )
        for _ in range(5):
            x = rng.normal(size=p * p)
            (want_q, want_g), (got_q, got_g) = (fun(x) for fun in calls)
            assert got_q == pytest.approx(want_q, rel=1e-12)
            np.testing.assert_allclose(got_g, want_g, rtol=1e-12, atol=1e-12 * np.abs(want_g).max())


@pytest.mark.parametrize("seed", range(4))
def test_full_fits_match_the_interval_fit(seed):
    stream, fine_dt = spread_stream(seed, m=2, steps=20)
    cfg = mf.EmConfig(restarts=3, max_iters=8, seed=seed, tol=1e-7)
    got = mf.em_fit_continuous(stream, 2, cfg, fine_dt=fine_dt, to_generator=False)
    want = reference_fit(stream, 2, cfg, fine_dt)
    assert got.best_restart == want.best_restart
    assert got.restart_converged == want.restart_converged
    assert got.restart_failures == want.restart_failures
    assert_traces_close(got.restart_traces, want.restart_traces)
    for a, b in [
        (got.factor.pi, want.factor.pi),
        (got.factor.trans, want.factor.trans),
        (got.law.per_state, want.law.per_state),
    ]:
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-7)


@pytest.mark.parametrize("case", ["long_run", "every_interval_jumps", "no_events"])
def test_full_fits_match_on_edge_grids(case):
    stream, fine_dt = CASES[case]()
    cfg = mf.EmConfig(restarts=2, max_iters=4, seed=3, tol=1e-7)
    got = mf.em_fit_continuous(stream, 2, cfg, fine_dt=fine_dt, to_generator=False)
    want = reference_fit(stream, 2, cfg, fine_dt)
    tied = tied_best(want.restart_traces)
    want_law = want.law.per_state
    if len(tied) > 1:
        # restarts that end equally well (on the stream without events they
        # end 5e-15 apart): rounding picks the best, so the pick is compared
        # with the reference restart of the same index
        assert got.best_restart in tied
        seed = got.restart_seeds[got.best_restart]
        want_law = reference_restart_law(stream, 2, cfg, fine_dt, seed)
    else:
        assert got.best_restart == want.best_restart
    assert_traces_close(got.restart_traces, want.restart_traces)
    np.testing.assert_allclose(got.law.per_state, want_law, rtol=0, atol=1e-7)


def test_impossible_run_is_reported_at_the_same_interval():
    """A run whose no-jump weight is zero in every state fails where the
    per-interval scan fails: at the run's first interval."""
    stream, fine_dt = open_cohort_stream(5)
    exposures, src, dst, n_bar = fine_grid(stream, fine_dt)
    seg, _ = _fine_segments(stream, fine_dt)
    full = np.flatnonzero((exposures.sum(axis=1) == n_bar) & (src < 0))
    assert full.size and full[0] > 0
    p = exposures.shape[1]
    pi, trans, per_state = random_params(2, 1, 2, p)
    # no entity may stay put: a full sample with no jump is impossible
    per_state[..., np.arange(p), np.arange(p)] = 0.0
    per_state /= per_state.sum(axis=-1, keepdims=True)
    with pytest.raises(ImpossibleObservationError) as want:
        _e_step(_picker_log_weights(exposures, src, dst, per_state, n_bar), pi, trans)
    with pytest.raises(ImpossibleObservationError) as got:
        _segment_e_step(
            _picker_log_weights(seg.exposures, seg.src, seg.dst, per_state, n_bar),
            pi, trans, seg,
        )
    assert (str(got.value), got.value.time_index) == (str(want.value), want.value.time_index)


def reversed_row(scan, s):
    """``_scan_directions`` with row ``s`` of every restart reversed."""

    def corrupt(log_mats):
        rows = scan(log_mats)
        rows[..., s, :] = rows[..., s, ::-1]
        return rows

    return corrupt


def nan_row(scan, s):
    """``_prefix_rows`` (``scan``) with the smoothing scan's row that is
    the smoothed row ``s`` set to NaN."""

    def corrupt(rows):
        rows[len(rows) - 1 - s] = np.nan
        return rows

    return on_smoothing_scan(scan, corrupt)


@pytest.mark.parametrize(
    "scan, corrupt, message",
    [
        ("_scan_directions", reversed_row, "the prefix scan lost precision at fine-grid step {}: "),
        (
            "_prefix_rows",
            nan_row,
            "the smoothing scan lost precision at fine-grid step {}$",
        ),
    ],
    ids=["prefix", "smoothing"],
)
def test_lost_precision_is_reported_at_the_first_interval_of_its_segment(
    scan, corrupt, message, monkeypatch
):
    """A scan that disagrees with its exact step at segment ``s`` fails at
    the fine-grid interval where that segment starts, as an impossible
    observation does."""
    stream, fine_dt = CASES["spread"]()
    seg, n_bar = _fine_segments(stream, fine_dt)
    s = int(np.flatnonzero(seg.lengths > 1)[1])
    t = int(seg.starts[s])
    assert t > s
    pi, trans, per_state = random_params(5, 2, 2, stream.p)
    logw = _picker_log_weights(seg.exposures, seg.src, seg.dst, per_state, n_bar)
    monkeypatch.setattr(calibrate, scan, corrupt(getattr(calibrate, scan), s))
    with pytest.raises(NumericalError, match="^" + message.format(t)) as info:
        _segment_e_step(logw, pi, trans, seg)
    assert info.value.time_index == t


def nan_in_call(powers, call, where):
    """``_matrix_powers`` (``powers``) with entry ``where`` of the matrices
    of its ``call``-th call (counting from 0) set to NaN."""
    calls = 0

    def corrupt(base, exps):
        nonlocal calls
        out, scale = powers(base, exps)
        if calls == call:
            out[where] = np.nan
        calls += 1
        return out, scale

    return corrupt


def longest_run_start(seg):
    """The first interval of the first longest run: the run that the
    E-step's matrix powers hold first."""
    runs = np.flatnonzero(seg.lengths > 1)
    return int(seg.starts[runs[np.argmax(seg.lengths[runs])]])


@pytest.mark.parametrize(
    "call, where, message",
    [
        (0, (0, 0, 0, 0), "the prefix scan lost precision at fine-grid step {}: "),
        # with m = 2, column 2 of the 2m x 2m block power starts its used block
        (1, (0, 0, 0, 2), "the run sums at fine-grid step {} are not finite$"),
    ],
    ids=["run_power", "van_loan_block"],
)
def test_nan_in_a_run_is_a_numerical_error_at_its_first_interval(
    call, where, message, monkeypatch
):
    """A NaN in a run's matrix power (the first call), or in the used
    top-right block of its Van Loan power (the second), is a numerical
    fault at the run's first interval: not an impossible observation, and
    never NaN posteriors passed on to the M-step.  A fit raises it rather
    than fail the restart."""
    stream, fine_dt = CASES["spread"]()
    seg, n_bar = _fine_segments(stream, fine_dt)
    t = longest_run_start(seg)
    pi, trans, per_state = random_params(5, 2, 2, stream.p)
    logw = _picker_log_weights(seg.exposures, seg.src, seg.dst, per_state, n_bar)
    powers = calibrate._matrix_powers
    monkeypatch.setattr(calibrate, "_matrix_powers", nan_in_call(powers, call, where))
    with pytest.raises(NumericalError, match="^" + message.format(t)) as info:
        _segment_e_step(logw, pi, trans, seg)
    assert info.value.time_index == t
    monkeypatch.setattr(calibrate, "_matrix_powers", nan_in_call(powers, call, where))
    with pytest.raises(NumericalError, match="^" + message.format(t)):
        mf.em_fit_continuous(stream, 2, mf.EmConfig(restarts=1, seed=5), fine_dt=fine_dt)


def test_subnormal_forward_entry_at_a_run_end_keeps_its_backward_row_finite():
    """A chain that all but never switches enters a run sure of state 0;
    the run leaves state 1 a forward probability of 1e-310, and the
    intervals after it favour state 1 by as much, so the smoothed law is
    about even.  The run's backward row ``u / alpha`` then has a ratio of
    about 1e310 between its entries, past the largest double; formed over
    its largest entry it stays finite, and the run sums match the
    per-interval E-step."""
    c = 310 * np.log(10) / 6
    lengths = np.array([1, 6, 1, 1, 1, 1, 1, 1])
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    none = np.full(len(lengths), -1)
    seg = _Segments(starts, lengths, np.zeros((len(lengths), 2)), none, none)
    logw = np.array([[0.0, 0.0], [0.0, -c]] + [[-c, 0.0]] * 6)
    pi, trans = np.array([0.5, 0.5]), np.array([[1.0, 1e-320], [1e-320, 1.0]])
    per_interval = np.repeat(logw, lengths, axis=0)
    want_ll, want_u, want_v = _e_step(per_interval, pi, trans)
    # interval 6 ends the run
    assert 0.0 < calibrate._forward(per_interval, pi, trans).alpha[6, 1] < 1e-309
    assert want_u[6, 1] > 0.49
    got_ll, got_u, got_v = _segment_e_step(logw, pi, trans, seg)
    np.testing.assert_allclose(got_ll, want_ll, rtol=1e-12, atol=0)
    mass = lengths[:, None].astype(float)
    assert np.all(np.abs(got_u - run_sums(want_u, starts, 0)) <= 1e-12 * mass)
    want_v = run_sums(want_v, starts[1:] - 1, 0)
    assert np.all(np.abs(got_v - want_v) <= 1e-12 * mass[1:, None])


def test_segment_count_does_not_grow_with_the_slots():
    for seed in range(3):
        intervals, bounds = [], []
        for factor in (1, 4):
            stream, fine_dt = spread_stream(seed, steps=30, slot_factor=factor)
            exposures, src, dst, _ = fine_grid(stream, fine_dt)
            seg, _ = _fine_segments(stream, fine_dt)
            jumps = int((src >= 0).sum())
            changes = int(
                ((exposures[1:] != exposures[:-1]).any(axis=1) & (src[:-1] < 0)).sum()
            )
            # interval 0, interval 1 and the last interval start segments too
            bound = 2 * jumps + changes + 3
            assert len(seg.starts) <= bound
            intervals.append(len(src))
            bounds.append(bound)
        assert intervals[1] == 4 * intervals[0]
        assert bounds[1] == bounds[0]
