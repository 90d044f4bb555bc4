import io
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import migfilter as mf
from migfilter import continuous
from migfilter import panel_io as pio
from migfilter.calibrate import _fine_segments
from migfilter.continuous import (
    _MAX_EULER_MASS,
    _drift_inputs,
    _intensity_load,
    _renormalized,
    _stop_walk,
)
from migfilter.errors import DataError, ImpossibleObservationError, ModelError
from migfilter.model import _exposures_at, renormalize


def two_state_continuous_model():
    gen = np.array([[-0.3, 0.3], [0.4, -0.4]])
    factor = mf.HiddenFactorSpec(np.array([0.6, 0.4]), gen, mode=mf.Mode.CONTINUOUS)
    ell = np.array(
        [[[-0.02, 0.02], [0.01, -0.01]], [[-0.08, 0.08], [0.03, -0.03]]]
    )
    law = mf.MigrationLaw(ell, mode=mf.Mode.CONTINUOUS)
    return factor, law


class TestSpreadJumps:
    def test_jump_free_panel_gives_no_events(self):
        panel = mf.MigrationPanel(
            np.full((4, 2), 5), np.array([np.diag([5, 5])] * 4)
        )
        stream = mf.spread_jumps(panel, mf.SpreadConfig(8, seed=0))
        assert stream.n_events == 0
        assert stream.horizon == 4.0

    def test_label_multiset_preserved_per_step(self, rng):
        factor, law = mf.demo_model(2, 3)
        cfg = mf.SimulationConfig(np.array([100, 100, 100]), 25, seed=3)
        panel, _ = mf.simulate_panel_discrete(factor, law, cfg)
        off = ~np.eye(3, dtype=bool)
        slots = int(panel.counts[:, off].sum(axis=1).max()) + 1
        stream = mf.spread_jumps(panel, mf.SpreadConfig(slots, seed=5))
        back = mf.stream_to_panel(stream, panel.step_length_days)
        np.testing.assert_array_equal(back.counts, panel.counts)
        np.testing.assert_array_equal(back.exposures, panel.exposures)

    def test_event_times_sit_strictly_inside_their_step(self):
        factor, law = mf.demo_model(2, 2)
        cfg = mf.SimulationConfig(np.array([200, 200]), 15, seed=8, step_length_days=30)
        panel, _ = mf.simulate_panel_discrete(factor, law, cfg)
        off = ~np.eye(2, dtype=bool)
        slots = int(panel.counts[:, off].sum(axis=1).max()) + 2
        stream = mf.spread_jumps(panel, mf.SpreadConfig(slots, seed=2))
        steps = np.floor(stream.times / 30.0)
        within = stream.times - steps * 30.0
        assert np.all(within > 0)
        assert np.all(within < 30.0)

    def test_pigeonhole_violation_rejected(self):
        counts = np.zeros((1, 2, 2), dtype=int)
        counts[0] = [[0, 3], [0, 3]]
        panel = mf.MigrationPanel(np.array([[3, 3]]), counts)
        with pytest.raises(DataError, match="slots"):
            mf.spread_jumps(panel, mf.SpreadConfig(3, seed=0))

    @pytest.mark.parametrize("slots", [2.5, float("nan"), float("inf")])
    def test_fractional_slot_count_rejected(self, slots):
        with pytest.raises(DataError, match=rf"^subintervals_per_step must be a whole number "
                                            rf"of at least 1, got {slots!r}$"):
            mf.SpreadConfig(slots)

    def test_whole_valued_slot_count_accepted(self):
        factor, law = mf.demo_model(2, 2)
        cfg = mf.SimulationConfig(np.array([150, 150]), 10, seed=1)
        panel, _ = mf.simulate_panel_discrete(factor, law, cfg)
        a = mf.spread_jumps(panel, mf.SpreadConfig(50, seed=9))
        b = mf.spread_jumps(panel, mf.SpreadConfig(50.0, seed=9))
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_fractional_step_round_trips(self):
        stream = mf.EventStream(
            times=np.array([0.3, 0.7, 1.2, 1.9]),
            sources=np.array([0, 1, 0, 0]),
            targets=np.array([1, 0, 1, 1]),
            initial_exposures=np.array([3, 1]),
            horizon=2.0,
        )
        panel = mf.stream_to_panel(stream, 0.5)
        assert panel.steps == 4
        assert panel.step_length_days == 0.5
        spread = mf.spread_jumps(panel, mf.SpreadConfig(4, seed=0))
        assert spread.horizon == 2.0
        back = mf.stream_to_panel(spread, 0.5)
        np.testing.assert_array_equal(back.counts, panel.counts)
        np.testing.assert_array_equal(back.exposures, panel.exposures)

    def test_deterministic_given_seed(self):
        factor, law = mf.demo_model(2, 2)
        cfg = mf.SimulationConfig(np.array([150, 150]), 10, seed=1)
        panel, _ = mf.simulate_panel_discrete(factor, law, cfg)
        a = mf.spread_jumps(panel, mf.SpreadConfig(50, seed=9))
        b = mf.spread_jumps(panel, mf.SpreadConfig(50, seed=9))
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.sources, b.sources)
        np.testing.assert_array_equal(a.targets, b.targets)

    @pytest.mark.parametrize("step_days, seed", [(1, 0), (30, 4), (0.5, 7)])
    def test_matches_per_event_loop(self, step_days, seed):
        factor, law = mf.demo_model(3, 3, spread=6.0)
        cfg = mf.SimulationConfig(np.array([60, 40, 20]), 30, seed=seed)
        panel, _ = mf.simulate_panel_discrete(factor, law, cfg)
        panel = mf.MigrationPanel(panel.exposures, panel.counts, step_length_days=step_days)
        spread_cfg = mf.SpreadConfig(40, seed=seed + 1)
        stream = mf.spread_jumps(panel, spread_cfg)
        times, sources, targets = loop_spread_events(panel, spread_cfg)
        assert stream.times.tobytes() == times.tobytes()
        np.testing.assert_array_equal(stream.sources, sources)
        np.testing.assert_array_equal(stream.targets, targets)


def loop_spread_events(panel, cfg):
    """Reference for ``spread_jumps``' events: the per-event loop it
    replaced, with the same random draws in the same order."""
    p = panel.p
    off = ~np.eye(p, dtype=bool)
    rng = np.random.default_rng(cfg.seed)
    d = float(panel.step_length_days)
    slot_width = d / cfg.subintervals_per_step
    times, sources, targets = [], [], []
    for t in range(panel.steps):
        n_jumps = int(panel.counts[t][off].sum())
        if n_jumps == 0:
            continue
        labels = np.repeat(np.arange(p * p), panel.counts[t].ravel() * off.ravel())
        slots = np.sort(rng.choice(cfg.subintervals_per_step, size=n_jumps, replace=False))
        for slot, label in zip(slots, rng.permutation(labels)):
            times.append(t * d + (slot + 0.5) * slot_width)
            j, k = divmod(int(label), p)
            sources.append(j)
            targets.append(k)
    return np.array(times, dtype=float), np.array(sources), np.array(targets)


def loop_stream_to_panel(stream, step_days):
    """Reference for ``stream_to_panel``: the step-by-step walk it replaced
    (absolute tolerance 1e-12; events strictly after time 1e-12)."""
    n_steps = int(round(stream.horizon / step_days))
    p = stream.p
    exposures = np.zeros((n_steps, p), dtype=np.int64)
    counts = np.zeros((n_steps, p, p), dtype=np.int64)
    y = stream.initial_exposures.astype(np.int64).copy()
    b = 0
    e = 0
    for t in range(n_steps):
        start = t * step_days
        while (
            stream.boundary_times is not None
            and b < stream.boundary_times.shape[0]
            and stream.boundary_times[b] <= start + 1e-12
        ):
            y = stream.boundary_exposures[b].astype(np.int64).copy()
            b += 1
        exposures[t] = y
        end = (t + 1) * step_days
        while e < stream.n_events and stream.times[e] <= end + 1e-12:
            j, k = int(stream.sources[e]), int(stream.targets[e])
            counts[t, j, k] += 1
            y[j] -= 1
            y[k] += 1
            e += 1
        for j in range(p):
            counts[t, j, j] = exposures[t, j] - counts[t, j].sum()
            if counts[t, j, j] < 0:
                # the next override, applied at step t + 1, precedes an event of step t
                bt = stream.boundary_times
                cause = f"an entity moved more than once within step {t}"
                if b < bt.shape[0] and bt[b] < stream.times[e - 1]:
                    cause = (f"the override at t={bt[b]} snaps to the end of step {t}, "
                             "after the events it precedes")
                raise DataError(
                    f"step {t}: more departures from rating {j} than exposure at its start: "
                    f"{cause}; aggregate with a finer step_days"
                )
    return mf.MigrationPanel(exposures, counts, step_length_days=step_days)


def loop_snapshots(stream):
    """Reference for ``EventStream.exposure_snapshots``: the event-by-event
    walk it replaced, with the tie rule (an override at an event's own time
    applies after the event)."""
    y = stream.initial_exposures.astype(np.int64).copy()
    out = np.empty((stream.n_events, stream.p), dtype=np.int64)
    b = 0
    bt = stream.boundary_times
    for i in range(stream.n_events):
        while bt is not None and b < bt.shape[0] and bt[b] < stream.times[i]:
            y = stream.boundary_exposures[b].astype(np.int64).copy()
            b += 1
        out[i] = y
        y[stream.sources[i]] -= 1
        y[stream.targets[i]] += 1
    return out


@st.composite
def open_cohort_streams(draw):
    """Streams with entry and censoring: events at multiples of 1/96 of a
    step, so some sit exactly on grid points and on boundary times, and
    overrides at step ends or inside steps.  Sources always hold exposure."""
    p = draw(st.integers(2, 3))
    step = draw(st.sampled_from([1.0, 0.5, 0.1, 1 / 3, 0.7, 30.0]))
    n_steps = draw(st.integers(1, 6))
    counts_of = st.lists(st.integers(0, 3), min_size=p, max_size=p)
    y = draw(counts_of)
    initial = list(y)
    times, sources, targets, boundary_times, boundary_exposures = [], [], [], [], []
    # slots 32, 48, 64 and 96 are grid points of the step or its halves and thirds
    slot_of = st.sampled_from([32, 48, 64, 96]) | st.integers(1, 96)
    for t in range(n_steps):
        slots = sorted(draw(st.sets(slot_of, max_size=4)))
        override = draw(st.none() | slot_of) if t < n_steps - 1 else None
        for slot in slots:
            if override is not None and override < slot:
                y = draw(counts_of)
                boundary_times.append((t + override / 96) * step)
                boundary_exposures.append(list(y))
                override = None
            movable = [j for j in range(p) if y[j] > 0]
            if not movable:
                continue
            j = draw(st.sampled_from(movable))
            k = draw(st.sampled_from([x for x in range(p) if x != j]))
            times.append((t + slot / 96) * step)
            sources.append(j)
            targets.append(k)
            y[j] -= 1
            y[k] += 1
        if override is not None:
            y = draw(counts_of)
            boundary_times.append((t + override / 96) * step)
            boundary_exposures.append(list(y))
    return mf.EventStream(
        times=np.array(times, dtype=float),
        sources=np.array(sources, dtype=np.int64),
        targets=np.array(targets, dtype=np.int64),
        initial_exposures=np.array(initial),
        horizon=n_steps * step,
        boundary_times=np.array(boundary_times) if boundary_times else None,
        boundary_exposures=np.array(boundary_exposures) if boundary_exposures else None,
    ), step


def panel_or_error(stream, step_days, aggregate):
    try:
        panel = aggregate(stream, step_days)
    except DataError as exc:
        return str(exc)
    return panel.exposures.tolist(), panel.counts.tolist(), panel.step_length_days


def loop_continuous_filter(events, factor, law, grid_dt, report_dt):
    """Reference for ``run_continuous_filter``: the time-stepping walk it
    replaced, which merged stops within an absolute 1e-12 of each other and
    ended its reports at the last multiple of ``report_dt`` (within 1e-9).
    It runs the list kernels defined here (``list_integrate_drift``,
    ``list_bayes_jump``), not the package's generated walk."""
    probs = factor.pi.tolist()
    horizon = float(events.horizon)
    n_intervals = max(1, math.ceil(round(horizon / report_dt, 9)))
    report_times = np.minimum(np.arange(1, n_intervals + 1) * report_dt, horizon)
    knots = events.times
    if events.boundary_times is not None:
        knots = np.union1d(knots, events.boundary_times)
    positions = (events.times, events.boundary_times)
    exposures = _exposures_at(events, np.concatenate(([-np.inf], knots)), *positions)
    trans_t, loads, scales = _drift_inputs(factor.trans, _intensity_load(law, exposures))
    pre_jump = _exposures_at(events, np.nextafter(events.times, -np.inf), *positions)
    laws = np.empty((n_intervals + 1, factor.m))
    laws[0] = probs
    times = np.concatenate(([0.0], report_times))
    pred_parts = np.zeros((n_intervals, factor.m))
    loglik = 0.0
    interval = 0
    e = 0
    t = 0.0
    eps = 1e-12
    while t < horizon - eps:
        passed = int(np.searchsorted(knots, t + eps, side="right"))
        stops = [report_times[interval], horizon]
        if e < events.n_events:
            stops.append(float(events.times[e]))
        if passed < knots.shape[0]:
            stops.append(float(knots[passed]))
        stop = min(stops)
        if stop > t + eps:
            probs, chain_part, intensity_int = list_integrate_drift(
                probs, stop - t, trans_t, loads[passed], scales[passed], grid_dt
            )
            pred_parts[interval] += chain_part
            loglik -= intensity_int
        t = stop
        if e < events.n_events and events.times[e] <= t + eps:
            j, k = int(events.sources[e]), int(events.targets[e])
            posterior, intensity = list_bayes_jump(probs, law.per_state[:, j, k].tolist())
            event_intensity = pre_jump[e, j] * intensity
            if posterior is None or event_intensity <= 0.0:
                raise ImpossibleObservationError(
                    f"event {e} ({j}->{k} at t={t}) has zero predicted intensity",
                    time_index=t,
                )
            loglik += math.log(event_intensity)
            probs = posterior
            e += 1
        if report_times[interval] <= t + eps:
            interval += 1
            laws[interval] = probs
            if interval == n_intervals:
                break
    if interval < n_intervals:
        laws[interval + 1 :] = probs
        times[-1] = horizon
    return mf.FilterTrajectory(
        probs=laws,
        time_index=times,
        predicted_ratios=mf.predict_transition_probs(
            mf.MigrationLaw(mf.generator_to_transition(law.per_state, report_dt)), laws[:-1]
        ),
        loglik=loglik,
        prediction_parts=pred_parts,
    )


def filter_or_error(run, stream, factor, law, report_dt):
    try:
        traj = run(stream, factor, law, grid_dt=report_dt / 8, report_dt=report_dt)
    except ImpossibleObservationError as exc:
        return str(exc), exc.time_index
    fields = (traj.probs, traj.time_index, traj.predicted_ratios, traj.prediction_parts)
    return [a.tobytes() for a in fields] + [np.float64(traj.loglik).tobytes()]


class TestStreamWalker:
    @settings(max_examples=300, deadline=None)
    @given(open_cohort_streams(), st.sampled_from([1, 2, 3]))
    def test_matches_loop_references(self, drawn, refine):
        stream, step = drawn
        for width in (step, step / refine):
            assert panel_or_error(stream, width, mf.stream_to_panel) == panel_or_error(
                stream, width, loop_stream_to_panel
            )
        np.testing.assert_array_equal(stream.exposure_snapshots(), loop_snapshots(stream))

    @pytest.mark.parametrize(
        "sources, targets, initial, message",
        [
            # valid: the entity moves 0 -> 1 -> 2 within one step
            ([0, 1], [1, 2], [1, 0, 0],
             "step 0: more departures from rating 1 than exposure at its start: an entity "
             "moved more than once within step 0; aggregate with a finer step_days"),
            # invalid: the second event leaves rating 2, which holds nobody,
            # so the stream refuses to be built
            ([0, 2], [1, 1], [1, 0, 0],
             "event 1 at t=0.6: departure from rating 2 with no exposure"),
        ],
        ids=["moved-twice", "departure-from-empty"],
    )
    def test_short_step_names_its_cause(self, sources, targets, initial, message):
        with pytest.raises(DataError) as err:
            stream = mf.EventStream(
                times=np.array([0.3, 0.6]),
                sources=np.array(sources),
                targets=np.array(targets),
                initial_exposures=np.array(initial),
                horizon=1.0,
            )
            mf.stream_to_panel(stream, 1.0)
        assert str(err.value) == message

    def test_short_step_names_a_snapped_override(self):
        """The override at 2.773 precedes the event at 3.0 that leaves
        rating 2, but applies at the end of step 5; no entity moves twice."""
        stream = mf.EventStream(
            times=[0.3189, 1.5, 3.0], sources=[0, 0, 2], targets=[2, 2, 0],
            initial_exposures=[2, 3, 4], horizon=3.0, boundary_times=[1.414, 2.0, 2.773],
            boundary_exposures=[[3, 0, 2], [3, 1, 0], [2, 3, 2]],
        )
        with pytest.raises(DataError) as err:
            mf.stream_to_panel(stream, 0.5)
        assert str(err.value) == (
            "step 5: more departures from rating 2 than exposure at its start: the override "
            "at t=2.773 snaps to the end of step 5, after the events it precedes; aggregate "
            "with a finer step_days"
        )

    def test_a_missing_track_reads_as_an_empty_one(self):
        """Every reader gives a stream without overrides the same bytes as
        the stream given an empty track explicitly."""
        events = ([0.3, 0.7, 1.5], [0, 1, 0], [1, 0, 1], [3, 2], 2.0)
        missing = mf.EventStream(*events)
        empty = mf.EventStream(*events, boundary_times=np.empty(0),
                               boundary_exposures=np.empty((0, 2), dtype=np.int64))
        factor, law = mf.demo_model(2, 2, mode=mf.Mode.CONTINUOUS)

        def outputs(stream):
            panel = mf.stream_to_panel(stream, 0.5)
            traj = mf.run_continuous_filter(stream, factor, law, grid_dt=0.05, report_dt=0.5)
            segments, n_bar = _fine_segments(stream, 0.25)
            csv = io.StringIO()
            pio.events_to_csv(stream, csv)
            arrays = (panel.exposures, panel.counts, traj.probs, traj.predicted_ratios,
                      traj.prediction_parts, np.float64(traj.loglik), *segments,
                      np.float64(n_bar))
            return [a.tobytes() for a in arrays] + [csv.getvalue()]

        assert outputs(missing) == outputs(empty)

    def test_event_within_tolerance_of_zero_stays_in_step_zero(self):
        stream = mf.EventStream(
            times=np.array([1e-13]),
            sources=np.array([0]),
            targets=np.array([1]),
            initial_exposures=np.array([1, 0]),
            horizon=2.0,
        )
        panel = mf.stream_to_panel(stream, 1.0)
        np.testing.assert_array_equal(panel.counts[0], [[0, 1], [0, 0]])
        np.testing.assert_array_equal(panel.exposures, [[1, 0], [0, 1]])


def drift_only(start, trans, law, exposures, dt):
    """``run_continuous_filter`` over an empty stream of length ``dt`` from
    ``start``: a pure drift integration, one report at ``dt``, with Euler
    substeps capped only by the stability bound."""
    factor = mf.HiddenFactorSpec(start, trans, mode=mf.Mode.CONTINUOUS)
    stream = mf.EventStream([], [], [], exposures, horizon=dt)
    return mf.run_continuous_filter(stream, factor, law, grid_dt=dt, report_dt=dt).probs[-1]


class TestDriftStep:
    def test_identical_intensities_reduce_to_chain_drift(self):
        factor, _ = two_state_continuous_model()
        mat = np.array([[-0.05, 0.05], [0.02, -0.02]])
        law = mf.MigrationLaw(np.array([mat, mat]), mode=mf.Mode.CONTINUOUS)
        start = np.array([0.7, 0.3])
        dt = 1e-3
        out = drift_only(start, factor.trans, law, [50, 50], dt)
        euler = start + factor.trans.T @ start * dt
        np.testing.assert_allclose(out, euler / euler.sum(), atol=1e-12)

    def test_no_dynamics_is_identity(self):
        _, law = two_state_continuous_model()
        start = np.array([0.25, 0.75])
        out = drift_only(start, np.zeros((2, 2)), law, [0, 0], 0.5)
        np.testing.assert_allclose(out, start, atol=1e-15)

    def test_no_news_drains_high_intensity_states(self):
        # no jumps observed: mass must flow away from the stressed state
        _, law = two_state_continuous_model()
        out = drift_only(np.array([0.5, 0.5]), np.zeros((2, 2)), law, [100, 100], 0.5)
        assert out[1] < 0.5 < out[0]

    def test_self_refinement_oracle(self):
        # frozen chain, one informative transition: coarse integration must
        # match a much finer (dt = 1e-6) reference over a unit of time
        factor = mf.HiddenFactorSpec(
            np.array([0.5, 0.5]), np.zeros((2, 2)), mode=mf.Mode.CONTINUOUS
        )
        ell = np.zeros((2, 2, 2))
        ell[0] = [[-0.01, 0.01], [0.0, 0.0]]
        ell[1] = [[-0.05, 0.05], [0.0, 0.0]]
        law = mf.MigrationLaw(ell, mode=mf.Mode.CONTINUOUS)
        y = np.array([100, 0])

        def integrate(dt):
            # an empty stream makes the runner a pure drift integrator
            stream = mf.EventStream(
                times=np.empty(0),
                sources=np.empty(0, dtype=int),
                targets=np.empty(0, dtype=int),
                initial_exposures=y,
                horizon=1.0,
            )
            traj = mf.run_continuous_filter(stream, factor, law, grid_dt=dt, report_dt=1.0)
            return traj.states[-1].probs

        coarse = integrate(1e-3)
        fine = integrate(1e-6)
        assert np.abs(coarse - fine).max() < 1e-4

    def test_substepping_keeps_simplex_for_large_dt(self):
        _, law = two_state_continuous_model()
        trans = np.array([[-3.0, 3.0], [2.0, -2.0]])
        out = drift_only(np.array([0.9, 0.1]), trans, law, [500, 500], 5.0)
        assert np.all(out >= 0)
        assert abs(out.sum() - 1) < 1e-10


class TestChainDrift:
    """With every state's intensity matrix the same, the observations carry
    no news of the factor, so the filter over an empty stream is the chain's
    own marginal, ``expm(Q^T t) pi``, to the first order of its Euler step."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_converges_to_matrix_exponential(self, m, rng):
        # leave rates plus the law's load stay below 1.6, so that no Euler
        # step is cut below grid_dt
        gen = rng.uniform(0.1, 0.5, size=(m, m))
        np.fill_diagonal(gen, 0.0)
        np.fill_diagonal(gen, -gen.sum(axis=1))
        mat = np.array([[-0.05, 0.05], [0.02, -0.02]])
        law = mf.MigrationLaw(np.array([mat] * m), mode=mf.Mode.CONTINUOUS)
        start = rng.dirichlet(np.ones(m))
        factor = mf.HiddenFactorSpec(start, gen, mode=mf.Mode.CONTINUOUS)
        stream = mf.EventStream([], [], [], [1, 0], horizon=1.0)
        exact = expm(gen.T) @ start
        errs = [
            np.abs(
                mf.run_continuous_filter(stream, factor, law, grid_dt=1.0 / n, report_dt=1.0)
                .probs[-1] - exact
            ).max()
            for n in (8, 32, 128)
        ]
        # dt falls 16-fold: a first-order error falls about as much
        assert errs[2] < errs[0] / 8
        assert errs[2] < 1e-2

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 2**32 - 1), st.floats(0.01, 5.0))
    def test_simplex_preserved(self, m, seed, dt):
        rng = np.random.default_rng(seed)
        gen = rng.uniform(0.0, 5.0, size=(m, m))
        np.fill_diagonal(gen, 0.0)
        np.fill_diagonal(gen, -gen.sum(axis=1))
        ell = rng.uniform(0.0, 1.0, size=(m, 2, 2))
        ell[:, [0, 1], [0, 1]] = -ell[:, [0, 1], [1, 0]]
        law = mf.MigrationLaw(ell, mode=mf.Mode.CONTINUOUS)
        out = drift_only(rng.dirichlet(np.ones(m)), gen, law, [100, 100], dt)
        assert np.all(out >= 0)
        assert abs(out.sum() - 1) < 1e-10


def numpy_integrate_drift(probs, dt, trans, load, max_h):
    """Reference for the drift of the generated walk: the Euler walk on
    numpy vectors that the float kernels replaced.  Also returns its
    substep count."""
    rate_scale = float(np.max(-np.diag(trans), initial=0.0) + np.max(load, initial=0.0))
    n_sub = max(1, math.ceil(dt * rate_scale / _MAX_EULER_MASS))
    if max_h < dt:
        n_sub = max(n_sub, math.ceil(round(dt / max_h, 9)))
    h = dt / n_sub
    chain_part = np.zeros_like(probs)
    intensity_integral = 0.0
    for _ in range(n_sub):
        chain = trans.T @ probs
        mean_load = float(probs @ load)
        chain_part += chain * h
        intensity_integral += mean_load * h
        probs = probs + (chain + probs * (mean_load - load)) * h
        probs = renormalize(probs)
    return probs, chain_part, intensity_integral, n_sub


def numpy_bayes_jump(probs, column):
    """Reference for the jump of the generated walk, on numpy vectors."""
    intensity = float(probs @ column)
    if intensity <= 0.0:
        return None, intensity
    return renormalize(probs * column / intensity), intensity


def clip_every_entry(probs):
    """Reference for ``_renormalized``: the rule that clips every entry
    below 0 before it sums, with no test on ``min`` first."""
    probs = [0.0 if x < 0.0 else x for x in probs]
    total = sum(probs)
    if abs(total - 1.0) > 1e-13:
        if total <= 0.0:
            raise ModelError("probability vector has collapsed to zero mass")
        probs = [x / total for x in probs]
    return probs


def left_sum(values):
    """``sum`` of floats as CPython 3.11 adds them: left to right from 0.0
    (later versions compensate the sum, so the reference spells it out)."""
    total = 0.0
    for x in values:
        total += x
    return total


def left_dot(a, b):
    return left_sum(x * y for x, y in zip(a, b))


def list_integrate_drift(probs, dt, trans_t, load, rate_scale, max_h):
    """Reference for the drift of the generated walk: the list kernel it
    replaced.  It takes the stop's length, the rows of ``trans.T``, the
    stop's load row, its rate scale and the substep cap.  Each substep
    builds the next law as a list and passes it to
    ``continuous._renormalized``, the laws the substeps start from are
    kept, and the drift sums are formed from their column sums."""
    n_sub = max(1, math.ceil(dt * rate_scale / _MAX_EULER_MASS))
    if max_h < dt:
        n_sub = max(n_sub, math.ceil(round(dt / max_h, 9)))
    h = dt / n_sub
    h_load = [h * q for q in load]
    step = [[h * k for k in row] for row in trans_t]
    for i, row in enumerate(step):
        row[i] += 1.0 - h_load[i]
    kept = []
    for _ in range(n_sub):
        kept.append(probs)
        no_news = left_dot(h_load, probs)
        probs = continuous._renormalized(
            [left_dot(row, probs) + no_news * x for row, x in zip(step, probs)]
        )
    law_sum = [left_sum(column) for column in zip(*kept)]
    chain_part = [left_dot(row, law_sum) * h for row in trans_t]
    return probs, chain_part, left_dot(h_load, law_sum)


def list_bayes_jump(probs, column):
    """Reference for the jump of the generated walk: the list kernel it
    replaced, which summed the mixture intensity ``probs @ column`` by
    ``sum`` and passed every posterior to ``continuous._renormalized``.
    The posterior is ``None`` when that intensity is not positive."""
    intensity = left_dot(probs, column)
    if intensity <= 0.0:
        return None, intensity
    return continuous._renormalized([x * c / intensity for x, c in zip(probs, column)]), intensity


def same_floats(a, b):
    """Lists equal entry by entry, sign of zero included, NaN matching NaN."""
    return len(a) == len(b) and all(
        (math.isnan(x) and math.isnan(y))
        or (x == y and math.copysign(1.0, x) == math.copysign(1.0, y))
        for x, y in zip(a, b)
    )


@st.composite
def kernel_inputs(draw):
    """A filtered law of 1-8 states, a generator and a load row.  Some laws
    sum 1e-12 to 1e-9 away from 1 (so the 1e-13 rescale trips), hold zeros
    or a tiny negative entry."""
    m = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    trans = rng.exponential(1.0, (m, m)) * draw(st.sampled_from([0.0, 0.1, 1.0, 5.0]))
    np.fill_diagonal(trans, 0.0)
    np.fill_diagonal(trans, -trans.sum(axis=1))
    load = rng.exponential(1.0, m) * draw(st.sampled_from([0.0, 0.1, 1.0, 10.0]))
    probs = rng.dirichlet(np.full(m, draw(st.sampled_from([0.2, 1.0, 5.0]))))
    if m > 1 and draw(st.booleans()):
        probs[rng.random(m) < 0.4] = 0.0
        probs[0] = draw(st.sampled_from([0.0, -1e-17]))
        assume(probs.sum() > 0.5)
        probs = probs / probs.sum()
    probs = probs * (1.0 + draw(st.sampled_from([0.0, 1e-12, -1e-11, 1e-9])))
    return probs, trans, load


def drift_args(trans, load, dt_share, max_h_share):
    """The drift of one stop as ``(dt, trans_t, load_row, rate_scale,
    max_h)``, the arguments of ``list_integrate_drift`` after the law, with
    ``dt`` and ``max_h`` as multiples of the stability bound, either side
    of it."""
    rate_scale = max(np.max(-np.diag(trans)), 0.0) + max(load.max(), 0.0)
    bound = _MAX_EULER_MASS / rate_scale if rate_scale > 0 else 1.0
    trans_t, (load_row,), (scale,) = _drift_inputs(trans, load[None])
    return dt_share * bound, trans_t, load_row, scale, max_h_share * bound


def frozen_args(m):
    """``drift_args`` of a frozen chain with no load over a unit stop: one
    Euler substep with ``M = I``, which leaves a law on the simplex as it
    is."""
    return drift_args(np.zeros((m, m)), np.zeros(m), 1.0, 1.0)


def walk_stop(probs, args, column=None):
    """The generated walk on a one-stop schedule: the drift of ``args``
    (see ``drift_args``) and, given a ``column``, one event at the stop
    whose transition has those per-state intensities, with an exposure of
    1.  Returns the law at the stop, the stop's chain part and the
    log-likelihood."""
    dt, trans_t, load, rate_scale, max_h = args
    events = [] if column is None else [dt]
    laws, (part,), loglik = _stop_walk(len(probs))(
        probs, [dt], [0], [0], [0], [dt], events, [0] * len(events), [0] * len(events),
        trans_t, [load], [rate_scale], max_h, [[column]], [[1.0]],
    )
    return laws[-1], part, loglik


def list_stop(probs, args, column=None):
    """What ``walk_stop`` gives, by the list kernels.  The walk adds each
    chain part to its interval's sum from 0.0 and takes the intensity
    integral off a log-likelihood of 0.0, so a -0.0 reads 0.0 there."""
    dt = args[0]
    probs, chain, integral = list_integrate_drift(probs, *args)
    loglik = 0.0 - integral
    if column is not None:
        posterior, intensity = list_bayes_jump(probs, column)
        if posterior is None:
            raise ImpossibleObservationError(
                f"event 0 (0->0 at t={dt}) has zero predicted intensity", time_index=dt
            )
        probs = posterior
        loglik += math.log(1.0 * intensity)
    return probs, [0.0 + c for c in chain], loglik


def stop_outcome(stop, probs, args, column=None):
    """``stop(probs, args, column)``: the law, chain part and
    log-likelihood, or the type, message and time of the error raised."""
    try:
        return stop(probs, args, column)
    except ModelError as exc:
        return type(exc), str(exc), exc.time_index


def same_outcome(a, b):
    """Two ``stop_outcome`` results agree: the same error, or the same
    floats in the law, the chain part and the log-likelihood."""
    if isinstance(a[0], type) or isinstance(b[0], type):
        return a == b
    return same_floats(a[0], b[0]) and same_floats(a[1], b[1]) and same_floats([a[2]], [b[2]])


def jump_column(load, zeroed, last):
    """A transition's per-state intensities from a drawn load row: the
    entries flagged in ``zeroed`` set to 0 and, given ``last``, the last
    entry set to it."""
    column = np.where(zeroed[: len(load)], 0.0, load)
    if last is not None:
        column[-1] = last
    return column.tolist()


def renormalize_calls(stop, probs, args, column=None):
    """How often ``stop`` calls ``continuous._renormalized``, and how many
    of the calls changed the law they were given (NaNs matching)."""
    calls, changed = [], []

    def counted(law):
        out = _renormalized(law)
        calls.append(1)
        changed.append(not same_floats(out, law))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(continuous, "_renormalized", counted)
        stop_outcome(stop, probs, args, column)
    return len(calls), sum(changed)


class TestFloatKernels:
    """The generated stop walk on Python floats agrees with the numpy
    kernels it replaced and gives the bits of the list kernels, on
    one-stop schedules fed straight to ``_stop_walk``."""

    @settings(max_examples=300, deadline=None)
    @given(kernel_inputs(), st.floats(0.05, 20.0), st.floats(0.05, 20.0))
    def test_drift_matches_numpy_reference(self, drawn, dt_share, max_h_share):
        probs, trans, load = drawn
        args = drift_args(trans, load, dt_share, max_h_share)
        dt, *_, max_h = args
        ref_probs, ref_chain, ref_integral, n_sub = numpy_integrate_drift(
            probs, dt, trans, load, max_h
        )
        # the list kernel renormalizes one law per Euler substep; the walk
        # gives its bits (test_drift_matches_list_kernel_bit_for_bit)
        assert renormalize_calls(list_stop, probs.tolist(), args)[0] == n_sub
        out_probs, out_chain, out_loglik = walk_stop(probs.tolist(), args)
        np.testing.assert_allclose(out_probs, ref_probs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out_chain, ref_chain, rtol=1e-12, atol=1e-12)
        assert math.isclose(-out_loglik, ref_integral, rel_tol=1e-12, abs_tol=1e-12)

    @settings(max_examples=500, deadline=None)
    @given(
        kernel_inputs(),
        st.floats(0.05, 20.0),
        st.floats(0.05, 20.0),
        st.sampled_from([None, math.nan, -0.0, 0.0, -1e-17]),
    )
    def test_drift_matches_list_kernel_bit_for_bit(self, drawn, dt_share, max_h_share, cell):
        """The generated walk gives the list kernel's bits: final law, chain
        part and intensity integral, sign of zero and NaN included, also
        when the first entry of the law is set to a NaN, a signed zero or a
        tiny negative number, and the same zero-mass error."""
        probs, trans, load = drawn
        if cell is not None:
            probs[0] = cell
        args = drift_args(trans, load, dt_share, max_h_share)
        assert same_outcome(
            stop_outcome(walk_stop, probs.tolist(), args),
            stop_outcome(list_stop, probs.tolist(), args),
        )

    @settings(max_examples=300, deadline=None)
    @given(kernel_inputs(), st.floats(0.05, 20.0), st.floats(0.05, 20.0))
    def test_drift_renormalizes_only_where_that_changes_the_law(
        self, drawn, dt_share, max_h_share
    ):
        """The walk calls ``_renormalized`` on exactly the substeps of the
        list kernel where ``_renormalized`` changes the law: an entry below
        0, or a sum further than 1e-13 from 1.  A law with an exact zero
        (an unreachable state) or on the simplex within 1e-13 never calls
        it."""
        probs, trans, load = drawn
        args = drift_args(trans, load, dt_share, max_h_share)
        calls, _ = renormalize_calls(walk_stop, probs.tolist(), args)
        assert calls == renormalize_calls(list_stop, probs.tolist(), args)[1]

    @settings(max_examples=300, deadline=None)
    @given(kernel_inputs(), st.lists(st.booleans(), min_size=8, max_size=8))
    def test_jump_matches_numpy_reference(self, drawn, zeroed):
        """An event on a frozen chain with no load: the posterior and the
        intensity (the exponential of the log-likelihood) agree with the
        numpy kernel on the renormalized law, and an event of zero
        intensity is refused."""
        probs, _, load = drawn
        column = jump_column(load, zeroed, None)
        ref_posterior, ref_intensity = numpy_bayes_jump(renormalize(probs), np.array(column))
        if ref_posterior is None:
            with pytest.raises(ImpossibleObservationError, match="zero predicted intensity"):
                walk_stop(probs.tolist(), frozen_args(len(probs)), column)
            return
        posterior, _, loglik = walk_stop(probs.tolist(), frozen_args(len(probs)), column)
        assert math.isclose(math.exp(loglik), ref_intensity, rel_tol=1e-12, abs_tol=1e-12)
        np.testing.assert_allclose(posterior, ref_posterior, rtol=0, atol=1e-12)

    @settings(max_examples=500, deadline=None)
    @given(
        kernel_inputs(),
        st.floats(0.05, 20.0),
        st.floats(0.05, 20.0),
        st.sampled_from([None, math.nan, -0.0, 0.0, -1e-17]),
        st.lists(st.booleans(), min_size=8, max_size=8),
        st.sampled_from([None, -1.0, -1e-3, math.nan]),
    )
    def test_jump_matches_list_kernel_bit_for_bit(
        self, drawn, dt_share, max_h_share, cell, zeroed, last
    ):
        """A drift and then an event give the list kernels' bits: law,
        chain part and log-likelihood, or the same refusal of a zero
        intensity (message and time) or zero-mass error.  The law's first
        entry may be a NaN, a signed zero or a tiny negative number, and
        the transition's intensities may hold zeros and a negative or NaN
        last entry, so that some posteriors leave the simplex."""
        probs, trans, load = drawn
        if cell is not None:
            probs[0] = cell
        args = drift_args(trans, load, dt_share, max_h_share)
        column = jump_column(load, zeroed, last)
        assert same_outcome(
            stop_outcome(walk_stop, probs.tolist(), args, column),
            stop_outcome(list_stop, probs.tolist(), args, column),
        )

    @settings(max_examples=300, deadline=None)
    @given(
        kernel_inputs(),
        st.floats(0.05, 20.0),
        st.floats(0.05, 20.0),
        st.lists(st.booleans(), min_size=8, max_size=8),
        st.sampled_from([None, -1.0, -1e-3]),
    )
    def test_jump_renormalizes_only_where_that_changes_the_law(
        self, drawn, dt_share, max_h_share, zeroed, last
    ):
        """Over a drift and an event, the walk calls ``_renormalized``
        exactly where the list kernels' calls change the law: a posterior
        with a zero entry (a zero intensity or an unreachable state) stays
        on the fast path, and one with a negative entry is renormalized."""
        probs, trans, load = drawn
        args = drift_args(trans, load, dt_share, max_h_share)
        column = jump_column(load, zeroed, last)
        calls, _ = renormalize_calls(walk_stop, probs.tolist(), args, column)
        assert calls == renormalize_calls(list_stop, probs.tolist(), args, column)[1]

    def test_collapse_to_zero_mass_raises_like_the_reference(self):
        trans = np.array([[-0.5, 0.5], [0.2, -0.2]])
        load = np.array([1.0, 2.0])
        with pytest.raises(ModelError, match="collapsed to zero mass"):
            numpy_integrate_drift(np.zeros(2), 0.1, trans, load, 0.1)
        trans_t, (load_row,), (scale,) = _drift_inputs(trans, load[None])
        with pytest.raises(ModelError, match="collapsed to zero mass"):
            walk_stop([0.0, 0.0], (0.1, trans_t, load_row, scale, 0.1))

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.sampled_from([math.nan, -0.0, 0.0, -1e-17, 1e-17, -1.0, 0.25, 0.5, 1.0]),
            min_size=1, max_size=6,
        ),
        st.sampled_from([1.0, 1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-14]),
    )
    # min is NaN here, which a ``min(p) < 0.0`` test would let through
    @example([math.nan, -1.0], 1.0)
    def test_renormalized_matches_clip_every_entry(self, cells, scale):
        probs = [x * scale for x in cells]
        try:
            expected = clip_every_entry(probs)
        except ModelError as exc:
            with pytest.raises(ModelError, match=str(exc)):
                _renormalized(probs)
            return
        assert same_floats(_renormalized(probs), expected)

    def test_long_stop_folds_its_kept_laws(self):
        """A stop of 200,000 substeps holds O(1) memory: the walk keeps the
        running sums of its laws, not the laws."""
        trans = np.array(
            [[-0.3, 0.1, 0.1, 0.1], [0.2, -0.4, 0.1, 0.1],
             [0.0, 0.5, -0.5, 0.0], [0.1, 0.1, 0.1, -0.3]]
        )
        trans_t, (load_row,), (scale,) = _drift_inputs(trans, np.array([[1.0, 2.0, 0.5, 3.0]]))
        n_sub = 200_000
        # build and run the m = 4 walk once first: traced from a cold
        # start, the long stop also ran 10-20 times slower
        walk_stop([0.25] * 4, (1e-5, trans_t, load_row, scale, 1e-5))
        tracemalloc.start()
        try:
            probs, chain, loglik = walk_stop(
                [0.25] * 4, (n_sub * 1e-5, trans_t, load_row, scale, 1e-5)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 200,000 kept laws of 4 floats would take about 36 MB
        assert peak < 2_000_000
        assert math.isclose(sum(probs), 1.0, rel_tol=1e-12)
        assert math.isfinite(loglik) and all(map(math.isfinite, chain))

    @staticmethod
    def entrant_streams(seed):
        """A simulated 40-day stream of the 4-state demo model with entrants
        who join and leave at day ends (boundary overrides), raw and spread
        onto 32 slots a day."""
        factor, law = mf.demo_model(4, 3, mode=mf.Mode.CONTINUOUS, spread=8.0)
        config = mf.SimulationConfig(np.full(3, 300), 40.0, seed, mode=mf.Mode.CONTINUOUS)
        closed, _ = mf.simulate_events_continuous(factor, law, config)
        daily = mf.stream_to_panel(closed, 1.0)
        entrants = np.random.default_rng(seed).integers(0, 20, size=daily.exposures.shape)
        counts = daily.counts.copy()
        counts[:, np.arange(3), np.arange(3)] += entrants
        panel = mf.MigrationPanel(daily.exposures + entrants, counts, step_length_days=1)
        raw = mf.EventStream(
            closed.times, closed.sources, closed.targets, panel.exposures[0], closed.horizon,
            boundary_times=np.arange(1, panel.steps, dtype=float),
            boundary_exposures=panel.exposures[1:],
        )
        spread = mf.spread_jumps(panel, mf.SpreadConfig(32, seed=seed))
        return factor, law, (raw, spread)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_filter_gives_the_list_kernels_trajectory_bytes(self, seed):
        """Both filters of the benchmark's shape (grid_dt 0.05, report_dt 5)
        write the trajectory bytes of the loop reference, which runs the
        list kernels."""
        factor, law, streams = self.entrant_streams(seed)

        def trajectory_bytes(run, stream):
            traj = run(stream, factor, law, grid_dt=0.05, report_dt=5.0)
            fields = (traj.probs, traj.time_index, traj.predicted_ratios, traj.prediction_parts)
            return [a.tobytes() for a in fields] + [np.float64(traj.loglik).tobytes()]

        for stream in streams:
            assert trajectory_bytes(mf.run_continuous_filter, stream) == trajectory_bytes(
                loop_continuous_filter, stream
            )


class TestJumpUpdate:
    """Hand examples of the jump of the generated walk, on a frozen chain
    with no load, whose drift before the event leaves the law as it is."""

    @staticmethod
    def jump(probs, column):
        """The law after one event, and the event's log intensity."""
        posterior, _, loglik = walk_stop(probs, frozen_args(len(probs)), column)
        return posterior, loglik

    def test_equal_intensities_change_nothing(self):
        probs = [0.3, 0.7]
        posterior, _ = self.jump(probs, [0.05, 0.05])
        np.testing.assert_allclose(posterior, probs, atol=1e-15)

    def test_hand_bayes_ratio(self):
        posterior, log_intensity = self.jump([0.5, 0.5], [0.01, 0.03])
        np.testing.assert_allclose(posterior, [0.25, 0.75], atol=1e-14)
        assert math.exp(log_intensity) == pytest.approx(0.02, rel=1e-15)

    def test_degenerate_prior_is_fixed_point(self):
        _, law = two_state_continuous_model()
        posterior, _ = self.jump([1.0, 0.0], law.per_state[:, 0, 1].tolist())
        assert posterior == [1.0, 0.0]

    def test_column_scale_invariance(self, rng):
        _, law = two_state_continuous_model()
        column = law.per_state[:, 0, 1]
        probs = rng.dirichlet(np.ones(2)).tolist()
        a, _ = self.jump(probs, column.tolist())
        b, _ = self.jump(probs, (column * 7.5).tolist())
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_zero_intensity_names_the_event_and_its_time(self):
        with pytest.raises(ImpossibleObservationError) as err:
            self.jump([1.0, 0.0], [0.0, 0.3])
        assert str(err.value) == "event 0 (0->0 at t=1.0) has zero predicted intensity"
        assert err.value.time_index == 1.0

    def test_zero_intensity_transition_rejected(self):
        factor = mf.HiddenFactorSpec([1.0], [[0.0]], mode=mf.Mode.CONTINUOUS)
        law = mf.MigrationLaw(np.zeros((1, 2, 2)), mode=mf.Mode.CONTINUOUS)
        stream = mf.EventStream([0.5], [0], [1], [1, 0], horizon=1.0)
        with pytest.raises(ImpossibleObservationError, match="zero predicted intensity"):
            mf.run_continuous_filter(stream, factor, law, grid_dt=0.1, report_dt=1.0)


class TestStepSizes:
    """Grid steps and report intervals that are not finite and positive are
    refused, never silently dropped or turned into a bare exception."""

    def stream(self):
        return mf.EventStream(
            times=np.array([0.5, 1.25]), sources=np.array([0, 1]), targets=np.array([1, 0]),
            initial_exposures=np.array([4, 4]), horizon=2.0,
        )

    @pytest.mark.parametrize("step", [0.0, -0.5, float("nan"), float("inf")])
    def test_stream_to_panel_refuses_the_step(self, step):
        with pytest.raises(DataError, match="grid step must be positive and finite"):
            mf.stream_to_panel(self.stream(), step)

    @pytest.mark.parametrize(
        "read",
        [
            lambda stream, step: mf.stream_to_panel(stream, step),
            lambda stream, step: mf.em_fit_continuous(stream, 1, mf.EmConfig(restarts=1), step),
        ],
        ids=["stream_to_panel", "em_fit_continuous"],
    )
    def test_a_step_far_longer_than_the_horizon_is_refused(self, read):
        """The horizon is within 1e-9 of zero steps: a grid of no steps."""
        with pytest.raises(DataError, match="^horizon 2.0 is not a positive whole number of"):
            read(self.stream(), 1e12)

    @pytest.mark.parametrize(
        "grid_dt, report_dt",
        [(float("nan"), 1.0), (float("inf"), 1.0), (0.0, 1.0), (-0.5, 1.0),
         (0.01, float("nan")), (0.01, float("inf")), (0.01, 0.0), (0.01, -1.0)],
    )
    def test_run_continuous_filter_refuses_the_step(self, grid_dt, report_dt):
        factor, law = two_state_continuous_model()
        with pytest.raises(DataError, match=rf"^(grid_dt must be positive and finite, got {grid_dt!r}"
                                            rf"|report_dt must be positive and finite, got {report_dt!r})$"):
            mf.run_continuous_filter(
                self.stream(), factor, law, grid_dt=grid_dt, report_dt=report_dt
            )


class TestRunContinuousFilter:
    def test_empty_stream_frozen_chain_is_constant(self):
        factor = mf.HiddenFactorSpec(
            np.array([0.4, 0.6]), np.zeros((2, 2)), mode=mf.Mode.CONTINUOUS
        )
        ell = np.zeros((2, 2, 2))
        law = mf.MigrationLaw(ell, mode=mf.Mode.CONTINUOUS)
        stream = mf.EventStream(
            times=np.empty(0),
            sources=np.empty(0, dtype=int),
            targets=np.empty(0, dtype=int),
            initial_exposures=np.array([5, 5]),
            horizon=3.0,
        )
        traj = mf.run_continuous_filter(stream, factor, law, grid_dt=0.1, report_dt=1.0)
        for state in traj.states:
            np.testing.assert_allclose(state.probs, [0.4, 0.6], atol=1e-12)

    def test_single_jump_stream_equals_composition(self):
        factor, law = two_state_continuous_model()
        stream = mf.EventStream(
            times=np.array([0.6]),
            sources=np.array([0]),
            targets=np.array([1]),
            initial_exposures=np.array([20, 10]),
            horizon=1.0,
        )
        grid_dt = 1e-3
        traj = mf.run_continuous_filter(stream, factor, law, grid_dt=grid_dt, report_dt=1.0)

        # the list kernels, composed by hand with the same capped substeps
        exposures = np.array([[20, 10], [19, 11]])
        trans_t, loads, scales = _drift_inputs(factor.trans, _intensity_load(law, exposures))
        probs = factor.pi.tolist()
        for _ in range(600):
            probs, _, _ = list_integrate_drift(
                probs, grid_dt, trans_t, loads[0], scales[0], grid_dt
            )
        probs, _ = list_bayes_jump(probs, law.per_state[:, 0, 1].tolist())
        for _ in range(400):
            probs, _, _ = list_integrate_drift(
                probs, grid_dt, trans_t, loads[1], scales[1], grid_dt
            )
        np.testing.assert_allclose(traj.states[-1].probs, probs, atol=1e-9)

    def test_reported_states_on_simplex_and_parts_decompose(self):
        factor, law = mf.demo_model(3, 3, mode=mf.Mode.CONTINUOUS)
        cfg = mf.SimulationConfig(
            np.array([150, 150, 150]), 40.0, seed=6, mode=mf.Mode.CONTINUOUS
        )
        stream, _ = mf.simulate_events_continuous(factor, law, cfg)
        traj = mf.run_continuous_filter(stream, factor, law, grid_dt=0.02, report_dt=2.0)
        probs = traj.probs_matrix()
        assert np.all(probs >= -1e-12)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        moves = probs[1:] - probs[:-1]
        np.testing.assert_allclose(
            traj.prediction_parts + traj.correction_parts, moves, atol=1e-9
        )
        np.testing.assert_allclose(traj.predicted_ratios.sum(axis=2), 1.0, atol=1e-9)

    def test_forecasts_are_predict_transition_probs_of_the_rows(self):
        factor, law = mf.demo_model(3, 3, mode=mf.Mode.CONTINUOUS)
        cfg = mf.SimulationConfig(
            np.array([100, 100, 100]), 20.0, seed=2, mode=mf.Mode.CONTINUOUS
        )
        stream, _ = mf.simulate_events_continuous(factor, law, cfg)
        traj = mf.run_continuous_filter(stream, factor, law, grid_dt=0.05, report_dt=2.5)
        step_law = mf.MigrationLaw(mf.generator_to_transition(law.per_state, 2.5))
        want = mf.predict_transition_probs(step_law, traj.probs[:-1])
        assert traj.predicted_ratios.tobytes() == want.tobytes()

    def test_grid_refinement_converges_linearly(self):
        factor = mf.HiddenFactorSpec(
            np.array([0.5, 0.5]), np.array([[-1.0, 1.0], [1.5, -1.5]]), mode=mf.Mode.CONTINUOUS
        )
        law = mf.MigrationLaw(
            np.array([[[-0.1, 0.1], [0.05, -0.05]], [[-0.5, 0.5], [0.2, -0.2]]]),
            mode=mf.Mode.CONTINUOUS,
        )
        cfg = mf.SimulationConfig(np.array([5, 5]), 1.0, seed=3, mode=mf.Mode.CONTINUOUS)
        stream, _ = mf.simulate_events_continuous(factor, law, cfg)
        ref = mf.run_continuous_filter(
            stream, factor, law, grid_dt=2e-6, report_dt=1.0
        ).states[-1].probs
        dts = [2e-2, 1e-2, 5e-3]
        errs = [
            np.abs(
                mf.run_continuous_filter(stream, factor, law, grid_dt=dt, report_dt=1.0)
                .states[-1]
                .probs
                - ref
            ).max()
            for dt in dts
        ]
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope > 0.8

    def test_matches_discrete_filter_on_sparse_panel(self):
        factor, law = two_state_continuous_model()
        delta = 0.25
        trans_d = mf.generator_to_transition(factor.trans, delta)
        law_d = mf.MigrationLaw(
            np.array([mf.generator_to_transition(g, delta) for g in law.per_state])
        )
        factor_d = mf.HiddenFactorSpec(factor.pi, trans_d)
        cfg = mf.SimulationConfig(
            np.array([4, 4]), 40 * delta, seed=9, mode=mf.Mode.CONTINUOUS
        )
        stream, _ = mf.simulate_events_continuous(factor, law, cfg)
        panel = mf.stream_to_panel(stream, delta)
        off = ~np.eye(2, dtype=bool)
        assert panel.counts[:, off].sum(axis=1).max() <= 1
        traj_c = mf.run_continuous_filter(
            stream, factor, law, grid_dt=delta / 100, report_dt=delta
        )
        traj_d = mf.run_filter(panel, factor_d, law_d)
        diff = np.abs(traj_c.probs_matrix() - traj_d.probs_matrix()).max()
        assert diff < 10 * delta  # agreement to first order in the step

    def test_boundary_exposure_overrides_are_applied(self):
        factor, law = two_state_continuous_model()
        stream = mf.EventStream(
            times=np.array([1.5]),
            sources=np.array([0]),
            targets=np.array([1]),
            initial_exposures=np.array([10, 0]),
            horizon=2.0,
            boundary_times=np.array([1.0]),
            boundary_exposures=np.array([[300, 0]]),
        )
        traj = mf.run_continuous_filter(stream, factor, law, grid_dt=0.01, report_dt=1.0)
        # with 300 exposed entities and no jumps in (1.0, 1.5) the stressed
        # state drains much faster than with 10
        small = mf.EventStream(
            times=np.array([1.5]),
            sources=np.array([0]),
            targets=np.array([1]),
            initial_exposures=np.array([10, 0]),
            horizon=2.0,
        )
        traj_small = mf.run_continuous_filter(small, factor, law, grid_dt=0.01, report_dt=1.0)
        assert traj.states[-1].probs[1] != pytest.approx(traj_small.states[-1].probs[1])

    def test_override_at_an_event_time_applies_after_the_event(self):
        # the override at t=1.0 restates what the event at t=1.0 implies,
        # so it must change nothing
        factor, law = two_state_continuous_model()
        plain = mf.EventStream(
            times=np.array([1.0]),
            sources=np.array([0]),
            targets=np.array([1]),
            initial_exposures=np.array([2, 0]),
            horizon=2.0,
        )
        redundant = mf.EventStream(
            times=plain.times,
            sources=plain.sources,
            targets=plain.targets,
            initial_exposures=plain.initial_exposures,
            horizon=2.0,
            boundary_times=np.array([1.0]),
            boundary_exposures=np.array([[1, 1]]),
        )
        a = mf.run_continuous_filter(plain, factor, law, grid_dt=0.01, report_dt=0.5)
        b = mf.run_continuous_filter(redundant, factor, law, grid_dt=0.01, report_dt=0.5)
        assert b.loglik == a.loglik
        np.testing.assert_array_equal(b.probs_matrix(), a.probs_matrix())


class TestStopArray:
    """The filter walks one sorted array of event, boundary and report times,
    compares them exactly and reports up to the horizon."""

    @settings(max_examples=200, deadline=None)
    @given(
        open_cohort_streams(), st.sampled_from([1.0, 0.5, 0.7]), st.booleans(), st.integers(1, 6)
    )
    def test_matches_loop_reference(self, drawn, report_fraction, impossible, m):
        """Trajectory bytes, or the refusal's message and time, equal the
        loop reference's for hidden chains of 1-6 states."""
        stream, step = drawn
        report_dt = report_fraction * step
        factor, law = mf.demo_model(m, stream.p, mode=mf.Mode.CONTINUOUS, spread=8.0)
        if impossible:
            # no state can move an entity 0 -> 1: such an event is refused
            per_state = law.per_state.copy()
            per_state[:, 0, 0] += per_state[:, 0, 1]
            per_state[:, 0, 1] = 0.0
            law = mf.MigrationLaw(per_state, mode=mf.Mode.CONTINUOUS)
        # the reference merges stops closer than 1e-12 and may end its
        # reports short of the horizon; keep streams where neither shows
        n_intervals = max(1, math.ceil(round(stream.horizon / report_dt, 9)))
        loop_reports = np.minimum(np.arange(1, n_intervals + 1) * report_dt, stream.horizon)
        knots = [stream.times, loop_reports, [0.0, stream.horizon]]
        if stream.boundary_times is not None:
            knots.append(stream.boundary_times)
        assume(np.all(np.diff(np.unique(np.concatenate(knots))) > 1e-12))
        assert filter_or_error(
            mf.run_continuous_filter, stream, factor, law, report_dt
        ) == filter_or_error(loop_continuous_filter, stream, factor, law, report_dt)

    @staticmethod
    def one_event_stream(time, horizon=2.0):
        return mf.EventStream([time], [0], [1], [10, 10], horizon)

    def test_event_just_after_a_report_time_is_not_in_that_report(self):
        factor, law = mf.demo_model(2, 2, mode=mf.Mode.CONTINUOUS)
        near, far = (
            mf.run_continuous_filter(
                self.one_event_stream(1.0 + gap), factor, law, grid_dt=0.01, report_dt=1.0
            )
            for gap in (4e-13, 2e-12)
        )
        assert near.probs[1].tobytes() == far.probs[1].tobytes()
        assert abs(near.probs[2] - far.probs[2]).max() < 1e-9

    def test_event_past_the_last_whole_report_interval_counts(self):
        factor, law = mf.demo_model(2, 2, mode=mf.Mode.CONTINUOUS)
        horizon = 1.0000000001
        stream = self.one_event_stream(1.00000000005, horizon)
        assert mf.stream_to_panel(stream, 1.0).counts[0, 0, 1] == 1
        empty = mf.EventStream([], [], [], [10, 10], horizon)
        with_event, without = (
            mf.run_continuous_filter(s, factor, law, grid_dt=0.01, report_dt=1.0)
            for s in (stream, empty)
        )
        np.testing.assert_array_equal(with_event.time_index, [0.0, horizon])
        # the event adds the log of its predicted intensity, about 10 * 0.0037
        assert with_event.loglik - without.loglik < -3.0
