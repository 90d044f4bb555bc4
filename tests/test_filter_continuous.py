import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import migfilter as mf
from migfilter.errors import DataError, ImpossibleObservationError, ModelError


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
                raise DataError(f"step {t}: more departures from rating {j} than exposure")
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


class TestDriftStep:
    def test_identical_intensities_reduce_to_chain_drift(self):
        factor, _ = two_state_continuous_model()
        mat = np.array([[-0.05, 0.05], [0.02, -0.02]])
        law = mf.MigrationLaw(np.array([mat, mat]), mode=mf.Mode.CONTINUOUS)
        state = mf.FilterState(np.array([0.7, 0.3]))
        dt = 1e-3
        out = mf.continuous_drift_step(state, dt, factor, law, np.array([50, 50]))
        euler = state.probs + factor.trans.T @ state.probs * dt
        np.testing.assert_allclose(out.probs, euler / euler.sum(), atol=1e-12)

    def test_no_dynamics_is_identity(self):
        factor = mf.HiddenFactorSpec(
            np.array([0.5, 0.5]), np.zeros((2, 2)), mode=mf.Mode.CONTINUOUS
        )
        _, law = two_state_continuous_model()
        state = mf.FilterState(np.array([0.25, 0.75]))
        out = mf.continuous_drift_step(state, 0.5, factor, law, np.zeros(2))
        np.testing.assert_allclose(out.probs, state.probs, atol=1e-15)

    def test_no_news_drains_high_intensity_states(self):
        # no jumps observed: mass must flow away from the stressed state
        factor = mf.HiddenFactorSpec(
            np.array([0.5, 0.5]), np.zeros((2, 2)), mode=mf.Mode.CONTINUOUS
        )
        _, law = two_state_continuous_model()
        state = mf.FilterState(np.array([0.5, 0.5]))
        out = mf.continuous_drift_step(state, 0.5, factor, law, np.array([100, 100]))
        assert out.probs[1] < 0.5 < out.probs[0]

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
        factor = mf.HiddenFactorSpec(
            np.array([0.5, 0.5]),
            np.array([[-3.0, 3.0], [2.0, -2.0]]),
            mode=mf.Mode.CONTINUOUS,
        )
        _, law = two_state_continuous_model()
        out = mf.continuous_drift_step(
            mf.FilterState(np.array([0.9, 0.1])), 5.0, factor, law, np.array([500, 500])
        )
        assert np.all(out.probs >= 0)
        assert abs(out.probs.sum() - 1) < 1e-10

    def test_nonpositive_dt_rejected(self):
        factor, law = two_state_continuous_model()
        with pytest.raises(ModelError):
            mf.continuous_drift_step(
                mf.FilterState(np.array([0.5, 0.5])), 0.0, factor, law, np.zeros(2)
            )


class TestJumpUpdate:
    def test_equal_intensities_change_nothing(self):
        mat = np.array([[-0.05, 0.05], [0.02, -0.02]])
        law = mf.MigrationLaw(np.array([mat, mat]), mode=mf.Mode.CONTINUOUS)
        state = mf.FilterState(np.array([0.3, 0.7]))
        out = mf.continuous_jump_update(state, (0, 1), law)
        np.testing.assert_allclose(out.probs, state.probs, atol=1e-15)

    def test_hand_bayes_ratio(self):
        ell = np.zeros((2, 2, 2))
        ell[0] = [[-0.01, 0.01], [0.0, 0.0]]
        ell[1] = [[-0.03, 0.03], [0.0, 0.0]]
        law = mf.MigrationLaw(ell, mode=mf.Mode.CONTINUOUS)
        out = mf.continuous_jump_update(mf.FilterState(np.array([0.5, 0.5])), (0, 1), law)
        np.testing.assert_allclose(out.probs, [0.25, 0.75], atol=1e-14)

    def test_degenerate_prior_is_fixed_point(self):
        _, law = two_state_continuous_model()
        out = mf.continuous_jump_update(mf.FilterState(np.array([1.0, 0.0])), (0, 1), law)
        np.testing.assert_array_equal(out.probs, [1.0, 0.0])

    def test_column_scale_invariance(self, rng):
        _, law = two_state_continuous_model()
        scaled = law.per_state.copy()
        scaled[:, 0, 1] *= 7.5
        # keep generator rows valid after scaling a column
        scaled[:, 0, 0] = -scaled[:, 0].sum(axis=1) + scaled[:, 0, 0]
        scaled[:, 0, 0] = 0.0
        scaled[:, 0, 0] = -scaled[:, 0, 1]
        law2 = mf.MigrationLaw(scaled, mode=mf.Mode.CONTINUOUS)
        state = mf.FilterState(rng.dirichlet(np.ones(2)))
        a = mf.continuous_jump_update(state, (0, 1), law)
        b = mf.continuous_jump_update(state, (0, 1), law2)
        np.testing.assert_allclose(a.probs, b.probs, atol=1e-14)

    def test_zero_intensity_transition_rejected(self):
        ell = np.zeros((1, 2, 2))
        law = mf.MigrationLaw(ell, mode=mf.Mode.CONTINUOUS)
        with pytest.raises(ImpossibleObservationError):
            mf.continuous_jump_update(mf.FilterState(np.array([1.0])), (0, 1), law)


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

        state = mf.FilterState(factor.pi)
        y = np.array([20.0, 10.0])
        # drift to the event, using the same capped substeps as the runner
        for _ in range(600):
            state = mf.continuous_drift_step(state, grid_dt, factor, law, y)
        state = mf.continuous_jump_update(state, (0, 1), law)
        y = np.array([19.0, 11.0])
        for _ in range(400):
            state = mf.continuous_drift_step(state, grid_dt, factor, law, y)
        np.testing.assert_allclose(traj.states[-1].probs, state.probs, atol=1e-9)

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
