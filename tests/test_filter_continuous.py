import numpy as np
import pytest

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
