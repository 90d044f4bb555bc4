import json

import numpy as np
import pytest
from scipy.linalg import expm

import migfilter as mf
from migfilter.errors import DataError, ModelError


class TestValidateModel:
    def test_valid_model_has_no_violations(self):
        factor = mf.HiddenFactorSpec(np.array([0.5, 0.5]), np.array([[0.9, 0.1], [0.2, 0.8]]))
        law = mf.MigrationLaw(np.array([[[0.97, 0.03], [0.1, 0.9]], [[0.9, 0.1], [0.2, 0.8]]]))
        assert mf.validate_model(factor, law) == []

    def test_pi_sum_violation_reported(self):
        factor = mf.HiddenFactorSpec(np.array([0.6, 0.6]), np.eye(2))
        law = mf.MigrationLaw(np.array([np.eye(2), np.eye(2)]))
        out = mf.validate_model(factor, law)
        assert "factor: pi sums to 1.2, expected 1" in out

    def test_generator_row_sum_violation(self):
        factor = mf.HiddenFactorSpec(
            np.array([1.0, 0.0]), np.array([[-0.1, 0.2], [0.0, 0.0]]), mode=mf.Mode.CONTINUOUS
        )
        law = mf.MigrationLaw(np.array([np.zeros((2, 2))] * 2), mode=mf.Mode.CONTINUOUS)
        out = mf.validate_model(factor, law)
        assert "factor: trans row 0 sums to 0.1, expected 0" in out

    @pytest.mark.parametrize("mode", list(mf.Mode), ids=[mode.value for mode in mf.Mode])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "field, index, message",
        [
            pytest.param("pi", (0,), "factor: pi has non-finite entries", id="pi"),
            pytest.param("trans", (1, 0), "factor: trans has non-finite entries", id="trans"),
            pytest.param(
                "law", (1, 2, 0), "law: state 1 matrix has non-finite entries", id="law"
            ),
        ],
    )
    def test_non_finite_entries_are_violations(self, field, index, message, value, mode):
        factor, law = mf.demo_model(2, 3, mode=mode)
        doc = json.loads(mf.model_to_json(factor, law))
        entry = doc[field]
        for i in index[:-1]:
            entry = entry[i]
        entry[index[-1]] = value
        with pytest.raises(ModelError, match=message):
            mf.model_from_json(json.dumps(doc))

    def test_non_finite_law_row_without_counts_is_refused(self):
        # rating 2 holds nobody, so its NaN row never meets a count; the
        # filter must still refuse the model, not forecast NaN
        factor, law = mf.demo_model(2, 3)
        per_state = law.per_state.copy()
        per_state[1, 2, 0] = np.nan
        panel = mf.MigrationPanel(np.array([[5, 5, 0]]), np.array([np.diag([5, 5, 0])]))
        with pytest.raises(ModelError, match="^run_filter: law: state 1 matrix has non-finite"):
            mf.run_filter(panel, factor, mf.MigrationLaw(per_state))

    def test_mode_and_shape_mismatches(self):
        factor = mf.HiddenFactorSpec(np.array([0.5, 0.5]), np.eye(2))
        law = mf.MigrationLaw(np.array([np.eye(2)] * 3))
        out = mf.validate_model(factor, law)
        assert any("per-state matrices" in v for v in out)


class TestPredictTransitionProbs:
    def test_degenerate_mixture_returns_first_matrix(self):
        law = mf.MigrationLaw(np.array([[[0.9, 0.1], [0.3, 0.7]], [[0.5, 0.5], [0.5, 0.5]]]))
        out = mf.predict_transition_probs(law, mf.FilterState(np.array([1.0, 0.0]), 0.0))
        np.testing.assert_array_equal(out, law.per_state[0])

    def test_even_mixture_averages(self):
        a = np.array([[0.98, 0.02], [0.1, 0.9]])
        b = np.array([[0.94, 0.06], [0.1, 0.9]])
        law = mf.MigrationLaw(np.array([a, b]))
        out = mf.predict_transition_probs(law, mf.FilterState(np.array([0.5, 0.5]), 0.0))
        assert out[0, 1] == pytest.approx(0.04)

    def test_identical_matrices_mix_to_themselves(self):
        mat = np.array([[0.9, 0.1], [0.2, 0.8]])
        law = mf.MigrationLaw(np.array([mat] * 3))
        out = mf.predict_transition_probs(law, mf.FilterState(np.full(3, 1 / 3), 0.0))
        np.testing.assert_allclose(out, mat, atol=1e-15)

    def test_rows_stochastic_for_random_inputs(self, rng):
        for _ in range(50):
            m, p = int(rng.integers(1, 5)), int(rng.integers(2, 5))
            law = mf.MigrationLaw(rng.dirichlet(np.ones(p), size=(m, p)))
            out = mf.predict_transition_probs(law, mf.FilterState(rng.dirichlet(np.ones(m)), 0.0))
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_rejects_intensity_law(self):
        law = mf.MigrationLaw(np.array([[[-0.1, 0.1], [0.0, 0.0]]]), mode=mf.Mode.CONTINUOUS)
        with pytest.raises(ModelError):
            mf.predict_transition_probs(law, mf.FilterState(np.array([1.0]), 0.0))


class TestConversions:
    def test_linearization_round_trip(self):
        gen = np.array([[-0.2, 0.15, 0.05], [0.1, -0.3, 0.2], [0.0, 0.4, -0.4]])
        mat = mf.generator_to_transition(gen, 0.01)
        back = mf.transition_to_generator(mat, 0.01)
        np.testing.assert_allclose(back, gen, atol=1e-12)

    def test_linearization_close_to_exact_for_small_steps(self):
        gen = np.array([[-0.5, 0.5], [0.25, -0.25]])
        lin = mf.generator_to_transition(gen, 1e-3)
        exact = expm(gen * 1e-3)
        assert np.abs(lin - exact).max() < 1e-6

    def test_long_step_of_a_valid_generator_is_a_valid_law(self):
        # rows summing to 5e-13 pass the generator check; a 30-unit step
        # multiplies that drift to 1.5e-11, past the one-step law's 1e-12
        gen = np.array([[-0.01, 0.01 + 5e-13], [0.02, -0.02]])
        law = mf.MigrationLaw(mf.generator_to_transition(gen, 30.0)[None])
        assert law.violations() == []
        factor = mf.HiddenFactorSpec([1.0], [[0.0]], mode=mf.Mode.CONTINUOUS)
        stream = mf.EventStream([10.0], [0], [1], [5, 5], horizon=60.0)
        continuous = mf.MigrationLaw(gen[None], mode=mf.Mode.CONTINUOUS)
        traj = mf.run_continuous_filter(stream, factor, continuous, grid_dt=0.5, report_dt=30.0)
        np.testing.assert_allclose(traj.predicted_ratios.sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    def test_stack_equals_per_matrix_calls_bit_for_bit(self, rng):
        slow = np.array([[-0.2, 0.2], [0.1, -0.1]])
        fast = np.array([[-3.0, 3.0], [0.5, -0.5]])  # I + 0.5 * fast has a negative entry
        stacks = [np.array([slow, fast, slow]), rng.uniform(0, 1, (4, 3, 3))]
        stacks[1] -= np.einsum("hjk->hj", stacks[1])[..., None] * np.eye(3)
        for stack in stacks:
            for dt in (0.5, 2.0):
                both = mf.generator_to_transition(stack, dt)
                one_by_one = np.array([mf.generator_to_transition(g, dt) for g in stack])
                assert both.tobytes() == one_by_one.tobytes()
        clipped = mf.generator_to_transition(fast, 0.5)
        rows = np.clip(np.eye(2) + fast * 0.5, 0.0, None)
        assert clipped.tobytes() == (rows / rows.sum(axis=1, keepdims=True)).tobytes()
        # only the matrix that needs it is clipped and renormalized
        mixed = mf.generator_to_transition(np.array([slow, fast, slow]), 0.5)
        assert mixed[0].tobytes() == (np.eye(2) + slow * 0.5).tobytes()
        assert mixed[1].tobytes() == clipped.tobytes()


class TestRiskSorting:
    def test_sorting_orders_by_downgrade_mass(self):
        calm = np.array([[0.99, 0.01], [0.05, 0.95]])
        stressed = np.array([[0.9, 0.1], [0.02, 0.98]])
        law = mf.MigrationLaw(np.array([stressed, calm]))
        factor = mf.HiddenFactorSpec(np.array([0.7, 0.3]), np.array([[0.8, 0.2], [0.4, 0.6]]))
        f2, l2, perm = mf.sort_states_by_risk(factor, law)
        np.testing.assert_array_equal(perm, [1, 0])
        np.testing.assert_array_equal(l2.per_state[0], calm)
        np.testing.assert_allclose(f2.pi, [0.3, 0.7])
        np.testing.assert_allclose(f2.trans, [[0.6, 0.4], [0.2, 0.8]])

    def test_sorting_is_idempotent(self, rng):
        factor, law = (
            mf.HiddenFactorSpec(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3), size=3)),
            mf.MigrationLaw(rng.dirichlet(np.ones(3), size=(3, 3))),
        )
        f1, l1, _ = mf.sort_states_by_risk(factor, law)
        f2, l2, perm = mf.sort_states_by_risk(f1, l1)
        np.testing.assert_array_equal(perm, [0, 1, 2])
        np.testing.assert_array_equal(l1.per_state, l2.per_state)


class TestSerialization:
    def test_round_trip(self):
        factor, law = mf.demo_model(2, 3)
        text = mf.model_to_json(factor, law)
        f2, l2 = mf.model_from_json(text)
        np.testing.assert_array_equal(f2.pi, factor.pi)
        np.testing.assert_array_equal(f2.trans, factor.trans)
        np.testing.assert_array_equal(l2.per_state, law.per_state)
        assert f2.mode is factor.mode

    def test_bad_json_is_data_error(self):
        with pytest.raises(DataError):
            mf.model_from_json("{not json")

    def test_missing_field_is_data_error(self):
        with pytest.raises(DataError):
            mf.model_from_json(json.dumps({"mode": "discrete", "m": 1}))

    def test_invalid_model_is_model_error(self):
        doc = {
            "mode": "discrete",
            "m": 2,
            "p": 2,
            "pi": [0.6, 0.6],
            "trans": [[1.0, 0.0], [0.0, 1.0]],
            "law": [[[1.0, 0.0], [0.0, 1.0]]] * 2,
        }
        with pytest.raises(ModelError):
            mf.model_from_json(json.dumps(doc))


class TestPanelAndStream:
    def test_panel_conservation_enforced(self):
        with pytest.raises(DataError, match="conservation"):
            mf.MigrationPanel(
                exposures=np.array([[2, 0]]),
                counts=np.array([[[1, 0], [0, 0]]]),
            )

    @pytest.mark.parametrize("step", [0, -1, float("nan"), float("inf")])
    def test_panel_step_length_must_be_positive_and_finite(self, step):
        with pytest.raises(DataError, match="step_length_days"):
            mf.MigrationPanel(np.array([[1]]), np.array([[[1]]]), step_length_days=step)

    def test_panel_step_length_keeps_whole_days_integral(self):
        whole = mf.MigrationPanel(np.array([[1]]), np.array([[[1]]]), step_length_days=30.0)
        half = mf.MigrationPanel(np.array([[1]]), np.array([[[1]]]), step_length_days=0.5)
        assert type(whole.step_length_days) is int and whole.step_length_days == 30
        assert half.step_length_days == 0.5

    def test_stream_needs_increasing_times(self):
        with pytest.raises(DataError):
            mf.EventStream(
                times=np.array([1.0, 1.0]),
                sources=np.array([0, 0]),
                targets=np.array([1, 1]),
                initial_exposures=np.array([5, 0]),
                horizon=2.0,
            )

    @pytest.mark.parametrize(
        "times, horizon",
        [([], -1.0), ([], 0.0), ([0.5], np.nan), ([np.inf], np.inf)],
        ids=["negative", "zero", "nan", "infinite"],
    )
    def test_stream_horizon_must_be_finite_and_positive(self, times, horizon):
        with pytest.raises(DataError, match=rf"^horizon must be positive and finite, got {horizon!r}$"):
            mf.EventStream(times, [0] * len(times), [1] * len(times), [2, 2], horizon=horizon)

    def test_stream_times_must_be_finite(self):
        with pytest.raises(DataError, match="event times must be finite"):
            mf.EventStream([np.nan], [0], [1], [2, 2], horizon=1.0)
        with pytest.raises(DataError, match="boundary times must be finite"):
            mf.EventStream(
                [0.5], [0], [1], [2, 2], horizon=1.0,
                boundary_times=[np.nan], boundary_exposures=[[1, 3]],
            )

    def test_stream_exposures_must_be_nonnegative(self):
        with pytest.raises(DataError, match="initial_exposures must be nonnegative"):
            mf.EventStream([0.5], [0], [1], [5, -40], horizon=2.0)
        with pytest.raises(DataError, match="boundary_exposures must be nonnegative"):
            mf.EventStream(
                [0.5], [0], [1], [5, 5], horizon=2.0,
                boundary_times=[1.0], boundary_exposures=[[4, -6]],
            )

    @pytest.mark.parametrize(
        "track, missing",
        [({"boundary_exposures": [[1, 1]]}, "times"), ({"boundary_times": [0.7]}, "exposures")],
        ids=["exposures-without-times", "times-without-exposures"],
    )
    def test_stream_override_track_is_given_whole(self, track, missing):
        with pytest.raises(
            DataError, match=f"^boundary times and exposures go together; {missing} are missing$"
        ):
            mf.EventStream([0.5], [0], [1], [2, 2], 1.0, **track)

    def test_stream_without_a_track_holds_empty_arrays(self):
        stream = mf.EventStream([0.5], [0], [1], [2, 2], 1.0)
        assert stream.boundary_times.shape == (0,)
        assert stream.boundary_exposures.shape == (0, 2)

    @pytest.mark.parametrize("empty", [[], (), np.empty(0), np.empty((0, 3))])
    def test_stream_reads_an_empty_track_as_no_rows(self, empty):
        stream = mf.EventStream([0.5], [0], [1], [2, 2, 0], 1.0, [], empty)
        assert stream.boundary_times.shape == (0,)
        assert stream.boundary_exposures.shape == (0, 3)
        np.testing.assert_array_equal(
            stream.exposure_snapshots(), mf.EventStream([0.5], [0], [1], [2, 2, 0], 1.0)
            .exposure_snapshots()
        )

    def test_stream_refuses_an_empty_track_of_the_wrong_width(self):
        with pytest.raises(DataError, match=r"must have shape \(0, 3\), got \(0, 2\)"):
            mf.EventStream([0.5], [0], [1], [2, 2, 0], 1.0, [], np.empty((0, 2)))

    def test_snapshots_follow_events_and_boundaries(self):
        stream = mf.EventStream(
            times=np.array([0.5, 1.5]),
            sources=np.array([0, 1]),
            targets=np.array([1, 0]),
            initial_exposures=np.array([2, 0]),
            horizon=2.0,
            boundary_times=np.array([1.0]),
            boundary_exposures=np.array([[5, 5]]),
        )
        snaps = stream.exposure_snapshots()
        np.testing.assert_array_equal(snaps, [[2, 0], [5, 5]])

    def test_snapshot_precedes_override_at_the_event_time(self):
        stream = mf.EventStream(
            times=np.array([1.0]),
            sources=np.array([0]),
            targets=np.array([1]),
            initial_exposures=np.array([2, 0]),
            horizon=2.0,
            boundary_times=np.array([1.0]),
            boundary_exposures=np.array([[1, 1]]),
        )
        np.testing.assert_array_equal(stream.exposure_snapshots(), [[2, 0]])

    def test_departure_from_empty_class_rejected(self):
        with pytest.raises(
            DataError, match=r"^event 0 at t=0.5: departure from rating 1 with no exposure$"
        ):
            mf.EventStream(
                times=np.array([0.5]),
                sources=np.array([1]),
                targets=np.array([0]),
                initial_exposures=np.array([2, 0]),
                horizon=1.0,
            )

    @pytest.mark.parametrize(
        "sources, targets, rating",
        [([-1], [1], -1), ([0], [3], 3), ([2, 5], [0, 1], 5)],
    )
    def test_stream_ratings_must_lie_in_range(self, sources, targets, rating):
        times = np.arange(1.0, len(sources) + 1)
        with pytest.raises(DataError, match=rf"in \[0, 3\), got {rating}$"):
            mf.EventStream(times, sources, targets, np.array([2, 2, 2]), horizon=5.0)

    def test_fractional_and_nan_counts_rejected(self):
        with pytest.raises(DataError, match="exposures must hold whole numbers, got 2.5"):
            mf.MigrationPanel([[2.5, 1.0]], [[[2.5, 0], [0, 1]]])
        with pytest.raises(DataError, match="counts must hold whole numbers"):
            mf.MigrationPanel([[2, 1]], [[[1.5, 0.5], [0, 1]]])
        with pytest.raises(DataError, match="exposures must hold whole numbers, got nan"):
            mf.MigrationPanel([[np.nan, 1.0]], [[[0, 0], [0, 1]]])
        with pytest.raises(DataError, match="sources must hold whole numbers, got 0.9"):
            mf.EventStream([0.5], [0.9], [1.2], [2, 2], horizon=1.0)
        with pytest.raises(DataError, match="targets must hold whole numbers"):
            mf.EventStream([0.5], [0], [1.2], [2, 2], horizon=1.0)
        with pytest.raises(DataError, match="initial_exposures must hold whole numbers"):
            mf.EventStream([0.5], [0], [1], [2, np.inf], horizon=1.0)

    def test_whole_valued_floats_accepted(self):
        panel = mf.MigrationPanel([[2.0, 1.0]], [[[2.0, 0.0], [0.0, 1.0]]])
        assert panel.exposures.dtype == np.int64
        np.testing.assert_array_equal(panel.counts, [[[2, 0], [0, 1]]])
        stream = mf.EventStream([0.5], [0.0], [1.0], [2.0, 2.0], horizon=1.0)
        assert (stream.sources[0], stream.targets[0]) == (0, 1)

    def test_filter_state_must_be_probability_vector(self):
        with pytest.raises(ModelError):
            mf.FilterState(np.array([0.5, 0.6]), 0.0)
        with pytest.raises(ModelError):
            mf.FilterState(np.array([1.2, -0.2]), 0.0)

    @pytest.mark.parametrize("probs", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, -np.inf]])
    def test_filter_state_must_be_finite(self, probs):
        with pytest.raises(ModelError, match="non-finite probabilities"):
            mf.FilterState(np.array(probs), 0.0)
