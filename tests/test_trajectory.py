"""The array-backed filter trajectory, its CSV writer and the CLI forecast.

The writer and the forecast command are checked against the per-row loops
they replaced, kept here as references: the trajectory and forecast CSVs
must match byte for byte, also on forecasts full of repeats (cells and
whole rows), signed zeros, NaN payloads, infinities and subnormals, and the
batched forecast mixtures the per-row ``tensordot`` to within two units in
the last place of a probability.
"""

import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import migfilter as mf
from migfilter import panel_io as pio
from migfilter.cli import main
from migfilter.errors import ModelError

from conftest import TRICKY_FLOATS, float_array, float_values, random_instance, random_model

FORECAST_TOL = 2.3e-16


def reference_trajectory_csv(trajectory) -> str:
    """The per-row trajectory writer the array writer replaced."""
    handle = io.StringIO()
    writer = csv.writer(handle)
    m = trajectory.states[0].m
    p = trajectory.predicted_ratios.shape[1]
    writer.writerow(
        ["t"]
        + [f"I_{h + 1}" for h in range(m)]
        + [f"nu_{j + 1}_{k + 1}" for j in range(p) for k in range(p)]
    )
    n_forecasts = trajectory.predicted_ratios.shape[0]
    for idx, state in enumerate(trajectory.states):
        row = [repr(float(state.time_index))] + [repr(float(x)) for x in state.probs]
        if idx < n_forecasts:
            row += [repr(float(x)) for x in trajectory.predicted_ratios[idx].ravel()]
        else:
            row += [""] * (p * p)
        writer.writerow(row)
    return handle.getvalue()


def reference_forecast_csv(rows, p) -> str:
    """The forecast command's file for ``p`` ratings, written row by row
    from its (t, nu_1_1, ...) float rows."""
    handle = io.StringIO()
    writer = csv.writer(handle)
    writer.writerow(["t"] + [f"nu_{j + 1}_{k + 1}" for j in range(p) for k in range(p)])
    writer.writerows([repr(float(x)) for x in row] for row in rows)
    return handle.getvalue()


def reference_forecast_rows(prob_law, trajectory) -> list[list[float]]:
    """The CLI forecast command's per-row loop, as (t, nu_1_1, ...) rows."""
    rows = []
    for state in trajectory.states:
        nu = mf.predict_transition_probs(prob_law, mf.FilterState(state.probs, state.time_index))
        rows.append([float(state.time_index)] + [float(x) for x in nu.ravel()])
    return rows


def discrete_cases(rng):
    """(model, trajectory) pairs from the discrete filter, zero steps included."""
    out = []
    for steps in (0, 1, 5, 40):
        panel, factor, law = random_instance(rng, m=int(rng.integers(1, 4)), steps=max(steps, 1))
        if steps == 0:
            panel = mf.MigrationPanel(np.empty((0, panel.p)), np.empty((0, panel.p, panel.p)))
        out.append(((factor, law), mf.run_filter(panel, factor, law)))
    return out


def continuous_cases(rng):
    """(model, trajectory) pairs from the continuous filter plus a one-row
    trajectory at a fractional time."""
    out = []
    for seed, report_dt in ((1, 1.0), (2, 0.7)):
        factor, law = mf.demo_model(int(rng.integers(2, 4)), 3, mode=mf.Mode.CONTINUOUS, spread=5.0)
        cfg = mf.SimulationConfig(np.array([30, 30, 30]), 9.0, seed=seed, mode=mf.Mode.CONTINUOUS)
        stream, _ = mf.simulate_events_continuous(factor, law, cfg)
        traj = mf.run_continuous_filter(stream, factor, law, grid_dt=0.05, report_dt=report_dt)
        out.append(((factor, law), traj))
    single = mf.FilterTrajectory(
        probs=rng.dirichlet(np.ones(2))[None],
        time_index=np.array([0.3]),
        predicted_ratios=np.empty((0, 3, 3)),
        loglik=0.0,
    )
    out.append((mf.demo_model(2, 3, mode=mf.Mode.CONTINUOUS), single))
    return out


class TestFilterTrajectory:
    def test_rows_are_checked_with_the_filter_state_messages(self):
        with pytest.raises(ModelError, match="negative probabilities"):
            mf.FilterTrajectory(
                probs=np.array([[0.5, 0.5], [1.2, -0.2]]),
                time_index=np.arange(2),
                predicted_ratios=np.empty((1, 2, 2)),
                loglik=0.0,
            )
        with pytest.raises(ModelError, match=r"sum to np\.float64\(1\.1\), expected 1"):
            mf.FilterTrajectory(
                probs=np.array([[0.5, 0.5], [0.5, 0.6]]),
                time_index=np.arange(2),
                predicted_ratios=np.empty((1, 2, 2)),
                loglik=0.0,
            )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("predicted_ratios", np.full((1, 2, 2), 0.5), r"need 2 rows of predicted_ratios, got 1"),
            ("time_index", np.arange(5.0), r"need 3 time indices, got shape \(5,\)"),
            ("time_index", np.zeros((3, 1)), r"need 3 time indices, got shape \(3, 1\)"),
            ("prediction_parts", np.zeros((3, 2)), r"need 2 rows of prediction_parts, got 3"),
            ("predicted_ratios", np.full((2, 2, 3), 0.5),
             r"^predicted_ratios must have shape \(steps, p, p\), got \(2, 2, 3\)$"),
            ("predicted_ratios", np.full((2, 4), 0.5),
             r"^predicted_ratios must have shape \(steps, p, p\), got \(2, 4\)$"),
            ("prediction_parts", np.zeros((2, 5)),
             r"^prediction_parts must have shape \(steps, 2\), got \(2, 5\)$"),
            ("prediction_parts", np.zeros(2),
             r"^prediction_parts must have shape \(steps, 2\), got \(2,\)$"),
        ],
    )
    def test_row_counts_must_agree(self, field, value, message):
        fields = {
            "probs": np.full((3, 2), 0.5),
            "time_index": np.arange(3.0),
            "predicted_ratios": np.full((2, 2, 2), 0.5),
            "loglik": 0.0,
            field: value,
        }
        with pytest.raises(ModelError, match=message):
            mf.FilterTrajectory(**fields)

    def test_no_correction_parts_without_prediction_parts(self):
        traj = mf.FilterTrajectory(np.full((3, 2), 0.5), np.arange(3.0), np.full((2, 2, 2), 0.5), 0.0)
        assert traj.prediction_parts is None and traj.correction_parts is None

    def test_nan_law_cell_in_a_file_is_refused(self, tmp_path):
        text = "t,I_1,I_2,nu_1_1\n0.0,0.5,0.5,1.0\n1.0,nan,0.5,\n"
        with pytest.raises(ModelError, match="non-finite probabilities"):
            pio.trajectory_from_csv(io.StringIO(text))
        factor, law = mf.demo_model(2, 1)
        model, traj = tmp_path / "model.json", tmp_path / "traj.csv"
        model.write_text(mf.model_to_json(factor, law))
        traj.write_text(text)
        out = CliRunner().invoke(
            main, ["forecast", "--model", str(model), "--trajectory", str(traj),
                   "--out", str(tmp_path / "nu.csv")],
        )
        assert out.exit_code == ModelError.exit_code, out.output
        assert "error: filter state has non-finite probabilities" in out.output
        assert not (tmp_path / "nu.csv").exists()

    @pytest.mark.parametrize("field", ["predicted_ratios", "prediction_parts"])
    def test_forecasts_and_drift_parts_are_read_only(self, field):
        traj = mf.FilterTrajectory(
            probs=np.full((3, 2), 0.5),
            time_index=np.arange(3.0),
            predicted_ratios=np.full((2, 2, 2), 0.5),
            loglik=0.0,
            prediction_parts=np.zeros((2, 2)),
        )
        with pytest.raises(ValueError, match="read-only"):
            getattr(traj, field)[0, 0] += 1
        np.testing.assert_array_equal(traj.correction_parts, 0.0)

    def test_rows_are_projected_like_filter_states(self, rng):
        probs = rng.dirichlet(np.ones(3), size=50)
        probs[::3] *= 1.0 + 5e-11
        probs[1] = [-1e-12, 0.4, 0.6]
        traj = mf.FilterTrajectory(
            probs=probs, time_index=np.arange(50), predicted_ratios=np.empty((49, 2, 2)), loglik=0.0
        )
        expected = np.array([mf.FilterState(row, 0.0).probs for row in probs])
        np.testing.assert_array_equal(traj.probs_matrix(), expected)
        assert not traj.probs_matrix().flags.writeable and not traj.time_index.flags.writeable
        assert traj.n_steps == 49
        assert [s.time_index for s in traj.states] == list(range(50))
        np.testing.assert_array_equal(traj.states[7].probs, expected[7])


def csv_text(trajectory) -> str:
    buf = io.StringIO()
    pio.trajectory_to_csv(trajectory, buf)
    return buf.getvalue()


class TestAgainstPerRowReferences:
    def test_trajectory_csv_is_byte_identical(self, rng):
        for _, traj in discrete_cases(rng) + continuous_cases(rng):
            assert csv_text(traj) == reference_trajectory_csv(traj)

    def test_tricky_forecasts_are_byte_identical(self):
        # -0.0 next to 0.0, NaNs of four bit patterns, both infinities
        predicted = np.resize(TRICKY_FLOATS, (4, 2, 2))
        time_index = np.array([0.0, -0.0, 5e-324, 1e308, 0.0])
        traj = mf.FilterTrajectory(np.full((5, 2), 0.5), time_index, predicted, loglik=0.0)
        text = csv_text(traj)
        assert text == reference_trajectory_csv(traj)
        assert text.splitlines()[1:] == [
            "0.0,0.5,0.5,0.0,-0.0,inf,-inf",
            "-0.0,0.5,0.5,5e-324,2.225073858507201e-308,1e+308,0.25",
            "5e-324,0.5,0.5,0.1,nan,nan,nan",
            "1e+308,0.5,0.5,nan,0.0,-0.0,inf",
            "0.0,0.5,0.5,,,,",
        ]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(0, 5), m=st.integers(1, 3), p=st.integers(1, 3))
    def test_random_trajectories_are_byte_identical(self, data, n, m, p):
        def cells(size):
            return data.draw(st.lists(float_values, min_size=size, max_size=size))

        predicted = float_array(cells(n * p * p), (n, p, p))
        time_index = float_array(cells(n + 1), (n + 1,))
        rows = data.draw(st.lists(st.integers(0, m), min_size=n + 1, max_size=n + 1))
        # one-hot or flat laws, so that the state columns repeat too
        probs = np.array([np.eye(m)[r] if r < m else np.full(m, 1 / m) for r in rows])
        traj = mf.FilterTrajectory(probs, time_index, predicted, loglik=0.0)
        assert csv_text(traj) == reference_trajectory_csv(traj)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(0, 8), m=st.integers(1, 3), p=st.integers(0, 3))
    def test_repeated_forecast_rows_are_byte_identical(self, data, n, m, p):
        """Forecast rows drawn from a pool of at most three, as a filter
        sure of its regime repeats them."""
        pool = data.draw(
            st.lists(st.lists(float_values, min_size=p * p, max_size=p * p), min_size=1, max_size=3)
        )
        rows = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        predicted = float_array([x for row in rows for x in row], (n, p, p))
        time_index = float_array(data.draw(st.lists(float_values, min_size=n + 1, max_size=n + 1)), -1)
        probs = np.full((n + 1, m), 1 / m)
        traj = mf.FilterTrajectory(probs, time_index, predicted, loglik=0.0)
        assert csv_text(traj) == reference_trajectory_csv(traj)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
    def test_forecast_file_with_repeated_rows_is_byte_identical(self, data, n, seed):
        """The forecast command's file on filtered laws drawn from a pool
        (so its forecast rows repeat) and times with signed zeros, NaNs,
        infinities and subnormals."""
        p = 3
        factor, law = random_model(np.random.default_rng(seed), 2, p)
        pool = [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.25, 0.75]]
        probs = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n + 1, max_size=n + 1)))
        time_index = float_array(data.draw(st.lists(float_values, min_size=n + 1, max_size=n + 1)), -1)
        traj = mf.FilterTrajectory(probs, time_index, np.full((n, p, p), 1 / p), loglik=0.0)
        with tempfile.TemporaryDirectory() as tmp:
            model, traj_path, out = (Path(tmp) / name for name in ("m.json", "t.csv", "nu.csv"))
            model.write_text(mf.model_to_json(factor, law))
            pio.trajectory_to_csv(traj, str(traj_path))
            done = CliRunner().invoke(
                main, ["forecast", "--model", str(model), "--trajectory", str(traj_path),
                       "--out", str(out)],
            )
            assert done.exit_code == 0, done.output
            text = out.read_bytes().decode()
        nu = mf.predict_transition_probs(law, traj.probs_matrix()).reshape(n + 1, p * p)
        assert text == reference_forecast_csv(np.column_stack([time_index, nu]), p)

    def test_zero_step_trajectory_keeps_its_rating_count(self):
        panel = mf.MigrationPanel(np.empty((0, 3)), np.empty((0, 3, 3)))
        traj = mf.run_filter(panel, *mf.demo_model(2, 3))
        text = csv_text(traj)
        assert text.splitlines()[0] == "t,I_1,I_2," + ",".join(pio._columns("nu", 3, 3))
        back = pio.trajectory_from_csv(io.StringIO(text))
        assert back.predicted_ratios.shape == (0, 3, 3)
        np.testing.assert_array_equal(back.probs_matrix(), traj.probs_matrix())

    def test_forecast_command_matches_per_row_mixtures(self, rng, tmp_path):
        runner = CliRunner()
        for i, ((factor, law), traj) in enumerate(discrete_cases(rng) + continuous_cases(rng)):
            model = tmp_path / f"model{i}.json"
            model.write_text(mf.model_to_json(factor, law))
            traj_path, out = tmp_path / f"traj{i}.csv", tmp_path / f"nu{i}.csv"
            pio.trajectory_to_csv(traj, str(traj_path))
            done = runner.invoke(
                main,
                ["forecast", "--model", str(model), "--trajectory", str(traj_path),
                 "--step-days", "2", "--out", str(out)],
            )
            assert done.exit_code == 0, done.output
            if law.mode is mf.Mode.CONTINUOUS:
                mats = np.array([mf.generator_to_transition(g, 2) for g in law.per_state])
                law = mf.MigrationLaw(mats)
            want = np.array(reference_forecast_rows(law, pio.trajectory_from_csv(str(traj_path))))
            lines = out.read_text().splitlines()
            assert lines[0].split(",")[1] == "nu_1_1" and len(lines) == traj.n_steps + 2
            got = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
            assert got.shape == want.shape
            np.testing.assert_array_equal(got[:, 0], want[:, 0])
            assert np.abs(got - want).max() <= FORECAST_TOL
