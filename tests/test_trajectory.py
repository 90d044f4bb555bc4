"""The array-backed filter trajectory, its CSV writer and the CLI forecast.

The writer and the forecast command are checked against the per-row loops
they replaced, kept here as references: the trajectory CSV must match byte
for byte, and the batched forecast mixtures the per-row ``tensordot`` to
within two units in the last place of a probability.
"""

import csv
import io

import numpy as np
import pytest
from click.testing import CliRunner

import migfilter as mf
from migfilter import panel_io as pio
from migfilter.cli import main
from migfilter.errors import ModelError

from conftest import random_instance

FORECAST_TOL = 2.3e-16


def reference_trajectory_csv(trajectory) -> str:
    """The per-row trajectory writer the array writer replaced."""
    handle = io.StringIO()
    writer = csv.writer(handle)
    m = trajectory.states[0].m
    p = trajectory.predicted_ratios.shape[1] if trajectory.predicted_ratios.size else 0
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
        expected = np.array([mf.FilterState(row).probs for row in probs])
        np.testing.assert_array_equal(traj.probs_matrix(), expected)
        assert not traj.probs_matrix().flags.writeable and not traj.times().flags.writeable
        assert traj.n_steps == 49
        assert [s.time_index for s in traj.states] == list(range(50))
        np.testing.assert_array_equal(traj.states[7].probs, expected[7])


class TestAgainstPerRowReferences:
    def test_trajectory_csv_is_byte_identical(self, rng):
        for _, traj in discrete_cases(rng) + continuous_cases(rng):
            buf = io.StringIO()
            pio.trajectory_to_csv(traj, buf)
            assert buf.getvalue() == reference_trajectory_csv(traj)

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
