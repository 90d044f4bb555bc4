import datetime as dt
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import migfilter as mf
from migfilter import cli
from migfilter import panel_io as pio
from migfilter.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def model_file(tmp_path):
    factor, law = mf.demo_model(2, 3, spread=6.0)
    path = tmp_path / "model.json"
    path.write_text(mf.model_to_json(factor, law))
    return path


@pytest.fixture
def continuous_model_file(tmp_path):
    factor, law = mf.demo_model(2, 3, mode=mf.Mode.CONTINUOUS, spread=6.0)
    path = tmp_path / "cmodel.json"
    path.write_text(mf.model_to_json(factor, law))
    return path


def test_discrete_pipeline_end_to_end(runner, model_file, tmp_path):
    panel = tmp_path / "panel.csv"
    hidden = tmp_path / "hidden.csv"
    out = runner.invoke(
        main,
        [
            "simulate", "--model", str(model_file), "--entities", "300,300,300",
            "--steps", "120", "--seed", "7", "--out-panel", str(panel),
            "--out-hidden", str(hidden),
        ],
    )
    assert out.exit_code == 0, out.output
    assert panel.exists() and hidden.exists()

    result = tmp_path / "fit.json"
    out = runner.invoke(
        main,
        [
            "calibrate", "--panel", str(panel), "--states", "2", "--restarts", "6",
            "--max-iters", "150", "--seed", "3", "--out", str(result),
        ],
    )
    assert out.exit_code == 0, out.output
    doc = json.loads(result.read_text())
    assert doc["m"] == 2 and doc["p"] == 3
    assert doc["diagnostics"]["loglik_trace"]

    traj = tmp_path / "traj.csv"
    out = runner.invoke(
        main,
        ["filter", "--panel", str(panel), "--model", str(result), "--out", str(traj)],
    )
    assert out.exit_code == 0, out.output

    nu = tmp_path / "nu.csv"
    out = runner.invoke(
        main,
        ["forecast", "--model", str(result), "--trajectory", str(traj), "--out", str(nu)],
    )
    assert out.exit_code == 0, out.output
    assert nu.read_text().startswith("t,nu_1_1")

    report = tmp_path / "report.json"
    out = runner.invoke(
        main,
        ["evaluate", "--trajectory", str(traj), "--panel", str(panel), "--out", str(report)],
    )
    assert out.exit_code == 0, out.output
    scores = json.loads(report.read_text())["r2"]
    assert scores


def test_pipeline_outputs_are_byte_deterministic(runner, model_file, tmp_path):
    blobs = []
    for tag in ("a", "b"):
        panel = tmp_path / f"panel_{tag}.csv"
        traj = tmp_path / f"traj_{tag}.csv"
        fit = tmp_path / f"fit_{tag}.json"
        assert runner.invoke(
            main,
            [
                "simulate", "--model", str(model_file), "--entities", "200,200,200",
                "--steps", "60", "--seed", "11", "--out-panel", str(panel),
            ],
        ).exit_code == 0
        assert runner.invoke(
            main,
            [
                "calibrate", "--panel", str(panel), "--states", "2", "--restarts", "3",
                "--max-iters", "60", "--seed", "5", "--out", str(fit),
            ],
        ).exit_code == 0
        assert runner.invoke(
            main,
            ["filter", "--panel", str(panel), "--model", str(fit), "--out", str(traj)],
        ).exit_code == 0
        blobs.append(
            (panel.read_bytes(), fit.read_bytes(), traj.read_bytes())
        )
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize(
    "mode, args, expected",
    [
        ("continuous", ["--horizon", "30", "--out-events"],
         b"time,state\r\n0.0,1\r\n14.116232435896322,2\r\n15.847804392951787,1\r\n"
         b"24.629050514853922,2\r\n"),
        ("discrete", ["--steps", "4", "--out-panel"],
         b"t,state\r\n0,1\r\n1,1\r\n2,1\r\n3,1\r\n4,1\r\n"),
    ],
    ids=["continuous", "discrete"],
)
def test_hidden_path_bytes(runner, model_file, continuous_model_file, tmp_path, mode, args,
                           expected):
    """Times are written as their repr and states as ints, never as 1.0."""
    model = continuous_model_file if mode == "continuous" else model_file
    hidden = tmp_path / "hidden.csv"
    out = runner.invoke(
        main,
        ["simulate", "--model", str(model), "--entities", "3,3,3", "--seed", "2",
         *args, str(tmp_path / "data.csv"), "--out-hidden", str(hidden)],
    )
    assert out.exit_code == 0, out.output
    assert hidden.read_bytes() == expected


def test_continuous_pipeline(runner, continuous_model_file, tmp_path):
    events = tmp_path / "events.csv"
    hidden = tmp_path / "hidden.csv"
    out = runner.invoke(
        main,
        [
            "simulate", "--model", str(continuous_model_file), "--entities",
            "150,150,150", "--horizon", "60", "--seed", "2",
            "--out-events", str(events), "--out-hidden", str(hidden),
        ],
    )
    assert out.exit_code == 0, out.output
    lines = hidden.read_text().splitlines()
    assert lines[0] == "time,state"
    path = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert path[0, 0] == 0.0 and np.all(np.diff(path[:, 0]) > 0)
    assert set(path[:, 1]) <= {1.0, 2.0}

    traj = tmp_path / "ctraj.csv"
    out = runner.invoke(
        main,
        [
            "filter", "--events", str(events), "--model", str(continuous_model_file),
            "--step-days", "5", "--grid-dt", "0.1", "--out", str(traj),
        ],
    )
    assert out.exit_code == 0, out.output

    fit = tmp_path / "cfit.json"
    out = runner.invoke(
        main,
        [
            "calibrate", "--events", str(events), "--states", "1", "--mode",
            "continuous", "--subintervals", "40", "--restarts", "1",
            "--max-iters", "25", "--out", str(fit),
        ],
    )
    assert out.exit_code == 0, out.output
    doc = json.loads(fit.read_text())
    assert doc["mode"] == "continuous"


def test_continuous_filter_from_spread_panel(runner, model_file, continuous_model_file, tmp_path):
    panel = tmp_path / "panel.csv"
    assert runner.invoke(
        main,
        [
            "simulate", "--model", str(model_file), "--entities", "200,200,200",
            "--steps", "40", "--seed", "4", "--out-panel", str(panel),
        ],
    ).exit_code == 0
    traj = tmp_path / "straj.csv"
    out = runner.invoke(
        main,
        [
            "filter", "--panel", str(panel), "--model", str(continuous_model_file),
            "--subintervals", "80", "--seed", "2", "--step-days", "1",
            "--grid-dt", "0.05", "--out", str(traj),
        ],
    )
    assert out.exit_code == 0, out.output
    assert traj.read_text().startswith("t,I_1")


def test_backtest_command(runner, tmp_path):
    rng = np.random.default_rng(3)
    factor, law = mf.demo_model(2, 3, spread=6.0)
    start = dt.date(2000, 1, 1)
    lines = ["entity_id,date,rating"]
    labels = ("A", "B", "C")
    path_states = rng.integers(0, 3, size=60)
    for e in range(60):
        state = int(path_states[e])
        lines.append(f"e{e},{start.isoformat()},{labels[state]}")
        day = 0
        for _ in range(6):
            day += int(rng.integers(30, 200))
            state = int(rng.choice(3, p=law.per_state[0, state] @ np.eye(3)))
            lines.append(
                f"e{e},{(start + dt.timedelta(days=day)).isoformat()},{labels[state]}"
            )
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("\n".join(lines) + "\n")
    report = tmp_path / "bt.json"
    out = runner.invoke(
        main,
        [
            "backtest", "--ratings", str(ratings), "--alphabet", "A,B,C",
            "--states", "2", "--step-days", "60", "--initial-days", "600",
            "--refit-days", "240", "--restarts", "2", "--max-iters", "40",
            "--out", str(report),
        ],
    )
    assert out.exit_code == 0, out.output
    assert report.exists()


def test_exit_codes(runner, tmp_path, model_file):
    # data error: malformed model file
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    out = runner.invoke(
        main,
        ["simulate", "--model", str(bad), "--entities", "1", "--steps", "1",
         "--out-panel", str(tmp_path / "p.csv")],
    )
    assert out.exit_code == 1

    # model error: invalid parameters
    doc = {
        "mode": "discrete", "m": 2, "p": 2,
        "pi": [0.6, 0.6],
        "trans": [[1.0, 0.0], [0.0, 1.0]],
        "law": [[[1.0, 0.0], [0.0, 1.0]]] * 2,
    }
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(doc))
    out = runner.invoke(
        main,
        ["simulate", "--model", str(invalid), "--entities", "1", "--steps", "1",
         "--out-panel", str(tmp_path / "p.csv")],
    )
    assert out.exit_code == 2

    # data error: missing required horizon
    out = runner.invoke(
        main,
        ["simulate", "--model", str(model_file), "--entities", "1,1,1",
         "--out-panel", str(tmp_path / "p.csv")],
    )
    assert out.exit_code == 1


def test_simulate_with_entities_of_other_rating_count_exits_2(runner, model_file, tmp_path):
    out = runner.invoke(
        main,
        ["simulate", "--model", str(model_file), "--entities", "5,5", "--steps", "3",
         "--out-panel", str(tmp_path / "p.csv")],
    )
    assert out.exit_code == 2
    assert "simulate_panel_discrete: data has 2 rating classes but law has 3" in out.output


def test_forecast_with_a_model_of_other_state_count_exits_2(runner, model_file, tmp_path):
    factor, law = mf.demo_model(3, 3)
    panel, _ = mf.simulate_panel_discrete(
        factor, law, mf.SimulationConfig(np.array([20, 20, 20]), 5, seed=1)
    )
    traj = tmp_path / "traj3.csv"
    pio.trajectory_to_csv(mf.run_filter(panel, factor, law), str(traj))
    out = runner.invoke(
        main,
        ["forecast", "--model", str(model_file), "--trajectory", str(traj),
         "--out", str(tmp_path / "nu.csv")],
    )
    assert out.exit_code == 2
    assert "law has 2 states but filter state has 3" in out.output


def test_evaluate_on_a_malformed_trajectory_exits_1(runner, tmp_path):
    panel = tmp_path / "panel.csv"
    panel.write_text("t,Y_1,Y_2,N_1_1,N_1_2,N_2_1,N_2_2\n1,2,2,1,1,0,2\n")
    traj = tmp_path / "traj.csv"
    traj.write_text(
        "t,I_1,I_2,nu_1_1,nu_1_2,nu_2_1,nu_2_2\n"
        "0.0,0.5,0.5,0.9,0.1,0.2,0.8\n"
        "1.0,x,0.5,,,,\n"
    )
    out = runner.invoke(
        main,
        ["evaluate", "--trajectory", str(traj), "--panel", str(panel),
         "--out", str(tmp_path / "report.json")],
    )
    assert out.exit_code == 1
    assert "error: trajectory CSV line 3" in out.output


def test_evaluate_with_forecasts_of_another_rating_count_exits_1(runner, tmp_path):
    factor, law = mf.demo_model(2, 3)
    panel3, _ = mf.simulate_panel_discrete(
        factor, law, mf.SimulationConfig(np.array([20, 20, 20]), 1, seed=1)
    )
    traj = tmp_path / "traj3.csv"
    pio.trajectory_to_csv(mf.run_filter(panel3, factor, law), str(traj))
    panel2 = tmp_path / "panel2.csv"
    panel2.write_text("t,Y_1,Y_2,N_1_1,N_1_2,N_2_1,N_2_2\n1,2,2,1,1,0,2\n")
    out = runner.invoke(
        main,
        ["evaluate", "--trajectory", str(traj), "--panel", str(panel2),
         "--out", str(tmp_path / "report.json")],
    )
    assert out.exit_code == 1, out.output
    assert "error: forecasts have shape (1, 3, 3), but a panel of 1 steps" in out.output


def test_filter_on_events_with_a_rating_out_of_range_exits_1(
    runner, continuous_model_file, tmp_path
):
    for row in ("1.0,0,2", "1.0,4,2", "1.0,2,4"):
        events = tmp_path / "events.csv"
        events.write_text(
            f"# exposures0=2,2,2 horizon=5.0\ntime,from_rating,to_rating\n{row}\n"
        )
        out = runner.invoke(
            main,
            ["filter", "--events", str(events), "--model", str(continuous_model_file),
             "--grid-dt", "0.5", "--report-dt", "1", "--out", str(tmp_path / "t.csv")],
        )
        assert out.exit_code == 1, (row, out.output)
        assert "event ratings must lie in [0, 3)" in out.output


def test_filter_on_events_with_negative_exposures_exits_1(runner, tmp_path):
    factor, law = mf.demo_model(2, 2, mode=mf.Mode.CONTINUOUS)
    model = tmp_path / "cmodel.json"
    model.write_text(mf.model_to_json(factor, law))
    events = tmp_path / "events.csv"
    events.write_text("# exposures0=5,-40 horizon=2.0\ntime,from_rating,to_rating\n0.5,1,2\n")
    out = runner.invoke(
        main,
        ["filter", "--events", str(events), "--model", str(model),
         "--grid-dt", "0.5", "--report-dt", "1", "--out", str(tmp_path / "t.csv")],
    )
    assert out.exit_code == 1, out.output
    assert "error: initial_exposures must be nonnegative" in out.output
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("mode", [mf.Mode.DISCRETE, mf.Mode.CONTINUOUS])
def test_forecast_file_is_predict_transition_probs_of_the_rows(runner, tmp_path, mode):
    factor, law = mf.demo_model(2, 3, mode=mode, spread=6.0)
    model = tmp_path / "model.json"
    model.write_text(mf.model_to_json(factor, law))
    rng = np.random.default_rng(5)
    probs = rng.dirichlet(np.ones(2), size=6)
    traj = mf.FilterTrajectory(probs, np.arange(6.0), np.zeros((5, 3, 3)), 0.0)
    traj_path = tmp_path / "traj.csv"
    pio.trajectory_to_csv(traj, str(traj_path))
    nu = tmp_path / "nu.csv"
    out = runner.invoke(
        main,
        ["forecast", "--model", str(model), "--trajectory", str(traj_path),
         "--step-days", "2", "--out", str(nu)],
    )
    assert out.exit_code == 0, out.output
    if mode is mf.Mode.CONTINUOUS:
        law = mf.MigrationLaw(mf.generator_to_transition(law.per_state, 2))
    rows = np.loadtxt(nu, delimiter=",", skiprows=1)
    want = mf.predict_transition_probs(law, pio.trajectory_from_csv(str(traj_path)).probs)
    assert rows[:, 1:].tobytes() == want.reshape(6, 9).tobytes()
    np.testing.assert_array_equal(rows[:, 0], np.arange(6.0))


@pytest.mark.parametrize("step", ["0", "-1"])
def test_forecast_with_a_nonpositive_step_exits_1(runner, continuous_model_file, tmp_path, step):
    # a zero or negative step turned every generator into an identity forecast
    traj = mf.FilterTrajectory(np.full((3, 2), 0.5), np.arange(3.0), np.zeros((2, 3, 3)), 0.0)
    traj_path = tmp_path / "traj.csv"
    pio.trajectory_to_csv(traj, str(traj_path))
    out = runner.invoke(
        main,
        ["forecast", "--model", str(continuous_model_file), "--trajectory", str(traj_path),
         "--step-days", step, "--out", str(tmp_path / "nu.csv")],
    )
    assert out.exit_code == 1, out.output
    assert f"error: step_days must be positive and finite, got {step}" in out.output
    assert not (tmp_path / "nu.csv").exists()


def corrupted_repeats(lines):
    """Lines 6 and 9 (0-based body rows 4 and 7) carry row 0's repeated
    forecast with one cell malformed, so the bad text repeats too."""
    cut = lines[1].split(",", 3)
    assert all(line.endswith(cut[3]) for line in (lines[1], lines[5], lines[8]))
    bad = cut[3].replace(cut[3].split(",")[4], "0.1x", 1)
    for i in (5, 8):
        lines[i] = lines[i][: len(lines[i]) - len(cut[3])] + bad
    return 6, "could not convert string to float: '0.1x'"


def corrupted_before_last(lines):
    lines[-2] = lines[-2][: lines[-2].rindex(",") + 1] + "nan_"
    return len(lines) - 1, "could not convert string to float: 'nan_'"


def blank_before_last(lines):
    lines[-2] = ",".join(lines[-2].split(",")[:3]) + "," * 9
    return len(lines) - 1, "no forecast before the last row"


@pytest.mark.parametrize(
    "corrupt", [corrupted_repeats, corrupted_before_last, blank_before_last],
    ids=["repeated-row", "row-before-last", "blank-before-last"],
)
def test_forecast_on_a_malformed_forecast_block_exits_1(runner, model_file, tmp_path, corrupt):
    """``forecast`` checks every cell of the trajectory's forecast block,
    though it recomputes the forecasts, and names the first bad line as
    the row rule does."""
    _, law = mf.demo_model(2, 3, spread=6.0)
    path = np.array([0, 0, 1, 1, 0, 0, 1, 0, 0, 1, 1, 0])
    traj = mf.FilterTrajectory(np.eye(2)[path], np.arange(12.0), law.per_state[path[:-1]], 0.0)
    traj_path = tmp_path / "traj.csv"
    pio.trajectory_to_csv(traj, str(traj_path))
    lines = traj_path.read_text().splitlines()
    line_no, message = corrupt(lines)
    traj_path.write_text("\n".join(lines) + "\n")
    out = runner.invoke(
        main,
        ["forecast", "--model", str(model_file), "--trajectory", str(traj_path),
         "--out", str(tmp_path / "nu.csv")],
    )
    assert out.exit_code == 1, out.output
    assert f"error: trajectory CSV line {line_no}: {message}\n" in out.output
    assert not (tmp_path / "nu.csv").exists()


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--max-iters", "0", "max_iters must be a whole number of at least 1, got 0"),
        ("--max-iters", "-3", "max_iters must be a whole number of at least 1, got -3"),
        ("--tol", "nan", "tol must be positive and finite, got nan"),
        ("--seed", "-1", "seed must be a whole number of at least 0, got -1"),
    ],
)
def test_calibrate_with_an_invalid_em_setting_exits_1(runner, tmp_path, option, value, message):
    panel = tmp_path / "panel.csv"
    panel.write_text("t,Y_1,Y_2,N_1_1,N_1_2,N_2_1,N_2_2\n1,2,2,1,1,0,2\n2,1,3,1,0,1,2\n")
    out = runner.invoke(
        main,
        ["calibrate", "--panel", str(panel), "--states", "2", option, value,
         "--out", str(tmp_path / "fit.json")],
    )
    assert out.exit_code == 1, out.output
    assert f"error: {message}" in out.output
    assert not (tmp_path / "fit.json").exists()


def test_filter_on_events_departing_from_an_empty_rating_exits_1(runner, tmp_path):
    factor, law = mf.demo_model(2, 2, mode=mf.Mode.CONTINUOUS)
    model = tmp_path / "cmodel.json"
    model.write_text(mf.model_to_json(factor, law))
    events = tmp_path / "events.csv"
    events.write_text("# exposures0=2,0 horizon=1.0\ntime,from_rating,to_rating\n0.5,2,1\n")
    out = runner.invoke(
        main,
        ["filter", "--events", str(events), "--model", str(model),
         "--grid-dt", "0.5", "--report-dt", "1", "--out", str(tmp_path / "t.csv")],
    )
    assert out.exit_code == 1, out.output
    assert "error: event 0 at t=0.5: departure from rating 1 with no exposure" in out.output
    assert not (tmp_path / "t.csv").exists()


def test_simulate_with_a_negative_seed_exits_1(runner, model_file, tmp_path):
    out = runner.invoke(
        main,
        ["simulate", "--model", str(model_file), "--entities", "5,5,5", "--steps", "3",
         "--seed", "-1", "--out-panel", str(tmp_path / "panel.csv")],
    )
    assert out.exit_code == 1, out.output
    assert isinstance(out.exception, SystemExit)
    assert "error: seed must be a whole number of at least 0, got -1" in out.output
    assert not (tmp_path / "panel.csv").exists()


@pytest.mark.parametrize(
    "steps, name",
    [(["--grid-dt", "0"], "grid_dt"), (["--grid-dt", "0.5", "--report-dt", "0"], "report_dt")],
)
def test_filter_with_a_zero_step_exits_1(runner, continuous_model_file, tmp_path, steps, name):
    events = tmp_path / "events.csv"
    events.write_text("# exposures0=2,2,2 horizon=1.0\ntime,from_rating,to_rating\n0.5,2,1\n")
    out = runner.invoke(
        main,
        ["filter", "--events", str(events), "--model", str(continuous_model_file), *steps,
         "--out", str(tmp_path / "t.csv")],
    )
    assert out.exit_code == 1, out.output
    assert f"error: {name} must be positive and finite, got 0.0" in out.output


@pytest.fixture
def files(tmp_path, model_file, continuous_model_file):
    """The paths a usage-error case refers to by name."""
    panel = tmp_path / "panel.csv"
    panel.write_text("t,Y_1,Y_2,Y_3,N_1_1,N_1_2,N_1_3,N_2_1,N_2_2,N_2_3,N_3_1,N_3_2,N_3_3\n"
                     "1,1,1,1,1,0,0,0,1,0,0,0,1\n")
    return {"MODEL": str(model_file), "CMODEL": str(continuous_model_file),
            "PANEL": str(panel), "OUT": str(tmp_path / "out")}


@pytest.mark.parametrize(
    "args, message",
    [
        ("simulate --model MODEL --entities 3,x --steps 3 --out-panel OUT",
         "bad --entities value '3,x'"),
        ("simulate --model MODEL --entities 3,3,3 --out-panel OUT",
         "--steps is required for a discrete model"),
        ("simulate --model MODEL --entities 3,3,3 --steps 3",
         "--out-panel is required for a discrete model"),
        ("simulate --model CMODEL --entities 3,3,3 --out-events OUT",
         "--horizon is required for a continuous model"),
        ("simulate --model CMODEL --entities 3,3,3 --horizon 2",
         "--out-events is required for a continuous model"),
        ("calibrate --states 2 --out OUT", "discrete calibration needs --panel"),
        ("calibrate --mode continuous --states 2 --out OUT",
         "continuous calibration needs --events or --panel"),
        ("calibrate --mode continuous --panel PANEL --states 2 --out OUT",
         "continuous calibration needs --subintervals"),
        ("filter --model MODEL --out OUT", "a discrete model filters a --panel"),
        ("filter --model CMODEL --panel PANEL --out OUT", "spreading a panel needs --subintervals"),
        ("filter --model CMODEL --out OUT",
         "a continuous model filters --events or a spread --panel"),
    ],
)
def test_usage_error_exits_1_before_any_work(runner, files, monkeypatch, args, message):
    def must_not_run(*_args):
        raise AssertionError("simulated before checking the options")

    monkeypatch.setattr(cli, "simulate_panel_discrete", must_not_run)
    monkeypatch.setattr(cli, "simulate_events_continuous", must_not_run)
    out = runner.invoke(main, [files.get(word, word) for word in args.split()])
    assert out.exit_code == 1, out.output
    assert f"error: {message}\n" in out.output
    assert not Path(files["OUT"]).exists()
