import datetime as dt
import json

import numpy as np
import pytest
from click.testing import CliRunner

import migfilter as mf
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


def test_continuous_pipeline(runner, continuous_model_file, tmp_path):
    events = tmp_path / "events.csv"
    out = runner.invoke(
        main,
        [
            "simulate", "--model", str(continuous_model_file), "--entities",
            "150,150,150", "--horizon", "60", "--seed", "2",
            "--out-events", str(events),
        ],
    )
    assert out.exit_code == 0, out.output

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
