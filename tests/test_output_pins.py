"""Byte pins on every file the command-line pipelines write.

Small seeded runs of the discrete pipeline (simulate, calibrate, filter,
forecast, evaluate), the continuous pipeline (simulate an event stream,
calibrate through spreading, filter the events) and ``backtest`` on a
ratings file written here.  Each test pins the sha256 of every file its run
writes, so any change to the written bytes fails here, including drift that
a round trip or a writer-against-reference check would not see.

The digests were taken with Python 3.11.7 and numpy 2.4.6 on scipy-openblas
0.3.31; another BLAS or numpy build may round a fit differently, and so may
Python 3.12 or later, whose ``sum`` of floats is compensated: the
continuous filter's generated stop walk spells its sums out left to right,
as ``sum`` adds on 3.11 (the substeps, chain parts, intensity integrals and
jump intensities), and only ``_renormalized`` still adds by ``sum``.  A
change that moves outputs on purpose updates these pins and records the old
and new digests, and the reason, in CHANGES.md.
"""

import datetime as dt
import hashlib

import numpy as np
from click.testing import CliRunner

import migfilter as mf
from migfilter.cli import main

DISCRETE_PINS = {
    "fit.json": "2acdfc2879a5b68b959eaf84e81adfe8388011fcef708878328cd9fbb569cb06",
    "hidden.csv": "c64e0d8f2b8dfdc99542621624f8d595473d5780ca954ac86e55286189688527",
    "model.json": "6bf3db2216a770f5216bd171051422a1c17033009ccea52b5ccc32cdb5d01cc0",
    "nu.csv": "b3193feec0f661d418d92e74ce1ad6e2e1fd0202204faac2af717532eb73c284",
    "panel.csv": "b03363ee023605bbf4ad6047d2e7b5d386e37d23b7fcb2fa8ab985154871ad35",
    "report.json": "c5dad3bef34d89052a0717d53f4e797d36079212aee07bfc6dc6aec5931faba0",
    "traj.csv": "7e2bcf699fb7f51b75a35747bc230c5a2c6cd3f99600bd626d2f12c5b4d3556e",
}

CONTINUOUS_PINS = {
    "events.csv": "9956b659a28fc71b71f699c572d4ac01150fa369c6b39916a2adfba6dcd9deca",
    "fit.json": "ea1f1317e9369d0e573035471fb2bf899af67f16d73e67a16c94e1abae1c6426",
    "hidden.csv": "01a60903a6019a5facba80ab22c6aaff1b57952987fb2f470d535c6860900960",
    "model.json": "c0bb46fc4bb306f926f2d2247247c3d3dd6feaec3e322f0f13c51cd48842a4d3",
    "traj.csv": "4ab362eac2c59914d339a5a531a203362071d4f7e312716487c27f2be4d63248",
}

BACKTEST_PINS = {
    "ratings.csv": "4822e1c16ff349454e342893461b47970f3cf2e785b4be6722e070b8ace70aab",
    "report.json": "f06319a2d61329b1ca0f998c0c9401b04f3b98f51e7f91d60ee3c8a1f3fdef30",
}


def _run(*args):
    out = CliRunner().invoke(main, [str(a) for a in args])
    assert out.exit_code == 0, out.output


def _digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}


def _write_model(path, mode):
    factor, law = mf.demo_model(2, 3, mode=mode, spread=6.0)
    path.write_text(mf.model_to_json(factor, law))


def test_discrete_pipeline_bytes(tmp_path):
    _write_model(tmp_path / "model.json", mf.Mode.DISCRETE)
    _run("simulate", "--model", tmp_path / "model.json",
         "--entities", "300,300,300", "--steps", "80", "--seed", "5",
         "--out-panel", tmp_path / "panel.csv", "--out-hidden", tmp_path / "hidden.csv")
    _run("calibrate", "--panel", tmp_path / "panel.csv", "--states", "2",
         "--restarts", "3", "--max-iters", "60", "--seed", "1", "--out", tmp_path / "fit.json")
    _run("filter", "--panel", tmp_path / "panel.csv", "--model", tmp_path / "fit.json",
         "--out", tmp_path / "traj.csv")
    _run("forecast", "--model", tmp_path / "fit.json",
         "--trajectory", tmp_path / "traj.csv", "--out", tmp_path / "nu.csv")
    _run("evaluate", "--trajectory", tmp_path / "traj.csv",
         "--panel", tmp_path / "panel.csv", "--out", tmp_path / "report.json")
    assert _digests(tmp_path) == DISCRETE_PINS


def test_continuous_pipeline_bytes(tmp_path):
    _write_model(tmp_path / "model.json", mf.Mode.CONTINUOUS)
    _run("simulate", "--model", tmp_path / "model.json",
         "--entities", "100,100,100", "--horizon", "120", "--seed", "5",
         "--out-events", tmp_path / "events.csv", "--out-hidden", tmp_path / "hidden.csv")
    _run("calibrate", "--events", tmp_path / "events.csv", "--mode", "continuous",
         "--states", "2", "--subintervals", "16", "--restarts", "2", "--max-iters", "8",
         "--seed", "2", "--out", tmp_path / "fit.json")
    _run("filter", "--events", tmp_path / "events.csv", "--model", tmp_path / "fit.json",
         "--out", tmp_path / "traj.csv")
    assert _digests(tmp_path) == CONTINUOUS_PINS


def test_backtest_bytes(tmp_path):
    rng = np.random.default_rng(3)
    start = dt.date(2000, 1, 1)
    labels = ("A", "B", "C")
    jump = np.array([[0.8, 0.15, 0.05], [0.1, 0.8, 0.1], [0.05, 0.15, 0.8]])
    lines = ["entity_id,date,rating"]
    for e in range(50):
        state, day = int(rng.integers(0, 3)), 0
        lines.append(f"e{e},{start.isoformat()},{labels[state]}")
        for _ in range(6):
            day += int(rng.integers(30, 200))
            state = int(rng.choice(3, p=jump[state]))
            lines.append(f"e{e},{(start + dt.timedelta(days=day)).isoformat()},{labels[state]}")
    (tmp_path / "ratings.csv").write_text("\n".join(lines) + "\n")
    _run("backtest", "--ratings", tmp_path / "ratings.csv", "--alphabet", "A,B,C",
         "--states", "2", "--step-days", "60", "--initial-days", "600", "--refit-days", "240",
         "--restarts", "2", "--max-iters", "40", "--out", tmp_path / "report.json")
    assert _digests(tmp_path) == BACKTEST_PINS
