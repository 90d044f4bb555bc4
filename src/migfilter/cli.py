"""Command-line pipeline over the library.

Subcommands: ``simulate``, ``calibrate``, ``filter``, ``forecast``,
``evaluate``, ``backtest``.  Exit codes: 0 ok, 1 data error, 2 model error,
3 numerical failure.
"""

from __future__ import annotations

import functools
import sys

import click
import numpy as np

from . import calibrate as cal
from . import continuous as cont
from . import panel_io as pio
from .errors import DataError, MigfilterError
from .filtering import run_filter
from .model import (
    Mode,
    model_from_json,
    predict_transition_probs,
    generator_to_transition,
    MigrationLaw,
)
from .simulate import SimulationConfig, simulate_events_continuous, simulate_panel_discrete


def _exit_on_error(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except MigfilterError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code)

    return wrapper


def _load_model(path):
    with open(path) as handle:
        return model_from_json(handle.read())


@click.group()
def main():
    """Hidden-factor filtering and calibration for rating migration data."""


@main.command()
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--entities", required=True, help="Comma-separated entities per rating.")
@click.option("--steps", type=int, default=None, help="Discrete horizon (steps).")
@click.option("--horizon", type=float, default=None, help="Continuous horizon (days).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--step-days", type=int, default=1, show_default=True)
@click.option("--out-panel", type=click.Path(), default=None)
@click.option("--out-events", type=click.Path(), default=None)
@click.option("--out-hidden", type=click.Path(), default=None)
@_exit_on_error
def simulate(model_path, entities, steps, horizon, seed, step_days, out_panel, out_events, out_hidden):
    """Simulate a migration panel or event stream from a model JSON."""
    factor, law = _load_model(model_path)
    try:
        per_rating = np.array([int(x) for x in entities.split(",")])
    except ValueError as exc:
        raise DataError(f"bad --entities value {entities!r}") from exc
    if factor.mode is Mode.DISCRETE:
        if steps is None:
            raise DataError("--steps is required for a discrete model")
        config = SimulationConfig(per_rating, steps, seed, Mode.DISCRETE, step_days)
        panel, path = simulate_panel_discrete(factor, law, config)
        if out_panel is None:
            raise DataError("--out-panel is required for a discrete model")
        pio.panel_to_csv(panel, out_panel)
        click.echo(f"wrote {panel.steps}-step panel to {out_panel}")
        if out_hidden:
            _write_hidden_discrete(path, out_hidden)
    else:
        if horizon is None:
            raise DataError("--horizon is required for a continuous model")
        config = SimulationConfig(per_rating, horizon, seed, Mode.CONTINUOUS, step_days)
        stream, path = simulate_events_continuous(factor, law, config)
        if out_events is None:
            raise DataError("--out-events is required for a continuous model")
        pio.events_to_csv(stream, out_events)
        click.echo(f"wrote {stream.n_events} events to {out_events}")
        if out_hidden:
            _write_hidden_continuous(path, out_hidden)


def _write_hidden_discrete(path, target):
    with open(target, "w") as handle:
        handle.write("t,state\n")
        for t, s in enumerate(path):
            handle.write(f"{t},{int(s) + 1}\n")


def _write_hidden_continuous(path, target):
    with open(target, "w") as handle:
        handle.write("time,state\n")
        for t, s in zip(path.times, path.states):
            handle.write(f"{t!r},{int(s) + 1}\n")


@main.command()
@click.option("--panel", "panel_path", type=click.Path(exists=True), default=None)
@click.option("--events", "events_path", type=click.Path(exists=True), default=None)
@click.option("--states", required=True, type=int, help="Hidden state count m.")
@click.option("--mode", type=click.Choice(["discrete", "continuous"]), default="discrete", show_default=True)
@click.option("--step-days", type=int, default=1, show_default=True)
@click.option("--subintervals", type=int, default=None, help="Spreading slots per step (continuous on panel data).")
@click.option("--restarts", type=int, default=10, show_default=True)
@click.option("--max-iters", type=int, default=500, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--tol", type=float, default=1e-8, show_default=True)
@click.option("--floor", type=float, default=1e-12, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@_exit_on_error
def calibrate(panel_path, events_path, states, mode, step_days, subintervals,
              restarts, max_iters, seed, tol, floor, out_path):
    """Fit the hidden factor and migration law by multi-start EM."""
    cfg = cal.EmConfig(restarts=restarts, max_iters=max_iters, tol=tol, seed=seed, floor=floor)
    if mode == "discrete":
        if panel_path is None:
            raise DataError("discrete calibration needs --panel")
        panel = pio.panel_from_csv(panel_path, step_length_days=step_days)
        result = cal.em_fit(panel, states, cfg)
    else:
        if events_path is not None:
            if subintervals is None:
                raise DataError("continuous calibration needs --subintervals")
            raw = pio.events_from_csv(events_path)
            # aggregate to the reference step, then spread: raw timestamps
            # rarely respect a regular fine grid
            panel = cont.stream_to_panel(raw, float(step_days))
            stream = cont.spread_jumps(panel, cont.SpreadConfig(subintervals, seed=seed))
            fine_dt = step_days / subintervals
            result = cal.em_fit_continuous(stream, states, cfg, fine_dt=fine_dt)
        elif panel_path is not None:
            if subintervals is None:
                raise DataError("continuous calibration on a panel needs --subintervals")
            panel = pio.panel_from_csv(panel_path, step_length_days=step_days)
            stream = cont.spread_jumps(panel, cont.SpreadConfig(subintervals, seed=seed))
            fine_dt = step_days / subintervals
            result = cal.em_fit_continuous(stream, states, cfg, fine_dt=fine_dt)
        else:
            raise DataError("continuous calibration needs --events or --panel")
    with open(out_path, "w") as handle:
        handle.write(result.to_json())
    click.echo(
        f"restart {result.best_restart} won with loglik {result.loglik:.6f} "
        f"({'converged' if result.converged else 'iteration cap hit'}); wrote {out_path}"
    )


@main.command("filter")
@click.option("--panel", "panel_path", type=click.Path(exists=True), default=None)
@click.option("--events", "events_path", type=click.Path(exists=True), default=None)
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--step-days", type=int, default=1, show_default=True)
@click.option("--subintervals", type=int, default=None, help="Spread a panel before continuous filtering.")
@click.option("--seed", type=int, default=0, show_default=True, help="Spreading seed.")
@click.option("--grid-dt", type=float, default=None, help="Integration cap (days) for the continuous filter.")
@click.option("--report-dt", type=float, default=None, help="Reporting interval (days); defaults to --step-days.")
@click.option("--out", "out_path", required=True, type=click.Path())
@_exit_on_error
def filter_cmd(panel_path, events_path, model_path, step_days, subintervals, seed,
               grid_dt, report_dt, out_path):
    """Run the causal filter over a panel (discrete) or events (continuous)."""
    factor, law = _load_model(model_path)
    if factor.mode is Mode.DISCRETE:
        if panel_path is None:
            raise DataError("a discrete model filters a --panel")
        panel = pio.panel_from_csv(panel_path, step_length_days=step_days)
        traj = run_filter(panel, factor, law)
    else:
        if events_path is not None:
            stream = pio.events_from_csv(events_path)
        elif panel_path is not None:
            if subintervals is None:
                raise DataError("spreading a panel needs --subintervals")
            panel = pio.panel_from_csv(panel_path, step_length_days=step_days)
            stream = cont.spread_jumps(panel, cont.SpreadConfig(subintervals, seed=seed))
        else:
            raise DataError("a continuous model filters --events or a spread --panel")
        report = float(report_dt if report_dt is not None else step_days)
        grid = float(grid_dt) if grid_dt is not None else report / 10.0
        traj = cont.run_continuous_filter(
            stream, factor, law, grid_dt=grid, report_dt=report
        )
    pio.trajectory_to_csv(traj, out_path)
    click.echo(f"wrote trajectory ({traj.n_steps} steps, loglik {traj.loglik:.6f}) to {out_path}")


@main.command()
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--trajectory", "traj_path", required=True, type=click.Path(exists=True))
@click.option("--step-days", type=int, default=1, show_default=True,
              help="Forecast horizon for intensity models.")
@click.option("--out", "out_path", required=True, type=click.Path())
@_exit_on_error
def forecast(model_path, traj_path, step_days, out_path):
    """Recompute transition-probability forecasts from filtered states."""
    factor, law = _load_model(model_path)
    traj = pio.trajectory_from_csv(traj_path)
    if factor.mode is Mode.CONTINUOUS:
        mats = np.array([generator_to_transition(g, step_days) for g in law.per_state])
        prob_law = MigrationLaw(per_state=mats, mode=Mode.DISCRETE)
    else:
        prob_law = law
    nu = predict_transition_probs(prob_law, traj.probs_matrix())
    rows = np.column_stack([traj.times(), nu.reshape(len(nu), -1)]).tolist()
    with open(out_path, "w", newline="") as handle:
        p = prob_law.p
        header = ["t"] + [f"nu_{j + 1}_{k + 1}" for j in range(p) for k in range(p)]
        handle.write(",".join(header) + "\n")
        handle.writelines(",".join(map(repr, row)) + "\n" for row in rows)
    click.echo(f"wrote {len(rows)} forecast rows to {out_path}")


@main.command()
@click.option("--trajectory", "traj_path", required=True, type=click.Path(exists=True))
@click.option("--panel", "panel_path", required=True, type=click.Path(exists=True))
@click.option("--step-days", type=int, default=1, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@_exit_on_error
def evaluate(traj_path, panel_path, step_days, out_path):
    """Score forecasts against realized transition ratios (variance explained)."""
    traj = pio.trajectory_from_csv(traj_path)
    panel = pio.panel_from_csv(panel_path, step_length_days=step_days)
    report = pio.evaluate_predictions(panel, traj)
    with open(out_path, "w") as handle:
        handle.write(report.to_json())
    summary = ", ".join(f"{j + 1}->{k + 1}: {v:.3f}" for (j, k), v in sorted(report.r2.items()))
    click.echo(f"R2 per transition: {summary or 'none scorable'}; wrote {out_path}")


@main.command()
@click.option("--ratings", "ratings_path", required=True, type=click.Path(exists=True))
@click.option("--alphabet", required=True, help="Comma-separated rating labels, best to worst.")
@click.option("--censor", default="W", show_default=True)
@click.option("--states", required=True, type=int)
@click.option("--step-days", type=int, default=30, show_default=True)
@click.option("--initial-days", type=int, default=365 * 8, show_default=True,
              help="History used for the first calibration.")
@click.option("--refit-days", type=int, default=365, show_default=True)
@click.option("--restarts", type=int, default=10, show_default=True)
@click.option("--max-iters", type=int, default=500, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--tol", type=float, default=1e-8, show_default=True)
@click.option("--floor", type=float, default=1e-12, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@_exit_on_error
def backtest(ratings_path, alphabet, censor, states, step_days, initial_days,
             refit_days, restarts, max_iters, seed, tol, floor, out_path):
    """Roll a periodically recalibrated model over a rating history."""
    labels = [x.strip() for x in alphabet.split(",") if x.strip()]
    paths = pio.ingest_ratings(ratings_path, labels, censor)
    panel = pio.build_panel(paths, step_days)
    cfg = cal.EmConfig(restarts=restarts, max_iters=max_iters, tol=tol, seed=seed, floor=floor)
    initial_steps = max(1, initial_days // step_days)
    refit_every = max(1, refit_days // step_days)
    report = pio.rolling_backtest(panel, states, cfg, initial_steps, refit_every)
    with open(out_path, "w") as handle:
        handle.write(report.to_json())
    summary = ", ".join(f"{j + 1}->{k + 1}: {v:.3f}" for (j, k), v in sorted(report.r2.items()))
    click.echo(f"out-of-sample R2: {summary or 'none scorable'}; wrote {out_path}")


if __name__ == "__main__":
    main()
