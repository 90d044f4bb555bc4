"""Command-line pipeline over the library.

Subcommands: ``simulate``, ``calibrate``, ``filter``, ``forecast``,
``evaluate``, ``backtest``.  Exit codes: 0 ok, 1 data error, 2 model error,
3 numerical failure.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import fields
from pathlib import Path

import click
import numpy as np

from . import calibrate as cal
from . import continuous as cont
from . import panel_io as pio
from .errors import DataError, MigfilterError
from .filtering import run_filter
from .model import (
    MigrationLaw,
    Mode,
    _positive,
    generator_to_transition,
    model_from_json,
    predict_transition_probs,
)
from .simulate import SimulationConfig, simulate_events_continuous, simulate_panel_discrete


class _Main(click.Group):
    """A package error in a command prints ``error: ...`` and exits with its code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except MigfilterError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code)


def _em_options(command):
    """One option per :class:`EmConfig` field, handed to ``command`` as ``cfg``."""

    @functools.wraps(command)
    def wrapper(**kwargs):
        cfg = cal.EmConfig(**{f.name: kwargs.pop(f.name) for f in fields(cal.EmConfig)})
        return command(cfg=cfg, **kwargs)

    for f in reversed(fields(cal.EmConfig)):
        option = click.option(f"--{f.name.replace('_', '-')}", default=f.default, show_default=True)
        wrapper = option(wrapper)
    return wrapper


def _write_report(report, out_path, title):
    Path(out_path).write_text(report.to_json())
    summary = ", ".join(f"{j + 1}->{k + 1}: {v:.3f}" for (j, k), v in sorted(report.r2.items()))
    click.echo(f"{title}: {summary or 'none scorable'}; wrote {out_path}")


@click.group(cls=_Main)
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
def simulate(model_path, entities, steps, horizon, seed, step_days, out_panel, out_events, out_hidden):
    """Simulate a migration panel or event stream from a model JSON."""
    factor, law = model_from_json(Path(model_path).read_text())
    try:
        per_rating = np.array([int(x) for x in entities.split(",")])
    except ValueError as exc:
        raise DataError(f"bad --entities value {entities!r}") from exc
    discrete = factor.mode is Mode.DISCRETE
    span, out = (steps, out_panel) if discrete else (horizon, out_events)
    options = ("--steps", "--out-panel") if discrete else ("--horizon", "--out-events")
    for option, value in zip(options, (span, out)):
        if value is None:
            raise DataError(f"{option} is required for a {factor.mode.value} model")
    config = SimulationConfig(per_rating, span, seed, factor.mode, step_days)
    if discrete:
        panel, path = simulate_panel_discrete(factor, law, config)
        pio.panel_to_csv(panel, out)
        click.echo(f"wrote {panel.steps}-step panel to {out}")
        if out_hidden:
            pio._write_table(out_hidden, ["t", "state"], enumerate((path + 1).tolist()))
    else:
        stream, path = simulate_events_continuous(factor, law, config)
        pio.events_to_csv(stream, out)
        click.echo(f"wrote {stream.n_events} events to {out}")
        if out_hidden:
            rows = zip(path.times.tolist(), (path.states + 1).tolist())
            pio._write_table(out_hidden, ["time", "state"], rows)


@main.command()
@click.option("--panel", "panel_path", type=click.Path(exists=True), default=None)
@click.option("--events", "events_path", type=click.Path(exists=True), default=None)
@click.option("--states", required=True, type=int, help="Hidden state count m.")
@click.option("--mode", type=click.Choice(["discrete", "continuous"]), default="discrete", show_default=True)
@click.option("--step-days", type=int, default=1, show_default=True)
@click.option("--subintervals", type=int, default=None, help="Spreading slots per step (continuous mode).")
@_em_options
@click.option("--out", "out_path", required=True, type=click.Path())
def calibrate(panel_path, events_path, states, mode, step_days, subintervals, cfg, out_path):
    """Fit the hidden factor and migration law by multi-start EM."""
    if mode == "continuous" and events_path is not None:
        # aggregate to the reference step, then spread: raw timestamps
        # rarely respect a regular fine grid
        panel = cont.stream_to_panel(pio.events_from_csv(events_path), float(step_days))
    elif panel_path is not None:
        panel = pio.panel_from_csv(panel_path, step_length_days=step_days)
    else:
        sources = "--panel" if mode == "discrete" else "--events or --panel"
        raise DataError(f"{mode} calibration needs {sources}")
    if mode == "discrete":
        result = cal.em_fit(panel, states, cfg)
    elif subintervals is None:
        raise DataError("continuous calibration needs --subintervals")
    else:
        stream = cont.spread_jumps(panel, cont.SpreadConfig(subintervals, seed=cfg.seed))
        result = cal.em_fit_continuous(stream, states, cfg, fine_dt=step_days / subintervals)
    Path(out_path).write_text(result.to_json())
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
def filter_cmd(panel_path, events_path, model_path, step_days, subintervals, seed,
               grid_dt, report_dt, out_path):
    """Run the causal filter over a panel (discrete) or events (continuous)."""
    factor, law = model_from_json(Path(model_path).read_text())
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
        traj = cont.run_continuous_filter(stream, factor, law, grid_dt=grid, report_dt=report)
    pio.trajectory_to_csv(traj, out_path)
    click.echo(f"wrote trajectory ({traj.n_steps} steps, loglik {traj.loglik:.6f}) to {out_path}")


@main.command()
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--trajectory", "traj_path", required=True, type=click.Path(exists=True))
@click.option("--step-days", type=int, default=1, show_default=True,
              help="Forecast horizon for intensity models.")
@click.option("--out", "out_path", required=True, type=click.Path())
def forecast(model_path, traj_path, step_days, out_path):
    """Recompute transition-probability forecasts from filtered states."""
    factor, law = model_from_json(Path(model_path).read_text())
    if factor.mode is Mode.CONTINUOUS:
        law = MigrationLaw(generator_to_transition(law.per_state, _positive(step_days, "step_days")))
    traj = pio.trajectory_from_csv(traj_path)
    nu = predict_transition_probs(law, traj.probs_matrix())
    lines = pio._keyed_lines(traj.time_index[:, None], nu.reshape(len(nu), -1))
    pio._write_lines(out_path, ["t", *pio._columns("nu", law.p, law.p)], lines, None)
    click.echo(f"wrote {len(nu)} forecast rows to {out_path}")


@main.command()
@click.option("--trajectory", "traj_path", required=True, type=click.Path(exists=True))
@click.option("--panel", "panel_path", required=True, type=click.Path(exists=True))
@click.option("--step-days", type=int, default=1, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def evaluate(traj_path, panel_path, step_days, out_path):
    """Score forecasts against realized transition ratios (variance explained)."""
    traj = pio.trajectory_from_csv(traj_path)
    panel = pio.panel_from_csv(panel_path, step_length_days=step_days)
    _write_report(pio.evaluate_predictions(panel, traj), out_path, "R2 per transition")


@main.command()
@click.option("--ratings", "ratings_path", required=True, type=click.Path(exists=True))
@click.option("--alphabet", required=True, help="Comma-separated rating labels, best to worst.")
@click.option("--censor", default="W", show_default=True)
@click.option("--states", required=True, type=int)
@click.option("--step-days", type=int, default=30, show_default=True)
@click.option("--initial-days", type=int, default=365 * 8, show_default=True,
              help="History used for the first calibration.")
@click.option("--refit-days", type=int, default=365, show_default=True)
@_em_options
@click.option("--out", "out_path", required=True, type=click.Path())
def backtest(ratings_path, alphabet, censor, states, step_days, initial_days,
             refit_days, cfg, out_path):
    """Roll a periodically recalibrated model over a rating history."""
    labels = [x.strip() for x in alphabet.split(",") if x.strip()]
    paths = pio.ingest_ratings(ratings_path, labels, censor)
    panel = pio.build_panel(paths, step_days)
    initial_steps = max(1, initial_days // step_days)
    refit_every = max(1, refit_days // step_days)
    report = pio.rolling_backtest(panel, states, cfg, initial_steps, refit_every)
    _write_report(report, out_path, "out-of-sample R2")


if __name__ == "__main__":
    main()
