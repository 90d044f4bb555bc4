"""Seeded benchmark of migfilter's user-facing pipelines.

Run from the root of a checkout (the package is imported from its
``src/`` tree, never from an installed copy)::

    python3 bench/run.py --workload panel_fit --seed 1 --seconds 25 --trace 0

One run, in one process with BLAS pinned to one thread:

1. imports the package (timed) and generates the workload's inputs from
   ``--seed`` several times, keeping the median (``setup_s``);
2. runs one untimed warm-up pass and checks its outputs against the
   benchmark's own oracles;
3. repeats the pipeline for ``--seconds`` seconds; every pass must give
   exactly the warm-up's outputs.

Timings are rescaled to a reference machine speed sampled while they run
(see ``speed.py``), so their units are reference-machine seconds
(``ref_s``, ``ref_ms``; ``setup_s`` keeps the plain ``s`` the benchmark
format requires).  The details keep the wall times and, per run, the slope
that the rescaling assumes (pass wall time against kernel time, expected
between 0.9 and 1.2); a slope found outside that range is flagged there and
on standard error.

With ``--trace 0`` the last line of standard output is the result JSON with
the end-to-end metrics (medians over passes); with ``--trace 1`` timed
passes alternate between untraced and traced, the result carries the
per-layer metrics and the tracing overhead, and the spans are written to
``.bench_out/``.  The line before the result holds the details: run
environment, input sizes, every sample count, the checks and the quality
figures.  The smoke tests call :func:`run_benchmark` with ``smoke=True``:
tiny inputs, every check on and one pass of each kind.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
MIN_PASSES = 3

END_TO_END = {
    "setup_s": "s",
    "total_s": "ref_s",
    "ingest_s": "ref_s",
    "fit_s": "ref_s",
    "filter_s": "ref_s",
    "score_s": "ref_s",
    "peak_rss_mb": "MB",
}

SELF_MS = [
    "calibrate.forward_pass", "calibrate.backward_pass", "calibrate.posteriors",
    "calibrate.m_step", "calibrate.em_fit_continuous", "calibrate.lbfgs",
    "filtering.run_filter", "continuous.run_continuous_filter",
    "continuous.stream_to_panel", "continuous.spread_jumps",
    "panel_io.ingest_ratings", "panel_io.build_panel", "panel_io.rolling_backtest",
    "panel_io.panel_csv_read", "panel_io.trajectory_csv_write",
    "panel_io.trajectory_csv_read", "panel_io.evaluate_predictions",
    "panel_io.report_json", "cli.calibrate", "cli.filter", "cli.forecast", "cli.evaluate",
]
SETUP_MS = ["simulate.simulate_panel_discrete", "simulate.simulate_events_continuous"]
FITS = ("calibrate.em_fit", "calibrate.em_fit_continuous")

PER_LAYER = {
    **{f"{name}_ms": "ref_ms" for name in SELF_MS + SETUP_MS},
    "calibrate.em_iterations": "count",
    "calibrate.capped_restarts": "count",
    "calibrate.em_iter_ms": "ref_ms",
    "calibrate.em_fit_calls": "count",
    "calibrate.lbfgs_calls": "count",
    "calibrate.restart_yield": "ratio",
    "calibrate.failed_restarts": "count",
    "filtering.steps": "count",
    "continuous.events": "count",
    "panel_io.rows": "count",
    "panel_io.entity_steps": "count",
    "model.predict_transition_probs_calls": "count",
    "quality.fit_loglik": "nats",
    "quality.filter_err": "prob",
    "quality.mean_r2": "ratio",
    "trace.overhead": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["panel_fit", "event_stream", "ratings_backtest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def import_package() -> float:
    """Pin BLAS to one thread, put the checkout's sources first on the path
    and return the time the package import takes."""
    if not (SRC / "migfilter" / "__init__.py").is_file():
        raise FileNotFoundError(f"no migfilter sources under {SRC}")
    os.environ.update(BLAS_PIN)
    sys.path[:0] = [str(SRC), str(BENCH)]
    start = time.perf_counter()
    import migfilter

    elapsed = time.perf_counter() - start
    if Path(migfilter.__file__).resolve().parent != (SRC / "migfilter").resolve():
        raise ImportError(f"imported migfilter from {migfilter.__file__}, not {SRC}")
    return elapsed


def environment() -> dict:
    import numpy as np
    import scipy
    from importlib.metadata import version

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in BLAS_PIN},
    }


def summarize(samples) -> dict:
    """Median plus the highest percentile that leaves at least ten samples
    above it, given only when that percentile is above the median (more
    than twenty samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "p_high": None, "p_high_value": None}
    if n > 20:
        pct = math.floor(100 * (n - 10) / n)
        out["p_high"] = pct
        out["p_high_value"] = ordered[max(0, math.ceil(pct / 100 * n) - 1)]
    return out


def layer_targets():
    """(owner, attribute, span name) for every traced public function, at
    the attribute its caller looks it up through."""
    from migfilter import calibrate as cal
    from migfilter import cli
    from migfilter import continuous as cont
    from migfilter import filtering
    from migfilter import panel_io as pio
    from migfilter import simulate as sim

    spans = [
        (cal, "forward_pass", "calibrate.forward_pass"),
        (cal, "backward_pass", "calibrate.backward_pass"),
        (cal, "posteriors", "calibrate.posteriors"),
        (cal, "m_step", "calibrate.m_step"),
        (cal, "em_fit", "calibrate.em_fit"),
        (cal, "em_fit_continuous", "calibrate.em_fit_continuous"),
        (cal, "minimize", "calibrate.lbfgs"),
        (filtering, "run_filter", "filtering.run_filter"),
        (cli, "run_filter", "filtering.run_filter"),
        (cont, "run_continuous_filter", "continuous.run_continuous_filter"),
        (cont, "stream_to_panel", "continuous.stream_to_panel"),
        (cont, "spread_jumps", "continuous.spread_jumps"),
        (pio, "ingest_ratings", "panel_io.ingest_ratings"),
        (pio, "build_panel", "panel_io.build_panel"),
        (pio, "rolling_backtest", "panel_io.rolling_backtest"),
        (pio, "panel_from_csv", "panel_io.panel_csv_read"),
        (pio, "trajectory_to_csv", "panel_io.trajectory_csv_write"),
        (pio, "trajectory_from_csv", "panel_io.trajectory_csv_read"),
        (pio, "evaluate_predictions", "panel_io.evaluate_predictions"),
        (pio.EvaluationReport, "to_json", "panel_io.report_json"),
        (sim, "simulate_panel_discrete", "simulate.simulate_panel_discrete"),
        (sim, "simulate_events_continuous", "simulate.simulate_events_continuous"),
    ]
    counts = [
        (filtering, "predict_transition_probs", "model.predict_transition_probs"),
        (cli, "predict_transition_probs", "model.predict_transition_probs"),
    ]
    keep = FITS + (
        "filtering.run_filter", "continuous.run_continuous_filter",
        "panel_io.ingest_ratings", "panel_io.build_panel",
    )
    return spans, counts, keep


def layer_metrics(rec, max_iters: int) -> dict[str, float]:
    """Per-layer figures of one traced pass: self times of every span name
    plus counts read from the arguments and results the spans kept.
    ``max_iters`` is the workload's EM iteration cap."""
    self_ms, total_ms = rec.self_ms(), rec.total_ms()
    kept = rec.kept
    out = {f"{name}_ms": self_ms.get(name, 0.0) for name in SELF_MS}
    traces = [t for name in FITS for _, fit in kept.get(name, []) for t in fit.restart_traces]
    finals_by_fit = [
        [float(t[-1]) for t in fit.restart_traces if len(t)]
        for name in FITS for _, fit in kept.get(name, [])
    ]
    near = sum(
        sum(1 for f in finals if abs(f - max(finals)) <= 1e-6 * abs(max(finals)))
        for finals in finals_by_fit if finals
    )
    iterations = sum(len(t) for t in traces)
    out.update({
        "calibrate.em_iterations": iterations,
        "calibrate.capped_restarts": sum(1 for t in traces if len(t) >= max_iters),
        "calibrate.em_iter_ms": sum(total_ms.get(n, 0.0) for n in FITS) / max(iterations, 1),
        "calibrate.em_fit_calls": len(kept.get("calibrate.em_fit", [])),
        "calibrate.lbfgs_calls": sum(1 for s in rec.spans if s.name == "calibrate.lbfgs"),
        "calibrate.restart_yield": near / len(traces) if traces else 0.0,
        "calibrate.failed_restarts": sum(1 for t in traces if not len(t)),
        "filtering.steps": sum(t.n_steps for _, t in kept.get("filtering.run_filter", [])),
        "continuous.events": sum(
            s.n_events for s, _ in kept.get("continuous.run_continuous_filter", [])
        ),
        "panel_io.rows": sum(
            sum(len(p) for p in paths.events.values()) + paths.duplicate_count
            for _, paths in kept.get("panel_io.ingest_ratings", [])
        ),
        "panel_io.entity_steps": sum(
            len(paths.events) * panel.steps for paths, panel in kept.get("panel_io.build_panel", [])
        ),
        "model.predict_transition_probs_calls": rec.calls.get("model.predict_transition_probs", 0),
    })
    return out


STAGES = ("ingest", "fit", "filter", "score")
SLOPE_RANGE = (0.9, 1.2)


def speed_slope(walls, scaled) -> dict:
    """Least-squares slope of log pass wall time on log kernel time over
    untraced passes (the kernel time of a pass is ``REFERENCE_S`` over its
    rescaling factor).  The rescaling is right when work and kernel slow
    down together, a slope near one; ``status`` is ``undetermined`` with
    fewer than four passes or a standard error above 0.25, ``outside``
    when two standard errors round the slope miss ``SLOPE_RANGE`` and
    ``consistent`` otherwise."""
    from speed import REFERENCE_S

    xs = [math.log(REFERENCE_S * w / s) for w, s in zip(walls, scaled)]
    ys = [math.log(w) for w in walls]
    out = {"passes": len(xs), "slope": None, "stderr": None, "kernel_range": None,
           "expected": list(SLOPE_RANGE), "status": "undetermined"}
    if len(xs) < 4:
        return out
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    out["kernel_range"] = math.exp(max(xs) - min(xs))
    if sxx == 0.0:
        return out
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    resid = sum((y - my - slope * (x - mx)) ** 2 for x, y in zip(xs, ys))
    stderr = math.sqrt(resid / (len(xs) - 2) / sxx)
    out.update(slope=slope, stderr=stderr)
    if stderr <= 0.25:
        lo, hi = SLOPE_RANGE
        inside = slope + 2 * stderr >= lo and slope - 2 * stderr <= hi
        out["status"] = "consistent" if inside else "outside"
    return out


def run_benchmark(name, seed, seconds, trace, smoke=False, import_s=0.0) -> tuple[dict, dict]:
    """One benchmark run; returns the result and the details.

    Every timed interval is rescaled to the reference machine speed of
    :mod:`speed`; the details keep the wall times as well.
    """
    import speed
    import workloads
    from tracing import SpanRecorder, StageClock, write_spans

    workdir = ROOT / ".bench_tmp" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, workdir, smoke=smoke)
    targets = layer_targets()
    attempted = failed = 0
    try:
        with speed.SpeedSampler() as sampler:
            setup_wall, setup_scaled, setup_layers = [], [], []
            for _ in range(1 if smoke else SETUP_REPEATS):
                rec, clock = SpanRecorder(), StageClock(sampler)
                with clock.stage("setup"), rec.tracing(targets[0]) if trace else nullcontext():
                    sizes = wl.setup()
                setup_wall.append(clock.seconds(scaled=False)["setup"])
                setup_scaled.append(clock.seconds()["setup"])
                scale = setup_scaled[-1] / setup_wall[-1]
                setup_layers.append({f"{n}_ms": scale * rec.self_ms().get(n, 0.0) for n in SETUP_MS})
            import_scaled = import_s * statistics.fmean(sampler.factors or [1.0])

            warm = wl.run(StageClock())
            checks = wl.check(warm)
            quality = wl.quality(warm)
            reference = wl.signature(warm)
            attempted += wl.ops_per_pass + len(checks)
            failed += sum(not c.ok for c in checks)

            deadline = time.perf_counter() + (0.0 if smoke else seconds)
            passes = []  # (traced, wall seconds per stage, rescaled seconds per stage, spans)
            want = 1 if smoke else MIN_PASSES
            while True:
                tracing_now = bool(trace) and 2 * sum(p[0] for p in passes) < len(passes)
                rec, clock = SpanRecorder(), StageClock(sampler)
                untraced_span = wl.span
                with rec.tracing(*targets) if tracing_now else nullcontext():
                    if tracing_now:
                        wl.span = rec.span
                    with clock.stage("total"):
                        out = wl.run(clock)
                    wl.span = untraced_span
                attempted += wl.ops_per_pass + 1
                failed += wl.signature(out) != reference
                passes.append((tracing_now, clock.seconds(scaled=False), clock.seconds(), rec))
                counts = [sum(p[0] == kind for p in passes) for kind in (False, True)]
                enough = counts[0] >= want and (not trace or counts[1] >= want)
                typical = statistics.median(p[1]["total"] for p in passes)
                if enough and time.perf_counter() + typical > deadline:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [scaled for traced, _, scaled, _ in passes if not traced]
    plain_wall = [wall for traced, wall, _, _ in passes if not traced]
    slope = speed_slope([w["total"] for w in plain_wall], [s["total"] for s in plain])

    def median_of(samples, key):
        return statistics.median(s.get(key, 0.0) for s in samples)

    details = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "environment": environment(),
        "inputs": sizes,
        "speed": {
            "reference_s": speed.REFERENCE_S,
            "samples": len(sampler.kernel_s),
            "kernel_s": summarize(sampler.kernel_s) if sampler.kernel_s else None,
            "sampler_s": sampler.spent,
            "slope": slope,
        },
        "import_wall_s": import_s,
        "setup_wall_s": setup_wall,
        "setup_scaled_s": setup_scaled,
        "warmup_passes": 1,
        "passes": {"untraced": len(plain), "traced": len(passes) - len(plain)},
        "total_s": summarize([s["total"] for s in plain]),
        "stages_s": {key: summarize([s.get(key, 0.0) for s in plain]) for key in STAGES},
        "total_wall_s": summarize([w["total"] for w in plain_wall]),
        "stages_wall_s": {key: summarize([w.get(key, 0.0) for w in plain_wall]) for key in STAGES},
        "pass_samples": [
            {"traced": traced, "wall_s": wall, "scaled_s": scaled}
            for traced, wall, scaled, _ in passes
        ],
        "quality": quality,
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
    }
    if trace:
        traced = [(wall, scaled, rec) for t, wall, scaled, rec in passes if t]
        layers = []
        for wall, scaled, rec in traced:
            scale = scaled["total"] / wall["total"]
            figures = layer_metrics(rec, wl.max_iters)
            layers.append({k: v * scale if PER_LAYER[k] == "ref_ms" else v for k, v in figures.items()})
        values = {key: statistics.median(d[key] for d in layers) for key in layers[0]}
        for key in setup_layers[0]:
            values[key] = statistics.median(d[key] for d in setup_layers)
        values.update({f"quality.{k}": v for k, v in quality.items()})
        values["trace.overhead"] = (
            median_of([scaled for _, scaled, _ in traced], "total") / median_of(plain, "total")
            - 1.0
        )
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in PER_LAYER.items()}
        spans_dir = ROOT / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        spans_path = spans_dir / f"trace-{name}-seed{seed}.json"
        write_spans(spans_path, {"workload": name, "seed": seed}, [r for _, _, r in traced])
        details["spans_file"] = str(spans_path.relative_to(ROOT))
        details["trace_overhead"] = values["trace.overhead"]
    else:
        values = {
            "setup_s": import_scaled + statistics.median(setup_scaled),
            **{f"{key}_s": median_of(plain, key) for key in ("total",) + STAGES},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, details


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_s = import_package()
    except (FileNotFoundError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    try:
        result, details = run_benchmark(
            args.workload, args.seed, args.seconds, args.trace, import_s=import_s
        )
    except Exception:
        traceback.print_exc()
        print("bench: an operation failed; no result", file=sys.stderr)
        return 1
    slope = details["speed"]["slope"]
    if slope["status"] == "outside":
        print(f"bench: warning: wall time against kernel time has slope {slope['slope']:.2f}"
              f" +- {2 * slope['stderr']:.2f}, outside {list(SLOPE_RANGE)}; the rescaled"
              " timings of this run are unresolved", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
