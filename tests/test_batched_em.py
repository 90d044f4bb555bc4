"""Lockstep multi-start EM against the sequential restart loop it replaced.

The reference below runs one restart at a time, and each of its EM
iterations is an E-step and M-step on unstacked parameters.  The lockstep
fit, with all restarts stacked on a leading axis, must write the same fit
JSON byte for byte, with the same traces, converged flags and failures.
"""

from dataclasses import replace

import numpy as np
import pytest

import migfilter as mf
from migfilter import calibrate
from migfilter.calibrate import (
    CalibrationResult,
    _chain_m_step,
    _discrete_e_and_m,
    _e_step,
    _em_lockstep,
    _fine_grid_from_panel,
    _jump_posterior_mass,
    _optimize_picker_rows,
    _panel_log_weights,
    _picker_log_weights,
    _random_init,
    m_step,
)
from migfilter.continuous import stream_to_panel
from migfilter.errors import ImpossibleObservationError, ModelError
from migfilter.model import HiddenFactorSpec, MigrationLaw, Mode, sort_states_by_risk

from conftest import random_instance


def reference_em_single(panel, pi, trans, per_state, cfg, e_and_m):
    trace = []
    converged = False
    params = (pi, trans, per_state)
    for _ in range(cfg.max_iters):
        loglik, new_params = e_and_m(panel, *params, cfg)
        trace.append(loglik)
        if len(trace) > 1:
            prev = trace[-2]
            if loglik - prev <= cfg.tol * max(abs(prev), 1.0):
                converged = True
                params = new_params
                break
        params = new_params
    return np.array(trace), params, converged


def reference_multi_start(panel, m, cfg, e_and_m):
    """The restart loop one restart at a time; starts come from the module's
    ``_random_init``, so a test that patches it patches both fits."""
    master = np.random.default_rng(cfg.seed)
    seeds = [int(s) for s in master.integers(0, 2**63 - 1, size=cfg.restarts)]
    traces, fits, converged, failures = [], [], [], []
    for seed in seeds:
        start = calibrate._random_init(np.random.default_rng(seed), m, panel.p, cfg.floor)
        try:
            trace, params, conv = reference_em_single(panel, *start, cfg, e_and_m)
        except ImpossibleObservationError as exc:
            traces.append(np.empty(0))
            fits.append(None)
            converged.append(False)
            failures.append(str(exc))
            continue
        traces.append(trace)
        fits.append(params)
        converged.append(conv)
        failures.append(None)
    if all(f is None for f in fits):
        first = next(f for f in failures if f is not None)
        raise ModelError("every EM restart failed on impossible observations: " + first)
    best = int(np.argmax([t[-1] if t.size else -np.inf for t in traces]))
    pi, trans, per_state = fits[best]
    factor, law, _ = sort_states_by_risk(
        HiddenFactorSpec(pi=pi, trans=trans, mode=Mode.DISCRETE),
        MigrationLaw(per_state=per_state, mode=Mode.DISCRETE),
    )
    return CalibrationResult(
        factor=factor,
        law=law,
        best_restart=best,
        restart_traces=tuple(traces),
        restart_seeds=tuple(seeds),
        restart_converged=tuple(converged),
        restart_failures=tuple(failures),
    )


def reference_discrete_e_and_m(panel, pi, trans, per_state, cfg):
    loglik, u, v = _e_step(_panel_log_weights(panel, per_state), pi, trans)
    return loglik, m_step(u, v, panel, prev_law=MigrationLaw(per_state), floor=cfg.floor)


def reference_em_fit_continuous(stream, m, cfg, fine_dt):
    """``em_fit_continuous(..., to_generator=False)`` one restart at a time."""
    fine = stream_to_panel(stream, fine_dt)
    exposures, src, dst, n_bar = _fine_grid_from_panel(fine)
    nojump = src < 0
    y_nj = exposures[nojump].astype(float)

    def e_and_m(_panel, pi, trans, per_state, cfg):
        logw = _picker_log_weights(exposures, src, dst, per_state, n_bar)
        loglik, u, v = _e_step(logw, pi, trans)
        jump_mass = _jump_posterior_mass(u, src, dst, m, fine.p)
        u_nj = u[nojump]
        new_per_state = np.stack([
            _optimize_picker_rows(jump_mass[i], u_nj[:, i], y_nj, n_bar, per_state[i], cfg.floor)
            for i in range(m)
        ])
        return loglik, (*_chain_m_step(u, v), new_per_state)

    return replace(reference_multi_start(fine, m, cfg, e_and_m), fine_dt=fine_dt)


def assert_same_fit(got, want):
    assert got.to_json() == want.to_json()
    assert len(got.restart_traces) == len(want.restart_traces)
    for a, b in zip(got.restart_traces, want.restart_traces):
        np.testing.assert_array_equal(a, b)
    assert got.restart_converged == want.restart_converged
    assert got.restart_failures == want.restart_failures


def with_observed_zero(start, panel):
    """``start`` with every state's law zero at one cell the panel observes
    (renormalized), so the first E-step finds it impossible."""
    pi, trans, per_state = start
    j, k = np.argwhere(panel.counts.sum(axis=0) > 0)[0]
    per_state = per_state.copy()
    per_state[:, j, k] = 0.0
    return pi, trans, per_state / per_state.sum(axis=-1, keepdims=True)


def test_random_panels_match_sequential_fit():
    rng = np.random.default_rng(20261018)
    uneven = 0
    for _ in range(40):
        panel, _, _ = random_instance(
            rng, p=int(rng.integers(2, 4)), entities=int(rng.integers(2, 12)),
            steps=int(rng.integers(2, 30)),
        )
        m = int(rng.integers(1, 5))
        cfg = mf.EmConfig(
            restarts=int(rng.integers(1, 7)), max_iters=40, tol=1e-6,
            seed=int(rng.integers(2**31)),
        )
        got = mf.em_fit(panel, m, cfg)
        assert_same_fit(got, reference_multi_start(panel, m, cfg, reference_discrete_e_and_m))
        uneven += len({t.size for t in got.restart_traces}) > 1
    # restarts leaving the batch at different iterations were exercised
    assert uneven >= 10


def test_failed_restart_leaves_the_others_running():
    rng = np.random.default_rng(5)
    panel, _, _ = random_instance(rng, m=2, p=3, entities=9, steps=12)
    cfg = mf.EmConfig(restarts=4, max_iters=30, tol=1e-9)
    starts = [_random_init(np.random.default_rng(s), 2, panel.p, cfg.floor) for s in range(4)]
    starts[1] = with_observed_zero(starts[1], panel)
    traces, params, converged, errors = _em_lockstep(
        panel, [np.stack(x) for x in zip(*starts)], cfg, _discrete_e_and_m
    )
    for r, start in enumerate(starts):
        if r == 1:
            with pytest.raises(ImpossibleObservationError) as info:
                reference_em_single(panel, *start, cfg, reference_discrete_e_and_m)
            assert str(errors[r]) == str(info.value)
            assert errors[r].time_index == info.value.time_index
            assert traces[r].size == 0 and not converged[r]
            continue
        trace, fit, conv = reference_em_single(panel, *start, cfg, reference_discrete_e_and_m)
        assert errors[r] is None
        np.testing.assert_array_equal(traces[r], trace)
        for got, want in zip(params, fit):
            np.testing.assert_array_equal(got[r], want)
        assert converged[r] == conv


def test_failed_restart_is_reported_in_the_result(monkeypatch):
    rng = np.random.default_rng(8)
    panel, _, _ = random_instance(rng, m=2, p=2, entities=8, steps=10)
    draws = []

    def second_draw_impossible(rng, m, p, floor):
        start = _random_init(rng, m, p, floor)
        draws.append(start)
        return with_observed_zero(start, panel) if len(draws) % 3 == 2 else start

    monkeypatch.setattr(calibrate, "_random_init", second_draw_impossible)
    cfg = mf.EmConfig(restarts=3, max_iters=20, seed=3)
    got = mf.em_fit(panel, 2, cfg)
    want = reference_multi_start(panel, 2, cfg, reference_discrete_e_and_m)
    assert_same_fit(got, want)
    assert [f is None for f in got.restart_failures] == [True, False, True]


def test_every_restart_failing_gives_the_sequential_message(monkeypatch):
    rng = np.random.default_rng(9)
    panel, _, _ = random_instance(rng, m=2, p=3, entities=6, steps=5)
    monkeypatch.setattr(
        calibrate, "_random_init",
        lambda rng, m, p, floor: with_observed_zero(_random_init(rng, m, p, floor), panel),
    )
    cfg = mf.EmConfig(restarts=3, max_iters=5, seed=2)
    with pytest.raises(ModelError) as want:
        reference_multi_start(panel, 2, cfg, reference_discrete_e_and_m)
    with pytest.raises(ModelError) as got:
        mf.em_fit(panel, 2, cfg)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("every EM restart failed on impossible observations")


@pytest.mark.parametrize("i", range(3))
def test_continuous_fit_matches_sequential_fit(i):
    factor, law = mf.demo_model(2, 2, spread=4.0)
    sim = mf.SimulationConfig(np.array([12, 12]), 25, seed=1000 + i, step_length_days=1)
    panel, _ = mf.simulate_panel_discrete(factor, law, sim)
    off = ~np.eye(2, dtype=bool)
    slots = int(panel.counts[:, off].sum(axis=1).max()) + 2
    stream = mf.spread_jumps(panel, mf.SpreadConfig(slots, seed=i))
    cfg = mf.EmConfig(restarts=3, max_iters=6, seed=i, tol=1e-6)
    got = mf.em_fit_continuous(stream, 2, cfg, fine_dt=1.0 / slots, to_generator=False)
    assert_same_fit(got, reference_em_fit_continuous(stream, 2, cfg, 1.0 / slots))
