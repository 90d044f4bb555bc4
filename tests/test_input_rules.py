"""Every consumer refuses a (factor, law) pair that is not one valid model
of its mode, data of the wrong size, an inconsistent event stream and a
scalar setting that breaks its rule: each case raises the package's own
error instead of returning or failing inside numpy."""

import datetime as dt

import numpy as np
import pytest

import migfilter as mf
from migfilter.errors import DataError, ModelError

DF, DL = mf.demo_model(2, 3)
CF, CL = mf.demo_model(2, 3, mode=mf.Mode.CONTINUOUS)
DL3 = mf.demo_model(3, 3)[1]
CL3 = mf.demo_model(3, 3, mode=mf.Mode.CONTINUOUS)[1]
# two ratings, for the hand-written streams
CF2, CL2 = mf.demo_model(2, 2, mode=mf.Mode.CONTINUOUS)
DL22 = mf.demo_model(2, 2)[1]
CL22 = mf.demo_model(2, 2, mode=mf.Mode.CONTINUOUS)[1]

PANEL, _ = mf.simulate_panel_discrete(DF, DL, mf.SimulationConfig(np.array([5, 5, 5]), 3, seed=0))
STREAM, _ = mf.simulate_events_continuous(
    CF, CL, mf.SimulationConfig(np.array([5, 5, 5]), 5.0, seed=0, mode=mf.Mode.CONTINUOUS)
)
D_CONFIG = mf.SimulationConfig(np.array([50, 50, 50]), 20, seed=1)
C_CONFIG = mf.SimulationConfig(np.array([50, 50, 50]), 20.0, seed=1, mode=mf.Mode.CONTINUOUS)


def empty_departure_stream():
    """The one event leaves rating 1, which holds nobody."""
    return mf.EventStream([0.5], [1], [0], [2, 0], 1.0)


def outside_override_stream():
    """Overrides before time 0 and past the horizon."""
    return mf.EventStream(
        [], [], [], [2, 2], 1.0, boundary_times=[-3.0, 7.0], boundary_exposures=[[9, 9], [1, 1]]
    )


def run_filter(factor, law):
    return lambda: mf.run_filter(PANEL, factor, law)


def law_with_row(row):
    """``DL`` with state 1's rating-0 row replaced by ``row``."""
    per_state = DL.per_state.copy()
    per_state[1, 0] = row
    return mf.MigrationLaw(per_state)


def factor_with(factor, pi=None, trans=None):
    """``factor`` with its initial law or its transition matrix replaced."""
    return mf.HiddenFactorSpec(
        factor.pi if pi is None else pi,
        factor.trans if trans is None else trans,
        mode=factor.mode,
    )


def generator_with_rate(rate):
    """``CL`` with state 1's rating-0 -> rating-1 intensity set to ``rate``
    (and its diagonal following)."""
    per_state = CL.per_state.copy()
    per_state[1, 0, 0] += per_state[1, 0, 1] - rate
    per_state[1, 0, 1] = rate
    return mf.MigrationLaw(per_state, mode=mf.Mode.CONTINUOUS)


NAN_LAW = law_with_row([np.nan, 0.5, 0.5])


def scan(name, factor, law, panel=PANEL):
    """``forward_pass``, ``backward_pass`` or ``posteriors`` (whose forward
    and backward results come from the valid model)."""
    if name == "posteriors":
        fwd, bwd = mf.forward_pass(PANEL, DF, DL), mf.backward_pass(PANEL, DF, DL)
        return lambda: mf.posteriors(fwd, bwd, panel, factor, law)
    return lambda: getattr(mf, name)(panel, factor, law)


def run_continuous(factor, law, stream=lambda: STREAM):
    # the stream is built inside the call: a bad one is refused on construction
    return lambda: mf.run_continuous_filter(stream(), factor, law, 0.1, 1.0)


def simulate_panel(factor, law):
    return lambda: mf.simulate_panel_discrete(factor, law, D_CONFIG)


def simulate_events(factor, law):
    return lambda: mf.simulate_events_continuous(factor, law, C_CONFIG)


CASES = {
    "run_filter-continuous-factor": (ModelError, run_filter(CF, DL)),
    "run_filter-continuous-law": (ModelError, run_filter(DF, CL)),
    "run_filter-state-count": (ModelError, run_filter(DF, DL3)),
    "run_continuous-discrete-factor": (ModelError, run_continuous(DF, CL)),
    "run_continuous-discrete-law": (ModelError, run_continuous(CF, DL)),
    "run_continuous-state-count": (ModelError, run_continuous(CF, CL3)),
    "run_continuous-empty-departure": (
        DataError, run_continuous(CF2, CL2, empty_departure_stream)
    ),
    "run_continuous-outside-override": (
        DataError, run_continuous(CF2, CL2, outside_override_stream)
    ),
    "stream_to_panel-outside-override": (
        DataError, lambda: mf.stream_to_panel(outside_override_stream(), 1.0)
    ),
    "simulate_panel-continuous-factor": (ModelError, simulate_panel(CF, DL)),
    "simulate_panel-continuous-law": (ModelError, simulate_panel(DF, CL)),
    "simulate_panel-state-count": (ModelError, simulate_panel(DF, DL3)),
    "simulate_events-discrete-factor": (ModelError, simulate_events(DF, CL)),
    "simulate_events-discrete-law": (ModelError, simulate_events(CF, DL)),
    "simulate_events-state-count": (ModelError, simulate_events(CF, CL3)),
}


@pytest.mark.parametrize("error, call", list(CASES.values()), ids=list(CASES))
def test_mismatch_is_refused(error, call):
    with pytest.raises(error):
        call()


NAMED_CASES = {
    **{
        f"{name}-{case}": (name, scan(name, *model))
        for name in ("forward_pass", "backward_pass", "posteriors")
        for case, model in (
            ("continuous-factor", (CF, DL)),
            ("continuous-law", (DF, CL)),
            ("state-count", (DF, DL3)),
            ("rating-count", (DF, DL22)),
            ("law-entry-nan", (DF, NAN_LAW)),
        )
    },
    "run_filter-rating-count": ("run_filter", run_filter(DF, DL22)),
    **{
        f"run_filter-law-entry-{case}": ("run_filter", run_filter(DF, law_with_row(row)))
        for case, row in (
            ("above-one", [0.0, 1.5, 0.0]),
            ("below-zero", [-0.5, 1.5, 0.0]),
            ("nan", [np.nan, 0.5, 0.5]),
        )
    },
    "run_filter-factor-entry-nan": ("run_filter", run_filter(factor_with(DF, pi=[np.nan, 1.0]), DL)),
    "run_filter-trans-row-sum": (
        "run_filter", run_filter(factor_with(DF, trans=[[0.5, 0.6], [0.2, 0.8]]), DL)
    ),
    "run_continuous-rating-count": ("run_continuous_filter", run_continuous(CF, CL22)),
    "run_continuous-negative-rate": (
        "run_continuous_filter", run_continuous(CF, generator_with_rate(-0.01))
    ),
    "run_continuous-law-entry-nan": (
        "run_continuous_filter", run_continuous(CF, generator_with_rate(np.nan))
    ),
    "run_continuous-factor-entry-inf": (
        "run_continuous_filter",
        run_continuous(factor_with(CF, trans=[[-np.inf, np.inf], [0.1, -0.1]]), CL),
    ),
    "simulate_panel_discrete-rating-count": ("simulate_panel_discrete", simulate_panel(DF, DL22)),
    "simulate_events_continuous-rating-count": (
        "simulate_events_continuous", simulate_events(CF, CL22)
    ),
    "simulate_panel_discrete-law-entry-nan": ("simulate_panel_discrete", simulate_panel(DF, NAN_LAW)),
    "simulate_events_continuous-law-entry-nan": (
        "simulate_events_continuous", simulate_events(CF, generator_with_rate(np.nan))
    ),
    "simulate_hidden_path-factor-entry-nan": (
        "simulate_hidden_path",
        lambda: mf.simulate_hidden_path(factor_with(DF, pi=[np.nan, 1.0]), D_CONFIG),
    ),
    "predict_transition_probs-law-entry-nan": (
        "predict_transition_probs",
        lambda: mf.predict_transition_probs(NAN_LAW, np.array([0.5, 0.5])),
    ),
    "predict_transition_probs-state-entry-nan": (
        "predict_transition_probs",
        lambda: mf.predict_transition_probs(DL, np.array([np.nan, 1.0])),
    ),
    "predict_transition_probs-state-sum": (
        "predict_transition_probs",
        lambda: mf.predict_transition_probs(DL, np.array([0.9, 0.9])),
    ),
}


@pytest.mark.parametrize("caller, call", list(NAMED_CASES.values()), ids=list(NAMED_CASES))
def test_wrong_model_or_data_size_is_refused_naming_the_caller(caller, call):
    with pytest.raises(ModelError, match=f"^{caller}: "):
        call()


def posteriors_of(fwd_steps, bwd_steps):
    """``posteriors`` on ``PANEL`` (3 steps) with forward and backward
    results from panels of the given step counts."""
    def call():
        runs = {}
        for steps in {fwd_steps, bwd_steps}:
            config = mf.SimulationConfig(np.array([5, 5, 5]), steps, seed=0)
            runs[steps], _ = mf.simulate_panel_discrete(DF, DL, config)
        fwd = mf.forward_pass(runs[fwd_steps], DF, DL)
        bwd = mf.backward_pass(runs[bwd_steps], DF, DL)
        return mf.posteriors(fwd, bwd, PANEL, DF, DL)

    return call


def m_step_with(steps, prev_law):
    """``m_step`` on ``PANEL`` (3 steps, 3 ratings) with posteriors from a
    panel of ``steps`` steps and the previous law ``prev_law``."""
    def call():
        config = mf.SimulationConfig(np.array([5, 5, 5]), steps, seed=0)
        panel, _ = mf.simulate_panel_discrete(DF, DL, config)
        u, v = mf.posteriors(
            mf.forward_pass(panel, DF, DL), mf.backward_pass(panel, DF, DL), panel, DF, DL
        )
        return mf.m_step(u, v, PANEL, prev_law, floor=1e-12)

    return call


DATA_CASES = {
    "posteriors-longer-passes": ("posteriors", posteriors_of(5, 5)),
    "posteriors-longer-backward": ("posteriors", posteriors_of(3, 5)),
    "posteriors-shorter-passes": ("posteriors", posteriors_of(2, 2)),
    "m_step-longer-posteriors": ("m_step", m_step_with(5, DL)),
    "m_step-prev-law-rating-count": ("m_step", m_step_with(3, DL22)),
}


@pytest.mark.parametrize("caller, call", list(DATA_CASES.values()), ids=list(DATA_CASES))
def test_mismatched_or_fractional_data_is_refused_naming_the_caller(caller, call):
    with pytest.raises(DataError, match=f"^{caller}: "):
        call()


def test_whole_valued_float_counts_are_accepted():
    floats = mf.MigrationPanel(PANEL.exposures.astype(float), PANEL.counts.astype(float))
    want = mf.run_filter(PANEL, DF, DL)
    got = mf.run_filter(floats, DF, DL)
    np.testing.assert_array_equal(got.probs, want.probs)
    assert got.loglik == want.loglik


# Scalar settings: a count or a seed is a whole number (whole-valued floats
# included, seeds from 0), a step length positive and finite.
BACKTEST_PANEL, _ = mf.simulate_panel_discrete(
    DF, DL, mf.SimulationConfig(np.array([20, 20, 20]), 16, seed=2)
)
PATHS = mf.RatingPaths(
    {"x": ((dt.date(2005, 1, 1), "A"), (dt.date(2005, 2, 20), "B"))}, ("A", "B"), "W"
)
ONE_RESTART = mf.EmConfig(restarts=1, max_iters=2)


def fit_continuous(m):
    return lambda: mf.em_fit_continuous(
        mf.EventStream([0.5], [0], [1], [2, 2], 2.0), m, ONE_RESTART, fine_dt=1.0
    )


SETTING_CASES = {
    **{
        f"{name}-seed-{seed}": (make, f"seed must be a whole number of at least 0, got {seed!r}")
        for seed in (1.5, -1)
        for name, make in (
            ("EmConfig", lambda seed=seed: mf.EmConfig(seed=seed)),
            ("SimulationConfig", lambda seed=seed: mf.SimulationConfig(np.array([1]), 3, seed)),
            ("SpreadConfig", lambda seed=seed: mf.SpreadConfig(4, seed=seed)),
        )
    },
    "em_fit-m": (
        lambda: mf.em_fit(PANEL, 2.5, ONE_RESTART), "m must be a whole number of at least 1, got 2.5"
    ),
    "em_fit_continuous-m": (fit_continuous(2.5), "m must be a whole number of at least 1, got 2.5"),
    "rolling_backtest-initial_steps": (
        lambda: mf.rolling_backtest(BACKTEST_PANEL, 2, ONE_RESTART, 10.5, 5),
        "initial_steps must be a whole number of at least 1, got 10.5",
    ),
    "rolling_backtest-refit_every": (
        lambda: mf.rolling_backtest(BACKTEST_PANEL, 2, ONE_RESTART, 10, 2.5),
        "refit_every must be a whole number of at least 1, got 2.5",
    ),
    "build_panel-num_steps-fraction": (
        lambda: mf.build_panel(PATHS, 7, num_steps=2.5),
        "num_steps must be a whole number of at least 0, got 2.5",
    ),
    "build_panel-num_steps-negative": (
        lambda: mf.build_panel(PATHS, 7, num_steps=-1),
        "num_steps must be a whole number of at least 0, got -1",
    ),
    "build_panel-step_days-text": (
        lambda: mf.build_panel(PATHS, "7"), "step_days must be a whole number of at least 1, got '7'"
    ),
    "run_continuous_filter-grid_dt": (
        lambda: mf.run_continuous_filter(STREAM, CF, CL, 0.0, 1.0),
        "grid_dt must be positive and finite, got 0.0",
    ),
    **{
        f"SimulationConfig-{mode.value}-step_length_days-{step}": (
            lambda mode=mode, step=step: mf.SimulationConfig(
                np.array([3, 3]), 3, 0, mode, step_length_days=step
            ),
            f"step_length_days must be positive and finite, got {step!r}",
        )
        for mode in mf.Mode
        for step in (0, -2)
    },
    "MigrationPanel-step_length_days": (
        lambda: mf.MigrationPanel(PANEL.exposures, PANEL.counts, step_length_days=np.nan),
        "step_length_days must be positive and finite, got nan",
    ),
}


@pytest.mark.parametrize("call, message", list(SETTING_CASES.values()), ids=list(SETTING_CASES))
def test_bad_setting_is_a_data_error_naming_it(call, message):
    with pytest.raises(DataError) as info:
        call()
    assert str(info.value) == message


def test_whole_valued_float_settings_work_as_ints():
    cfg = mf.EmConfig(restarts=2.0, max_iters=3.0, seed=np.float64(4.0))
    assert (cfg.restarts, cfg.max_iters, cfg.seed) == (2, 3, 4)
    assert all(type(x) is int for x in (cfg.restarts, cfg.max_iters, cfg.seed))
    want, got = mf.em_fit(PANEL, 2, cfg), mf.em_fit(PANEL, 2.0, cfg)
    assert got.to_json() == want.to_json()
    assert fit_continuous(2.0)().to_json() == fit_continuous(2)().to_json()
    want = mf.rolling_backtest(BACKTEST_PANEL, 2, ONE_RESTART, 10, 5)
    got = mf.rolling_backtest(BACKTEST_PANEL, 2, ONE_RESTART, 10, np.float64(5.0))
    assert got.to_json() == want.to_json()
    assert mf.SimulationConfig(np.array([1]), 3, seed=1.0).seed == 1
    assert mf.SpreadConfig(4.0, seed=2.0) == mf.SpreadConfig(4, seed=2)
