"""Every consumer refuses a (factor, law) pair that is not one model of its
mode, a filter state of the wrong width, data of the wrong size and an
inconsistent event stream: each case raises the package's own error instead
of returning or failing inside numpy."""

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

PANEL, _ = mf.simulate_panel_discrete(DF, DL, mf.SimulationConfig(np.array([5, 5, 5]), 3, seed=0))
STREAM, _ = mf.simulate_events_continuous(
    CF, CL, mf.SimulationConfig(np.array([5, 5, 5]), 5.0, seed=0, mode=mf.Mode.CONTINUOUS)
)
D_CONFIG = mf.SimulationConfig(np.array([50, 50, 50]), 20, seed=1)
C_CONFIG = mf.SimulationConfig(np.array([50, 50, 50]), 20.0, seed=1, mode=mf.Mode.CONTINUOUS)
HALF = mf.FilterState(np.array([0.5, 0.5]))
THIRDS = mf.FilterState(np.full(3, 1 / 3))
Y = np.array([5, 5, 5])
D_N = np.diag(Y)


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


def univariate(state, factor):
    return lambda: mf.filter_step_univariate(state, 1, 5, factor, np.array([0.1, 0.2]))


def multivariate(state, factor, law):
    return lambda: mf.filter_step_multivariate(state, D_N, Y, factor, law)


def univariate_probs(jump_probs):
    return lambda: mf.filter_step_univariate(HALF, 1, 5, DF, np.array(jump_probs))


def scan(name, factor, law, panel=PANEL):
    """``forward_pass``, ``backward_pass`` or ``posteriors`` (whose forward
    and backward results come from the valid model)."""
    if name == "posteriors":
        fwd, bwd = mf.forward_pass(PANEL, DF, DL), mf.backward_pass(PANEL, DF, DL)
        return lambda: mf.posteriors(fwd, bwd, panel, factor, law)
    return lambda: getattr(mf, name)(panel, factor, law)


def drift(state, factor, law, exposures=Y):
    return lambda: mf.continuous_drift_step(state, 1.0, factor, law, exposures)


def jump(state, law):
    return lambda: mf.continuous_jump_update(state, (0, 1), law)


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
    "univariate-continuous-factor": (ModelError, univariate(HALF, CF)),
    "univariate-state-width": (ModelError, univariate(THIRDS, DF)),
    "multivariate-continuous-factor": (ModelError, multivariate(HALF, CF, DL)),
    "multivariate-continuous-law": (ModelError, multivariate(HALF, DF, CL)),
    "multivariate-state-count": (ModelError, multivariate(HALF, DF, DL3)),
    "multivariate-state-width": (ModelError, multivariate(THIRDS, DF, DL)),
    "drift-discrete-factor": (ModelError, drift(HALF, DF, CL)),
    "drift-discrete-law": (ModelError, drift(HALF, CF, DL)),
    "drift-state-count": (ModelError, drift(HALF, CF, CL3)),
    "drift-state-width": (ModelError, drift(THIRDS, CF, CL)),
    "drift-exposure-width": (ModelError, drift(HALF, CF, CL, np.array([5]))),
    "jump-discrete-law": (ModelError, jump(HALF, DL)),
    "jump-state-width": (ModelError, jump(THIRDS, CL)),
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
        )
    },
    "run_filter-rating-count": ("run_filter", run_filter(DF, DL22)),
    "multivariate-rating-count": (
        "filter_step_multivariate",
        lambda: mf.filter_step_multivariate(HALF, np.diag([5, 5]), np.array([5, 5]), DF, DL),
    ),
    "univariate-jump-probs-width": ("filter_step_univariate", univariate_probs([0.1])),
    "univariate-jump-prob-above-one": ("filter_step_univariate", univariate_probs([0.1, 1.5])),
    "univariate-jump-prob-below-zero": ("filter_step_univariate", univariate_probs([-0.1, 0.5])),
    "univariate-jump-prob-nan": ("filter_step_univariate", univariate_probs([np.nan, 0.5])),
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


DATA_CASES = {
    "posteriors-longer-passes": ("posteriors", posteriors_of(5, 5)),
    "posteriors-longer-backward": ("posteriors", posteriors_of(3, 5)),
    "posteriors-shorter-passes": ("posteriors", posteriors_of(2, 2)),
    "univariate-fractional-jumps": (
        "filter_step_univariate",
        lambda: mf.filter_step_univariate(HALF, 2.7, 5, DF, np.array([0.1, 0.5])),
    ),
    "univariate-fractional-exposure": (
        "filter_step_univariate",
        lambda: mf.filter_step_univariate(HALF, 2, 5.9, DF, np.array([0.1, 0.5])),
    ),
    "univariate-nan-exposure": (
        "filter_step_univariate",
        lambda: mf.filter_step_univariate(HALF, 2, np.nan, DF, np.array([0.1, 0.5])),
    ),
}


@pytest.mark.parametrize("caller, call", list(DATA_CASES.values()), ids=list(DATA_CASES))
def test_mismatched_or_fractional_data_is_refused_naming_the_caller(caller, call):
    with pytest.raises(DataError, match=f"^{caller}: "):
        call()


def test_whole_valued_float_counts_are_accepted():
    args = (HALF, 2, 5, DF, np.array([0.1, 0.5]))
    want = mf.filter_step_univariate(*args).probs
    got = mf.filter_step_univariate(HALF, 2.0, 5.0, *args[3:]).probs
    np.testing.assert_array_equal(got, want)
