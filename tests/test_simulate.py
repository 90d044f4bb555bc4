import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import migfilter as mf
from migfilter.errors import DataError, ModelError
from migfilter.model import (
    EventStream,
    HiddenFactorSpec,
    MigrationLaw,
    MigrationPanel,
    Mode,
    _check_model,
)
from migfilter.simulate import PiecewisePath, SimulationConfig, _pairwise_sum


class TestHiddenPath:
    def test_single_state_is_constant(self):
        factor = mf.HiddenFactorSpec(np.array([1.0]), np.array([[1.0]]))
        cfg = mf.SimulationConfig(np.array([5]), 20, seed=0)
        path = mf.simulate_hidden_path(factor, cfg)
        assert np.all(path == 0)

    def test_identity_chain_freezes_initial_draw(self):
        factor = mf.HiddenFactorSpec(np.array([0.4, 0.6]), np.eye(2))
        cfg = mf.SimulationConfig(np.array([5]), 50, seed=3)
        path = mf.simulate_hidden_path(factor, cfg)
        assert np.all(path == path[0])

    def test_occupation_matches_stationary_law(self):
        # stationary law of rows (0.9,0.1)/(0.2,0.8) solves pi K = pi: (2/3, 1/3)
        factor = mf.HiddenFactorSpec(
            np.array([0.5, 0.5]), np.array([[0.9, 0.1], [0.2, 0.8]])
        )
        cfg = mf.SimulationConfig(np.array([1]), 100_000, seed=11)
        path = mf.simulate_hidden_path(factor, cfg)
        occupation = np.mean(path == 0)
        assert abs(occupation - 2 / 3) < 0.01

    def test_continuous_path_holding_rates(self):
        gen = np.array([[-2.0, 2.0], [0.5, -0.5]])
        factor = mf.HiddenFactorSpec(np.array([1.0, 0.0]), gen, mode=mf.Mode.CONTINUOUS)
        cfg = mf.SimulationConfig(np.array([1]), 4000.0, seed=5, mode=mf.Mode.CONTINUOUS)
        path = mf.simulate_hidden_path(factor, cfg)
        holds = np.diff(path.times)
        mean0 = holds[path.states[:-1] == 0].mean()
        mean1 = holds[path.states[:-1] == 1].mean()
        assert abs(mean0 - 0.5) < 0.05
        assert abs(mean1 - 2.0) < 0.2

    def test_mode_mismatch_rejected(self):
        factor = mf.HiddenFactorSpec(np.array([1.0]), np.array([[1.0]]))
        cfg = mf.SimulationConfig(np.array([5]), 10.0, seed=0, mode=mf.Mode.CONTINUOUS)
        with pytest.raises(ModelError):
            mf.simulate_hidden_path(factor, cfg)

    def test_jump_with_nowhere_to_go_names_the_caller(self):
        # exit rate 1e-13 with no off-diagonal intensity: a valid generator
        # (rows sum to 0 within 1e-12) whose clock fires over a long horizon
        gen = np.array([[-1e-13, 0.0], [0.0, 0.0]])
        factor = mf.HiddenFactorSpec(np.array([1.0, 0.0]), gen, mode=mf.Mode.CONTINUOUS)
        law = mf.MigrationLaw(np.zeros((2, 1, 1)), mode=mf.Mode.CONTINUOUS)
        cfg = mf.SimulationConfig(np.array([5]), 1e300, seed=0, mode=mf.Mode.CONTINUOUS)
        message = "factor state 0 has a positive exit rate but no off-diagonal intensity"
        with pytest.raises(ModelError, match=f"^simulate_hidden_path: {message}$"):
            mf.simulate_hidden_path(factor, cfg)
        with pytest.raises(ModelError, match=f"^simulate_events_continuous: {message}$"):
            mf.simulate_events_continuous(factor, law, cfg)


class TestConfigMode:
    def test_panel_simulator_names_itself(self):
        factor, law = mf.demo_model(2, 2)
        cfg = mf.SimulationConfig(np.array([5, 5]), 10.0, seed=0, mode=mf.Mode.CONTINUOUS)
        with pytest.raises(
            ModelError, match="^simulate_panel_discrete: needs a discrete config, got continuous$"
        ):
            mf.simulate_panel_discrete(factor, law, cfg)

    def test_event_simulator_names_itself(self):
        factor, law = mf.demo_model(2, 2, mode=mf.Mode.CONTINUOUS)
        cfg = mf.SimulationConfig(np.array([5, 5]), 10, seed=0)
        with pytest.raises(
            ModelError,
            match="^simulate_events_continuous: needs a continuous config, got discrete$",
        ):
            mf.simulate_events_continuous(factor, law, cfg)


class TestPanelSimulation:
    def test_identity_law_keeps_everyone_in_place(self):
        factor = mf.HiddenFactorSpec(np.array([0.5, 0.5]), np.eye(2))
        law = mf.MigrationLaw(np.array([np.eye(3)] * 2))
        cfg = mf.SimulationConfig(np.array([4, 5, 6]), 10, seed=1)
        panel, _ = mf.simulate_panel_discrete(factor, law, cfg)
        assert np.all(panel.exposures == [4, 5, 6])
        off = ~np.eye(3, dtype=bool)
        assert panel.counts[:, off].sum() == 0

    def test_deterministic_alternation(self):
        factor = mf.HiddenFactorSpec(np.array([1.0]), np.array([[1.0]]))
        law = mf.MigrationLaw(np.array([[[0.0, 1.0], [1.0, 0.0]]]))
        cfg = mf.SimulationConfig(np.array([1, 0]), 4, seed=0)
        panel, _ = mf.simulate_panel_discrete(factor, law, cfg)
        np.testing.assert_array_equal(panel.exposures, [[1, 0], [0, 1], [1, 0], [0, 1]])

    def test_single_state_jump_frequency(self):
        # jumpers return next step so the source exposure stays near 1000;
        # each step ratio is binomial(Y_t, 0.1)/Y_t, so the 500-step mean has
        # sd ~ sqrt(0.1*0.9/900/500) ~ 4.5e-4 and sits deep inside the band
        factor = mf.HiddenFactorSpec(np.array([1.0]), np.array([[1.0]]))
        law = mf.MigrationLaw(np.array([[[0.9, 0.1], [1.0, 0.0]]]))
        cfg = mf.SimulationConfig(np.array([1000, 0]), 500, seed=21)
        panel, _ = mf.simulate_panel_discrete(factor, law, cfg)
        ratios = panel.counts[:, 0, 1] / panel.exposures[:, 0]
        assert 0.095 < ratios.mean() < 0.105

    def test_conservation_always_holds(self, rng):
        for _ in range(20):
            m, p = int(rng.integers(1, 4)), int(rng.integers(2, 4))
            factor = mf.HiddenFactorSpec(
                rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(m), size=m)
            )
            law = mf.MigrationLaw(rng.dirichlet(np.ones(p), size=(m, p)))
            cfg = mf.SimulationConfig(
                rng.integers(0, 30, size=p) + np.eye(p, dtype=int)[0],
                int(rng.integers(1, 12)),
                seed=int(rng.integers(2**31)),
            )
            panel, _ = mf.simulate_panel_discrete(factor, law, cfg)
            np.testing.assert_array_equal(panel.counts.sum(axis=2), panel.exposures)

    def test_seed_determinism(self):
        factor, law = mf.demo_model(2, 3)
        cfg = mf.SimulationConfig(np.array([100, 100, 100]), 30, seed=77)
        a_panel, a_path = mf.simulate_panel_discrete(factor, law, cfg)
        b_panel, b_path = mf.simulate_panel_discrete(factor, law, cfg)
        np.testing.assert_array_equal(a_panel.counts, b_panel.counts)
        np.testing.assert_array_equal(a_panel.exposures, b_panel.exposures)
        np.testing.assert_array_equal(a_path, b_path)

    def test_single_state_frequencies_converge_to_law(self):
        # m = 1 panel is a plain time-homogeneous chain sample; check each
        # off-diagonal frequency within 3 sigma of its cell probability
        mat = np.array([[0.95, 0.03, 0.02], [0.05, 0.9, 0.05], [0.01, 0.04, 0.95]])
        factor = mf.HiddenFactorSpec(np.array([1.0]), np.array([[1.0]]))
        law = mf.MigrationLaw(mat[None, :, :])
        cfg = mf.SimulationConfig(np.array([400, 400, 400]), 200, seed=9)
        panel, _ = mf.simulate_panel_discrete(factor, law, cfg)
        exposure = panel.exposures.sum(axis=0)
        freq = panel.counts.sum(axis=0) / exposure[:, None]
        for j in range(3):
            for k in range(3):
                sigma = np.sqrt(mat[j, k] * (1 - mat[j, k]) / exposure[j])
                assert abs(freq[j, k] - mat[j, k]) < 3.5 * sigma


class TestEventSimulation:
    def test_zero_intensity_gives_empty_stream(self):
        factor = mf.HiddenFactorSpec(
            np.array([1.0]), np.array([[0.0]]), mode=mf.Mode.CONTINUOUS
        )
        law = mf.MigrationLaw(np.zeros((1, 2, 2)), mode=mf.Mode.CONTINUOUS)
        cfg = mf.SimulationConfig(np.array([10, 10]), 50.0, seed=0, mode=mf.Mode.CONTINUOUS)
        stream, _ = mf.simulate_events_continuous(factor, law, cfg)
        assert stream.n_events == 0

    def test_holding_times_in_source_rating_are_exponential(self):
        lam = 0.8
        factor = mf.HiddenFactorSpec(
            np.array([1.0]), np.array([[0.0]]), mode=mf.Mode.CONTINUOUS
        )
        law = mf.MigrationLaw(
            np.array([[[-lam, lam], [5.0, -5.0]]]), mode=mf.Mode.CONTINUOUS
        )
        cfg = mf.SimulationConfig(
            np.array([1, 0]), 30000.0, seed=13, mode=mf.Mode.CONTINUOUS
        )
        stream, _ = mf.simulate_events_continuous(factor, law, cfg)
        enter1 = 0.0
        gaps = []
        for t, j, k in zip(stream.times, stream.sources, stream.targets):
            if j == 0 and k == 1:
                gaps.append(t - enter1)
            else:
                enter1 = t
        gaps = np.array(gaps)
        assert gaps.size > 8000
        assert abs(gaps.mean() - 1 / lam) / (1 / lam) < 0.05
        # exponential shape: sd equals the mean
        assert abs(gaps.std() - 1 / lam) / (1 / lam) < 0.08

    def test_first_event_time_is_superposition_exponential(self):
        # 1000 entities each leaving rating 0 at rate 0.02 -> Exp(20)
        factor = mf.HiddenFactorSpec(
            np.array([1.0]), np.array([[0.0]]), mode=mf.Mode.CONTINUOUS
        )
        law = mf.MigrationLaw(
            np.array([[[-0.02, 0.01, 0.01], [0, 0, 0], [0, 0, 0]]], dtype=float),
            mode=mf.Mode.CONTINUOUS,
        )
        firsts = []
        for seed in range(400):
            cfg = mf.SimulationConfig(
                np.array([1000, 0, 0]), 2.0, seed=seed, mode=mf.Mode.CONTINUOUS
            )
            stream, _ = mf.simulate_events_continuous(factor, law, cfg)
            firsts.append(stream.times[0])
        mean = np.mean(firsts)
        # 3 sigma band around 1/20 over 400 replicates
        assert abs(mean - 0.05) < 3 * 0.05 / np.sqrt(400)

    def test_no_simultaneous_jumps_and_determinism(self):
        factor, law = mf.demo_model(3, 3, mode=mf.Mode.CONTINUOUS)
        cfg = mf.SimulationConfig(
            np.array([200, 200, 200]), 60.0, seed=4, mode=mf.Mode.CONTINUOUS
        )
        a, pa = mf.simulate_events_continuous(factor, law, cfg)
        b, pb = mf.simulate_events_continuous(factor, law, cfg)
        assert a.n_events > 50
        assert np.all(np.diff(a.times) > 0)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.sources, b.sources)
        np.testing.assert_array_equal(pa.times, pb.times)

    def test_aggregate_intensity_matches_exposure_weighted_rates(self):
        # with a frozen hidden state, event counts over a window are Poisson
        # with mean = horizon * sum_j Yـj * rates; check at 4 sigma
        gen = np.array([[0.0]])
        factor = mf.HiddenFactorSpec(np.array([1.0]), gen, mode=mf.Mode.CONTINUOUS)
        ell = np.array([[[-0.03, 0.02, 0.01], [0.01, -0.02, 0.01], [0.005, 0.005, -0.01]]])
        law = mf.MigrationLaw(ell, mode=mf.Mode.CONTINUOUS)
        cfg = mf.SimulationConfig(
            np.array([100, 100, 100]), 8.0, seed=17, mode=mf.Mode.CONTINUOUS
        )
        stream, _ = mf.simulate_events_continuous(factor, law, cfg)
        # exposures shuffle between classes but the total exit rate stays
        # within [0.01, 0.03] per entity; crude conservative band
        rate_lo, rate_hi = 300 * 0.01 * 8.0, 300 * 0.03 * 8.0
        assert rate_lo - 4 * np.sqrt(rate_hi) < stream.n_events < rate_hi + 4 * np.sqrt(rate_hi)


class TestConfigValidation:
    def test_entities_must_be_nonnegative_with_one_positive(self):
        with pytest.raises(DataError):
            mf.SimulationConfig(np.array([0, 0]), 10, seed=0)
        with pytest.raises(DataError):
            mf.SimulationConfig(np.array([-1, 5]), 10, seed=0)

    def test_horizon_must_be_positive(self):
        with pytest.raises(DataError):
            mf.SimulationConfig(np.array([1]), 0, seed=0)

    # only the constructor is called: a simulator given these would not return
    @pytest.mark.parametrize("mode", [mf.Mode.DISCRETE, mf.Mode.CONTINUOUS])
    @pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
    def test_horizon_must_be_finite(self, horizon, mode):
        with pytest.raises(DataError, match="horizon must be positive and finite"):
            mf.SimulationConfig(np.array([1]), horizon, seed=0, mode=mode)

    def test_discrete_horizon_must_be_whole(self):
        with pytest.raises(DataError, match="^horizon must be a whole number of at least 1, got 3.5$"):
            mf.SimulationConfig(np.array([1]), 3.5, seed=0)
        assert mf.SimulationConfig(np.array([1]), 3.0, seed=0).horizon == 3.0
        assert mf.SimulationConfig(np.array([1]), 3.5, seed=0, mode=mf.Mode.CONTINUOUS)


# The simulators as they were before their loops moved to Python floats,
# kept verbatim (bar the names) as the reference the rewrite must match
# byte for byte: the same rng calls give the same draws, and every float is
# computed by the same operations.


def ref_simulate_hidden_path(factor: HiddenFactorSpec, config: SimulationConfig):
    """Sample a trajectory of the hidden factor.

    Discrete mode returns an integer array of length ``horizon + 1``
    (state at each grid time).  Continuous mode returns a
    :class:`PiecewisePath`: holding times are exponential with the diagonal
    exit rate, jump targets proportional to the off-diagonal intensities.
    """
    _check_model("simulate_hidden_path", config.mode, factor, None, None, None)
    rng = np.random.default_rng(config.seed)
    return ref_hidden_path(factor, config, rng)


def ref_hidden_path(factor: HiddenFactorSpec, config: SimulationConfig, rng):
    m = factor.m
    state = int(rng.choice(m, p=factor.pi))
    if factor.mode is Mode.DISCRETE:
        steps = int(config.horizon)
        path = np.empty(steps + 1, dtype=np.int64)
        path[0] = state
        for t in range(1, steps + 1):
            state = int(rng.choice(m, p=factor.trans[state]))
            path[t] = state
        return path
    times = [0.0]
    states = [state]
    t = 0.0
    while True:
        rate = -factor.trans[state, state]
        if rate <= 0.0:
            break
        t += rng.exponential(1.0 / rate)
        if t >= config.horizon:
            break
        state = ref_hidden_jump(factor, state, rng)
        times.append(t)
        states.append(state)
    return PiecewisePath(np.array(times), np.array(states), float(config.horizon))


def ref_hidden_jump(factor: HiddenFactorSpec, state: int, rng) -> int:
    """Draw the state a continuous hidden chain jumps to from ``state``,
    proportional to the off-diagonal intensities."""
    weights = np.where(np.arange(factor.m) == state, 0.0, factor.trans[state])
    return int(rng.choice(factor.m, p=weights / weights.sum()))


def ref_simulate_panel_discrete(
    factor: HiddenFactorSpec, law: MigrationLaw, config: SimulationConfig
) -> tuple[MigrationPanel, np.ndarray]:
    """Simulate an aggregated migration panel for a closed cohort.

    Step ``t`` draws, per rating class ``j``, a multinomial split of the
    ``Y[t, j]`` exposed entities over target ratings with probabilities
    ``law.per_state[theta[t], j]`` — the hidden state at the step's start
    drives the step's moves.  Exposures for ``t + 1`` are the column sums.
    """
    if config.mode is not Mode.DISCRETE:
        raise ModelError("simulate_panel_discrete requires a discrete config")
    _check_model("simulate_panel_discrete", Mode.DISCRETE, factor, law, None, config.p)
    rng = np.random.default_rng(config.seed)
    path = ref_hidden_path(factor, config, rng)
    steps = int(config.horizon)
    p = law.p
    exposures = np.zeros((steps, p), dtype=np.int64)
    counts = np.zeros((steps, p, p), dtype=np.int64)
    y = config.entities_per_rating.astype(np.int64).copy()
    for t in range(steps):
        exposures[t] = y
        mats = law.per_state[path[t]]
        for j in range(p):
            if y[j] > 0:
                counts[t, j] = rng.multinomial(y[j], mats[j])
        y = counts[t].sum(axis=0)
    panel = MigrationPanel(exposures, counts, step_length_days=config.step_length_days)
    return panel, path


def ref_simulate_events_continuous(
    factor: HiddenFactorSpec, law: MigrationLaw, config: SimulationConfig
) -> tuple[EventStream, PiecewisePath]:
    """Simulate individually dated migrations by competing exponential clocks.

    At any instant the live clocks are the hidden factor's exit rate and one
    clock per feasible migration ``(j, k)`` with rate
    ``Y[j] * law.per_state[theta, j, k]``; every event (either kind)
    restarts them all, which is exact for the joint Markov dynamics.  Only
    migrations are emitted in the stream; the hidden path is returned
    alongside.
    """
    if config.mode is not Mode.CONTINUOUS:
        raise ModelError("simulate_events_continuous requires a continuous config")
    _check_model("simulate_events_continuous", Mode.CONTINUOUS, factor, law, None, config.p)
    p = law.p
    rng = np.random.default_rng(config.seed)
    off_diag = ~np.eye(p, dtype=bool)

    theta = int(rng.choice(factor.m, p=factor.pi))
    hidden_times = [0.0]
    hidden_states = [theta]
    y = config.entities_per_rating.astype(np.int64).copy()
    times: list[float] = []
    sources: list[int] = []
    targets: list[int] = []

    t = 0.0
    horizon = float(config.horizon)
    while True:
        mig_rates = y[:, None] * law.per_state[theta]
        mig_rates = np.where(off_diag, mig_rates, 0.0)
        hidden_rate = -factor.trans[theta, theta]
        total = hidden_rate + mig_rates.sum()
        if total <= 0.0:
            break
        t += rng.exponential(1.0 / total)
        if t >= horizon:
            break
        u = rng.uniform(0.0, total)
        if u < hidden_rate:
            theta = ref_hidden_jump(factor, theta, rng)
            hidden_times.append(t)
            hidden_states.append(theta)
        else:
            flat = np.cumsum(mig_rates.ravel())
            idx = int(np.searchsorted(flat, u - hidden_rate, side="right"))
            j, k = divmod(idx, p)
            times.append(t)
            sources.append(j)
            targets.append(k)
            y[j] -= 1
            y[k] += 1
    stream = EventStream(
        times=np.array(times, dtype=float),
        sources=np.array(sources, dtype=np.int64),
        targets=np.array(targets, dtype=np.int64),
        initial_exposures=config.entities_per_rating,
        horizon=horizon,
    )
    path = PiecewisePath(np.array(hidden_times), np.array(hidden_states), horizon)
    return stream, path


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def assert_same_stream(got, want):
    (stream, path), (ref_stream, ref_path) = got, want
    for name in ("times", "sources", "targets"):
        same_bytes(getattr(stream, name), getattr(ref_stream, name))
    same_bytes(path.times, ref_path.times)
    same_bytes(path.states, ref_path.states)


def assert_same_panel(got, want):
    (panel, path), (ref_panel, ref_path) = got, want
    same_bytes(panel.exposures, ref_panel.exposures)
    same_bytes(panel.counts, ref_panel.counts)
    same_bytes(path, ref_path)


def random_rows(rng, rows, cols, keep):
    """Nonnegative rows with about ``1 - keep`` of the entries zero."""
    return rng.exponential(size=(rows, cols)) * (rng.random((rows, cols)) < keep)


def stochastic_rows(rng, rows, cols):
    """Row-stochastic rows with zeros, identity rows (absorbing) included."""
    out = random_rows(rng, rows, cols, rng.uniform(0.3, 1.0))
    for i in range(rows):
        if rng.random() < 0.2 or not out[i].any():
            out[i] = np.eye(cols)[min(i, cols - 1) if rng.random() < 0.5 else rng.integers(cols)]
    return out / out.sum(axis=1, keepdims=True)


def generator_rows(rng, n, scale):
    """An intensity matrix with zeros, all-zero rows (absorbing) included."""
    gen = random_rows(rng, n, n, rng.uniform(0.3, 1.0)) * scale
    gen[rng.random(n) < 0.25] = 0.0
    np.fill_diagonal(gen, 0.0)
    np.fill_diagonal(gen, -gen.sum(axis=1))
    return gen


def cohort(rng, p, most):
    """Entities per rating class, some classes empty, at least one not."""
    sizes = rng.integers(0, most + 1, size=p) * (rng.random(p) < 0.7)
    sizes[rng.integers(p)] += 1
    return sizes


models = st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(0, 2**32 - 1))
seeds = st.integers(0, 2**32 - 1)


def discrete_case(m, p, model_seed, seed):
    rng = np.random.default_rng(model_seed)
    factor = HiddenFactorSpec(stochastic_rows(rng, 1, m)[0], stochastic_rows(rng, m, m))
    law = MigrationLaw(np.stack([stochastic_rows(rng, p, p) for _ in range(m)]))
    return factor, law, SimulationConfig(cohort(rng, p, 50), int(rng.integers(1, 60)), seed)


def continuous_case(m, p, model_seed, seed):
    rng = np.random.default_rng(model_seed)
    pi = stochastic_rows(rng, 1, m)[0]
    factor = HiddenFactorSpec(pi, generator_rows(rng, m, 1.0), mode=Mode.CONTINUOUS)
    law = MigrationLaw(
        np.stack([generator_rows(rng, p, 0.05) for _ in range(m)]), mode=Mode.CONTINUOUS
    )
    horizon = float(rng.uniform(0.5, 80.0))
    config = SimulationConfig(cohort(rng, p, 30), horizon, seed, mode=Mode.CONTINUOUS)
    return factor, law, config


class TestByteIdentity:
    @settings(max_examples=200, deadline=None)
    @given(models, seeds)
    def test_panel_matches_reference(self, model, seed):
        factor, law, config = discrete_case(*model, seed)
        assert_same_panel(
            mf.simulate_panel_discrete(factor, law, config),
            ref_simulate_panel_discrete(factor, law, config),
        )

    @settings(max_examples=200, deadline=None)
    @given(models, seeds)
    def test_discrete_hidden_path_matches_reference(self, model, seed):
        factor, _, config = discrete_case(*model, seed)
        same_bytes(
            mf.simulate_hidden_path(factor, config), ref_simulate_hidden_path(factor, config)
        )

    @settings(max_examples=200, deadline=None)
    @given(models, seeds)
    def test_stream_matches_reference(self, model, seed):
        factor, law, config = continuous_case(*model, seed)
        assert_same_stream(
            mf.simulate_events_continuous(factor, law, config),
            ref_simulate_events_continuous(factor, law, config),
        )

    @settings(max_examples=200, deadline=None)
    @given(models, seeds)
    def test_continuous_hidden_path_matches_reference(self, model, seed):
        factor, _, config = continuous_case(*model, seed)
        path = mf.simulate_hidden_path(factor, config)
        ref_path = ref_simulate_hidden_path(factor, config)
        same_bytes(path.times, ref_path.times)
        same_bytes(path.states, ref_path.states)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bench_size_stream_matches_reference(self, seed):
        factor, law = mf.demo_model(4, 3, mode=Mode.CONTINUOUS, spread=8.0)
        config = SimulationConfig(np.full(3, 300), 200.0, seed, mode=Mode.CONTINUOUS)
        got = mf.simulate_events_continuous(factor, law, config)
        assert got[0].n_events > 500
        assert_same_stream(got, ref_simulate_events_continuous(factor, law, config))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_demo_panel_matches_reference(self, seed):
        factor, law = mf.demo_model(3, 8, spread=8.0)
        config = SimulationConfig(np.full(8, 40), 300, seed)
        assert_same_panel(
            mf.simulate_panel_discrete(factor, law, config),
            ref_simulate_panel_discrete(factor, law, config),
        )

    def test_stream_that_runs_out_of_clocks_matches_reference(self):
        # everyone ends in the absorbing class 1 and the chain in absorbing
        # state 1, so the total rate reaches 0 and the loop ends early
        gen = np.array([[-0.5, 0.5], [0.0, 0.0]])
        factor = HiddenFactorSpec(np.array([1.0, 0.0]), gen, mode=Mode.CONTINUOUS)
        rates = np.array([[[-0.3, 0.3], [0.0, 0.0]], [[-1.0, 1.0], [0.0, 0.0]]])
        law = MigrationLaw(rates, mode=Mode.CONTINUOUS)
        config = SimulationConfig(np.array([40, 3]), 1e6, seed=5, mode=Mode.CONTINUOUS)
        got = mf.simulate_events_continuous(factor, law, config)
        assert got[0].n_events == 40 and got[0].times[-1] < 1e3
        assert_same_stream(got, ref_simulate_events_continuous(factor, law, config))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 23])
def test_pairwise_sum_is_numpy_sum(p):
    """Clock totals of masked (p, p) rate arrays, p**2 from 1 to 81 entries
    (and 144 and 529, past the 128-entry block), over mixed magnitudes,
    zeros and negative zeros."""
    rng = np.random.default_rng(p)
    off = ~np.eye(p, dtype=bool)
    for _ in range(2000):
        rates = rng.exponential(size=(p, p)) * rng.choice([0.0, -0.0, 1e-3, 1.0, 7e4], (p, p))
        rates = np.where(off, rng.integers(0, 300, size=(p, 1)) * rates, 0.0)
        assert np.float64(_pairwise_sum(rates.ravel().tolist())).tobytes() == rates.sum().tobytes()
