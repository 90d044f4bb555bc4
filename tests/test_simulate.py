import numpy as np
import pytest

import migfilter as mf
from migfilter.errors import DataError, ModelError


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
        with pytest.raises(DataError, match="must be a whole number of steps, got 3.5"):
            mf.SimulationConfig(np.array([1]), 3.5, seed=0)
        assert mf.SimulationConfig(np.array([1]), 3.0, seed=0).horizon == 3.0
        assert mf.SimulationConfig(np.array([1]), 3.5, seed=0, mode=mf.Mode.CONTINUOUS)
