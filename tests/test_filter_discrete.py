import numpy as np
import pytest

import migfilter as mf
from migfilter.errors import DataError, ImpossibleObservationError

from conftest import enumerate_reference, random_instance


def tracked_step(start, trans, jump, d_n, y):
    """``run_filter`` over one step of a single tracked transition: ``d_n``
    of ``y`` performing entities default, and state ``h``'s law row is
    ``[1 - jump[h], jump[h]]`` (default absorbs).  Returns the filtered law
    after the step."""
    law = mf.MigrationLaw(np.array([[[1 - q, q], [0.0, 1.0]] for q in jump]))
    panel = mf.MigrationPanel(np.array([[y, 0]]), np.array([[[y - d_n, d_n], [0, 0]]]))
    return mf.run_filter(panel, mf.HiddenFactorSpec(start, trans), law).probs[1]


def one_step(start, trans, law, d_n, y):
    """``run_filter`` over a one-step panel; the filtered law after it."""
    panel = mf.MigrationPanel(np.asarray(y)[None], np.asarray(d_n)[None])
    return mf.run_filter(panel, mf.HiddenFactorSpec(start, trans), law).probs[1]


class TestTrackedTransition:
    """One tracked transition is the binomial filter: ``run_filter`` on a
    two-rating panel (performing, default)."""

    def test_single_state_stays_degenerate(self):
        out = tracked_step(np.array([1.0]), np.array([[1.0]]), [0.2], 3, 10)
        np.testing.assert_array_equal(out, [1.0])

    def test_equal_jump_probs_reduce_to_prior_evolution(self):
        start, trans = np.array([0.6, 0.4]), np.array([[0.7, 0.3], [0.1, 0.9]])
        out = tracked_step(start, trans, [0.15, 0.15], 2, 9)
        np.testing.assert_allclose(out, trans.T @ start, atol=1e-14)

    def test_hand_bayes_example(self):
        out = tracked_step(np.array([0.5, 0.5]), np.eye(2), [0.1, 0.3], 1, 1)
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-14)

    def test_more_jumps_than_exposure_rejected(self):
        with pytest.raises(DataError):
            tracked_step(np.array([1.0]), np.array([[1.0]]), [0.2], 3, 2)

    def test_impossible_observation_raises(self):
        with pytest.raises(ImpossibleObservationError):
            tracked_step(np.array([0.5, 0.5]), np.eye(2), [0.0, 0.0], 1, 4)

    def test_binomial_weights_match_enumeration(self, rng):
        # the step must equal Bayes over the two-outcome-per-entity model
        for _ in range(20):
            m = int(rng.integers(2, 4))
            probs = rng.dirichlet(np.ones(m))
            trans = rng.dirichlet(np.ones(m), size=m)
            jump = rng.uniform(0.05, 0.6, size=m)
            y = int(rng.integers(1, 6))
            d_n = int(rng.integers(0, y + 1))
            out = tracked_step(probs, trans, jump, d_n, y)
            weights = jump**d_n * (1 - jump) ** (y - d_n)
            posterior = weights * probs
            posterior /= posterior.sum()
            np.testing.assert_allclose(out, trans.T @ posterior, atol=1e-12)


class TestOneStepPanel:
    def test_identical_laws_reduce_to_prior_evolution(self):
        mat = np.array([[0.9, 0.1], [0.2, 0.8]])
        law = mf.MigrationLaw(np.array([mat, mat]))
        start, trans = np.array([0.35, 0.65]), np.array([[0.6, 0.4], [0.3, 0.7]])
        out = one_step(start, trans, law, np.array([[5, 1], [2, 4]]), np.array([6, 6]))
        np.testing.assert_allclose(out, trans.T @ start, atol=1e-14)

    def test_hand_bayes_example(self):
        law = mf.MigrationLaw(
            np.array([[[0.99, 0.01], [0.5, 0.5]], [[0.95, 0.05], [0.5, 0.5]]])
        )
        out = one_step(
            np.array([0.5, 0.5]), np.eye(2), law, np.array([[0, 1], [0, 0]]), np.array([1, 0])
        )
        np.testing.assert_allclose(out, [1 / 6, 5 / 6], atol=1e-12)

    def test_output_always_on_simplex(self, rng):
        for _ in range(30):
            panel, factor, law = random_instance(rng, steps=1)
            out = mf.run_filter(panel, factor, law).probs[1]
            assert np.all(out >= 0)
            assert abs(out.sum() - 1) < 1e-10

    def test_impossible_transition_reported(self):
        law = mf.MigrationLaw(np.array([[[1.0, 0.0], [0.0, 1.0]]] * 2))
        with pytest.raises(ImpossibleObservationError):
            one_step(
                np.array([0.5, 0.5]), np.eye(2), law, np.array([[0, 1], [0, 0]]), np.array([1, 0])
            )

    def test_zero_count_cells_ignore_zero_probability(self):
        # a zero law entry only matters when its count is positive
        law = mf.MigrationLaw(np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.9, 0.1], [0.1, 0.9]]]))
        out = one_step(
            np.array([0.5, 0.5]), np.eye(2), law, np.array([[2, 0], [0, 1]]), np.array([2, 1])
        )
        # state 0 explains staying better (prob 1 vs 0.81 * 0.9)
        assert out[0] > out[1]


class TestRunFilter:
    def test_empty_panel_returns_initial_state(self):
        factor, law = mf.demo_model(2, 2)
        panel = mf.MigrationPanel(np.empty((0, 2), dtype=int), np.empty((0, 2, 2), dtype=int))
        traj = mf.run_filter(panel, factor, law)
        assert traj.n_steps == 0
        assert traj.loglik == 0.0
        np.testing.assert_array_equal(traj.states[0].probs, factor.pi)

    def test_matches_exhaustive_bayes_enumeration(self, rng):
        for _ in range(8):
            panel, factor, law = random_instance(rng)
            ref = enumerate_reference(panel, factor.pi, factor.trans, law.per_state)
            traj = mf.run_filter(panel, factor, law)
            assert np.abs(traj.probs_matrix() - ref["filtered"]).max() < 1e-10
            assert abs(traj.loglik - ref["loglik"]) < 1e-10

    def test_loglik_matches_forward_pass(self, rng):
        for _ in range(10):
            panel, factor, law = random_instance(rng, steps=int(rng.integers(2, 10)))
            traj = mf.run_filter(panel, factor, law)
            fwd = mf.forward_pass(panel, factor, law)
            assert abs(traj.loglik - fwd.loglik) < 1e-8 * max(1, abs(fwd.loglik))

    def test_step_likelihood_below_double_range_is_not_impossible(self):
        # the only state with prior mass trails the best one by ~6,200 nats:
        # exp of that gap underflows, yet the step is possible
        factor = mf.HiddenFactorSpec(np.array([1.0, 0.0]), np.eye(2))
        law = mf.MigrationLaw(
            np.array([[[1 - 1e-3, 1e-3], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]])
        )
        panel = mf.MigrationPanel(np.array([[1000, 0]]), np.array([[[0, 1000], [0, 0]]]))
        traj = mf.run_filter(panel, factor, law)
        assert traj.loglik == mf.forward_pass(panel, factor, law).loglik
        assert traj.loglik == pytest.approx(1000 * np.log(1e-3), rel=1e-12)
        np.testing.assert_array_equal(traj.states[1].probs, [1.0, 0.0])

    def test_uninformative_law_reduces_to_chain_marginals(self):
        mat = np.array([[0.9, 0.1], [0.3, 0.7]])
        law = mf.MigrationLaw(np.array([mat, mat, mat]))
        factor = mf.HiddenFactorSpec(
            np.array([0.2, 0.5, 0.3]),
            np.array([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.25, 0.25, 0.5]]),
        )
        cfg = mf.SimulationConfig(np.array([10, 10]), 6, seed=2)
        panel, _ = mf.simulate_panel_discrete(
            mf.HiddenFactorSpec(np.array([1.0]), np.array([[1.0]])),
            mf.MigrationLaw(mat[None]),
            cfg,
        )
        traj = mf.run_filter(panel, factor, law)
        expected = factor.pi
        for t, state in enumerate(traj.states):
            np.testing.assert_allclose(state.probs, expected, atol=1e-12)
            expected = factor.trans.T @ expected

    def test_permutation_equivariance(self, rng):
        panel, factor, law = random_instance(rng, m=3, steps=5)
        perm = np.array([2, 0, 1])
        factor_p = mf.HiddenFactorSpec(
            factor.pi[perm], factor.trans[np.ix_(perm, perm)], factor.mode
        )
        law_p = mf.MigrationLaw(law.per_state[perm], law.mode)
        a = mf.run_filter(panel, factor, law).probs_matrix()
        b = mf.run_filter(panel, factor_p, law_p).probs_matrix()
        np.testing.assert_allclose(a[:, perm], b, atol=1e-12)

    def test_forecasts_are_stochastic_and_lagged(self, rng):
        panel, factor, law = random_instance(rng, steps=6)
        traj = mf.run_filter(panel, factor, law)
        np.testing.assert_allclose(
            traj.predicted_ratios.sum(axis=2), 1.0, atol=1e-12
        )
        # forecast for step 0 is the pi-mixture: issued before any data
        np.testing.assert_allclose(
            traj.predicted_ratios[0],
            mf.predict_transition_probs(law, factor.pi),
            atol=1e-14,
        )

    def test_forecasts_are_predict_transition_probs_of_the_rows(self, rng):
        panel, factor, law = random_instance(rng, steps=6)
        traj = mf.run_filter(panel, factor, law)
        want = mf.predict_transition_probs(law, traj.probs[:-1])
        assert traj.predicted_ratios.tobytes() == want.tobytes()

    def test_tracking_majority_on_separated_regimes(self):
        factor, law = mf.demo_model(3, 3, spread=8.0)
        cfg = mf.SimulationConfig(np.array([300, 300, 300]), 300, seed=15)
        panel, path = mf.simulate_panel_discrete(factor, law, cfg)
        traj = mf.run_filter(panel, factor, law)
        # state at n is inferred from data through step n; step n is driven
        # by the state at n - 1, hence compare argmax against path[n]
        guesses = np.array([np.argmax(s.probs) for s in traj.states])
        accuracy = np.mean(guesses[1:] == path[1 : panel.steps + 1])
        assert accuracy > 0.6
