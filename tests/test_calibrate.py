import numpy as np
import pytest

import migfilter as mf
from migfilter import calibrate
from migfilter.calibrate import (
    _em_single,
    _forward,
    _picker_log_weights,
    _random_init,
    m_step,
)
from migfilter.errors import DataError, ImpossibleObservationError, ModelError, NumericalError

from conftest import enumerate_reference, random_instance, random_model


def count_calls(monkeypatch, *names):
    """Count the calls of the ``calibrate`` functions ``names``, which still
    run; the counts fill in the returned dict."""
    calls = dict.fromkeys(names, 0)

    def spy(name):
        real = getattr(calibrate, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    for name in names:
        monkeypatch.setattr(calibrate, name, spy(name))
    return calls


def unscaled_alpha_beta_product(fwd, bwd):
    """log of sum_j alpha_t(j) beta_t(j) with the scale factors restored."""
    inner = (fwd.alpha * bwd.beta).sum(axis=1)
    return np.log(inner) + fwd.log_scale + bwd.log_scale


class TestForwardPass:
    def test_single_state_closed_form(self, rng):
        panel, _, law = random_instance(rng, m=1, steps=5, entities=3)
        factor = mf.HiddenFactorSpec(np.array([1.0]), np.array([[1.0]]))
        with np.errstate(divide="ignore"):
            logl = np.where(law.per_state[0] > 0, np.log(law.per_state[0]), 0.0)
        expected = float((panel.counts * logl[None]).sum())
        fwd = mf.forward_pass(panel, factor, law)
        assert fwd.loglik == pytest.approx(expected, abs=1e-10)

    def test_one_step_base_case_product(self):
        # two entities: one stays in rating 0, one moves 0 -> 1
        pi = np.array([0.3, 0.7])
        trans = np.array([[0.8, 0.2], [0.4, 0.6]])
        per_state = np.array(
            [[[0.9, 0.1], [0.2, 0.8]], [[0.6, 0.4], [0.5, 0.5]]]
        )
        panel = mf.MigrationPanel(np.array([[2, 0]]), np.array([[[1, 1], [0, 0]]]))
        fwd = mf.forward_pass(
            panel, mf.HiddenFactorSpec(pi, trans), mf.MigrationLaw(per_state)
        )
        # entity-level product per state: L[i,0,0] * L[i,0,1]
        base = pi * per_state[:, 0, 0] * per_state[:, 0, 1]
        assert fwd.loglik == pytest.approx(np.log(base.sum()), abs=1e-12)
        np.testing.assert_allclose(fwd.alpha[0], base / base.sum(), atol=1e-12)

    def test_matches_enumeration(self, rng):
        for _ in range(6):
            panel, factor, law = random_instance(rng)
            ref = enumerate_reference(panel, factor.pi, factor.trans, law.per_state)
            fwd = mf.forward_pass(panel, factor, law)
            assert abs(fwd.loglik - ref["loglik"]) < 1e-10

    def test_step_likelihood_below_double_range_is_not_impossible(self):
        # the only state with prior mass explains the step with probability
        # 1e-3000: tiny, not zero
        per_state = np.array([[[0.999, 0.001], [0.001, 0.999]], [[0.5, 0.5], [0.5, 0.5]]])
        factor = mf.HiddenFactorSpec(np.array([1.0, 0.0]), np.eye(2))
        panel = mf.MigrationPanel(np.array([[1000, 0]]), np.array([[[0, 1000], [0, 0]]]))
        fwd = mf.forward_pass(panel, factor, mf.MigrationLaw(per_state))
        assert fwd.loglik == pytest.approx(1000 * np.log(0.001), rel=1e-12)
        np.testing.assert_array_equal(fwd.alpha, [[1.0, 0.0]])

    def test_long_panel_does_not_underflow(self):
        factor, law = mf.demo_model(2, 3)
        cfg = mf.SimulationConfig(np.array([500, 500, 500]), 2000, seed=1)
        panel, _ = mf.simulate_panel_discrete(factor, law, cfg)
        fwd = mf.forward_pass(panel, factor, law)
        assert np.isfinite(fwd.loglik)
        assert np.all(np.isfinite(fwd.alpha))


class TestBackwardPassAndPosteriors:
    def test_zero_step_panel_gives_empty_passes(self, rng):
        _, factor, law = random_instance(rng, m=3, p=2)
        panel = mf.MigrationPanel(np.zeros((0, 2)), np.zeros((0, 2, 2)))
        fwd, bwd = mf.forward_pass(panel, factor, law), mf.backward_pass(panel, factor, law)
        assert (fwd.alpha.shape, fwd.log_scale.shape, fwd.loglik) == ((0, 3), (0,), 0.0)
        assert (bwd.beta.shape, bwd.log_scale.shape) == ((0, 3), (0,))
        u, v = mf.posteriors(fwd, bwd, panel, factor, law)
        assert (u.shape, v.shape) == ((0, 3), (0, 3, 3))

    def test_terminal_column_is_flat(self, rng):
        panel, factor, law = random_instance(rng, steps=4)
        bwd = mf.backward_pass(panel, factor, law)
        np.testing.assert_allclose(bwd.beta[-1], bwd.beta[-1][0], atol=1e-15)

    def test_alpha_beta_product_constant_equals_likelihood(self, rng):
        for _ in range(6):
            panel, factor, law = random_instance(rng, steps=int(rng.integers(2, 7)))
            fwd = mf.forward_pass(panel, factor, law)
            bwd = mf.backward_pass(panel, factor, law)
            logs = unscaled_alpha_beta_product(fwd, bwd)
            np.testing.assert_allclose(logs, fwd.loglik, rtol=1e-9)

    def test_single_state_posteriors_are_all_ones(self, rng):
        panel, _, law = random_instance(rng, m=1, steps=4)
        factor = mf.HiddenFactorSpec(np.array([1.0]), np.array([[1.0]]))
        fwd = mf.forward_pass(panel, factor, law)
        bwd = mf.backward_pass(panel, factor, law)
        u, v = mf.posteriors(fwd, bwd, panel, factor, law)
        np.testing.assert_array_equal(u, np.ones_like(u))
        np.testing.assert_array_equal(v, np.ones_like(v))

    def test_uninformative_observations_give_chain_marginals(self):
        mat = np.array([[0.9, 0.1], [0.3, 0.7]])
        law = mf.MigrationLaw(np.array([mat, mat]))
        factor = mf.HiddenFactorSpec(np.array([0.2, 0.8]), np.array([[0.6, 0.4], [0.1, 0.9]]))
        cfg = mf.SimulationConfig(np.array([5, 5]), 5, seed=0)
        panel, _ = mf.simulate_panel_discrete(
            mf.HiddenFactorSpec(np.array([1.0]), np.array([[1.0]])),
            mf.MigrationLaw(mat[None]),
            cfg,
        )
        fwd = mf.forward_pass(panel, factor, law)
        bwd = mf.backward_pass(panel, factor, law)
        u, _ = mf.posteriors(fwd, bwd, panel, factor, law)
        expected = factor.pi
        for t in range(panel.steps):
            np.testing.assert_allclose(u[t], expected, atol=1e-12)
            expected = factor.trans.T @ expected

    def test_smoothing_matches_enumeration(self, rng):
        for _ in range(6):
            panel, factor, law = random_instance(rng)
            ref = enumerate_reference(panel, factor.pi, factor.trans, law.per_state)
            fwd = mf.forward_pass(panel, factor, law)
            bwd = mf.backward_pass(panel, factor, law)
            u, v = mf.posteriors(fwd, bwd, panel, factor, law)
            assert np.abs(u - ref["u"]).max() < 1e-10
            if panel.steps > 1:
                assert np.abs(v - ref["v"]).max() < 1e-10

    def test_step_impossible_under_every_state_raises(self):
        # rating 1 never moves to 0 in any state, and step 1 has such a move
        per_state = np.array([[[0.9, 0.1], [0.0, 1.0]], [[0.5, 0.5], [0.0, 1.0]]])
        law = mf.MigrationLaw(per_state)
        factor = mf.HiddenFactorSpec(np.array([0.5, 0.5]), np.full((2, 2), 0.5))
        panel = mf.MigrationPanel(
            np.array([[2, 1], [1, 2], [1, 2]]),
            np.array([[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[1, 0], [0, 2]]]),
        )
        for run in (mf.forward_pass, mf.backward_pass):
            with pytest.raises(ImpossibleObservationError) as info:
                run(panel, factor, law)
            assert info.value.time_index == 1

    def test_rows_of_two_panels_are_refused(self):
        # forward rows of one panel and backward rows of another: the
        # smoothed u disagrees with their product
        factor, law = mf.demo_model(2, 3, spread=6.0)
        panel, other = (
            mf.simulate_panel_discrete(
                factor, law, mf.SimulationConfig(np.full(3, 50), 40, seed=seed)
            )[0]
            for seed in (1, 2)
        )
        fwd, bwd = mf.forward_pass(panel, factor, law), mf.backward_pass(other, factor, law)
        with pytest.raises(NumericalError, match="forward and backward rows disagree") as info:
            mf.posteriors(fwd, bwd, panel, factor, law)
        assert info.value.time_index == 3

    def test_product_row_of_zero_sum_is_refused(self):
        # the chain never leaves state 0, but step 1's backward row puts all
        # its mass on state 1
        law = mf.MigrationLaw(np.full((2, 1, 1), 1.0))
        factor = mf.HiddenFactorSpec(np.array([1.0, 0.0]), np.eye(2))
        panel = mf.MigrationPanel(np.ones((3, 1)), np.ones((3, 1, 1)))
        fwd = mf.forward_pass(panel, factor, law)
        bwd = mf.BackwardResult(np.array([[0.5, 0.5], [0.0, 1.0], [0.5, 0.5]]), np.zeros(3))
        with pytest.raises(NumericalError, match="forward and backward rows disagree") as info:
            mf.posteriors(fwd, bwd, panel, factor, law)
        assert info.value.time_index == 1

    def test_pairwise_marginalization(self, rng):
        for _ in range(6):
            panel, factor, law = random_instance(rng, steps=int(rng.integers(2, 7)))
            fwd = mf.forward_pass(panel, factor, law)
            bwd = mf.backward_pass(panel, factor, law)
            u, v = mf.posteriors(fwd, bwd, panel, factor, law)
            np.testing.assert_allclose(v.sum(axis=2), u[:-1], atol=1e-9)
            np.testing.assert_allclose(v.sum(axis=1), u[1:], atol=1e-9)


class TestMStep:
    def test_single_state_gives_empirical_frequencies(self, rng):
        panel, _, _ = random_instance(rng, m=1, p=2, entities=6, steps=6)
        u = np.ones((panel.steps, 1))
        v = np.ones((panel.steps - 1, 1, 1))
        pi, trans, per_state = m_step(u, v, panel, prev_law=np.full((1, 2, 2), 0.5), floor=1e-12)
        totals = panel.counts.sum(axis=0)
        exposure = panel.exposures.sum(axis=0)
        for k in range(2):
            if exposure[k]:
                np.testing.assert_allclose(
                    per_state[0, k], totals[k] / exposure[k], atol=1e-9
                )

    def test_one_step_panel_gives_flat_chain_rows(self, rng):
        panel, factor, law = random_instance(rng, m=3, p=2, entities=4, steps=1)
        fwd, bwd = mf.forward_pass(panel, factor, law), mf.backward_pass(panel, factor, law)
        u, v = mf.posteriors(fwd, bwd, panel, factor, law)
        assert v.shape == (0, 3, 3)
        pi, trans, _ = m_step(u, v, panel, prev_law=law, floor=1e-12)
        np.testing.assert_allclose(pi, u[0], rtol=1e-15)
        np.testing.assert_array_equal(trans, np.full((3, 3), 1 / 3))

    def test_concentrated_posterior_keeps_prior_rows_elsewhere(self):
        panel = mf.MigrationPanel(
            np.array([[3, 1], [3, 1]]), np.array([[[2, 1], [0, 1]], [[3, 0], [1, 0]]])
        )
        u = np.array([[1.0, 0.0], [1.0, 0.0]])
        v = np.array([[[1.0, 0.0], [0.0, 0.0]]])
        prev = mf.MigrationLaw(np.array([np.eye(2), [[0.4, 0.6], [0.7, 0.3]]]))
        _, _, per_state = m_step(u, v, panel, prev_law=prev, floor=1e-12)
        np.testing.assert_allclose(per_state[0, 0], [5 / 6, 1 / 6], atol=1e-9)
        np.testing.assert_array_equal(per_state[1], prev.per_state[1])

    def test_outputs_are_stochastic(self, rng):
        for _ in range(10):
            panel, factor, law = random_instance(rng, steps=int(rng.integers(2, 6)))
            fwd = mf.forward_pass(panel, factor, law)
            bwd = mf.backward_pass(panel, factor, law)
            u, v = mf.posteriors(fwd, bwd, panel, factor, law)
            pi, trans, per_state = m_step(u, v, panel, prev_law=law, floor=1e-12)
            assert abs(pi.sum() - 1) < 1e-12
            np.testing.assert_allclose(trans.sum(axis=1), 1.0, atol=1e-12)
            np.testing.assert_allclose(per_state.sum(axis=2), 1.0, atol=1e-12)

    def test_one_iteration_improves_likelihood(self, rng):
        for _ in range(10):
            panel, factor, law = random_instance(
                rng, m=2, p=2, entities=8, steps=6
            )
            start_f, start_l = random_model(rng, 2, 2)
            fwd = mf.forward_pass(panel, start_f, start_l)
            bwd = mf.backward_pass(panel, start_f, start_l)
            u, v = mf.posteriors(fwd, bwd, panel, start_f, start_l)
            pi, trans, per_state = m_step(u, v, panel, prev_law=start_l, floor=1e-12)
            after = mf.forward_pass(
                panel, mf.HiddenFactorSpec(pi, trans), mf.MigrationLaw(per_state)
            )
            assert after.loglik >= fwd.loglik - 1e-9


class TestEmConfig:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(max_iters=0), "max_iters must be a whole number of at least 1, got 0"),
            (dict(max_iters=-3), "max_iters must be a whole number of at least 1, got -3"),
            (dict(max_iters=2.5), "max_iters must be a whole number of at least 1, got 2.5"),
            (dict(restarts=0), "restarts must be a whole number of at least 1, got 0"),
            (dict(restarts=2.5), "restarts must be a whole number of at least 1, got 2.5"),
            (dict(tol=float("nan")), "tol must be positive and finite, got nan"),
            (dict(tol=float("inf")), "tol must be positive and finite, got inf"),
            (dict(tol=0.0), "tol must be positive and finite, got 0.0"),
        ],
    )
    def test_invalid_settings_rejected(self, kwargs, message):
        with pytest.raises(DataError) as info:
            mf.EmConfig(**kwargs)
        assert str(info.value) == message

    def test_numpy_integers_accepted(self):
        cfg = mf.EmConfig(restarts=np.int64(3), max_iters=np.int32(1))
        assert (cfg.restarts, cfg.max_iters) == (3, 1)

    def test_one_iteration_gives_a_readable_fit(self, rng):
        panel, _, _ = random_instance(rng, m=2, p=2, entities=5, steps=6)
        res = mf.em_fit(panel, 2, mf.EmConfig(restarts=2, max_iters=1))
        assert [t.size for t in res.restart_traces] == [1, 1]
        assert res.loglik == res.loglik_trace[0]


class TestEmFit:
    def test_single_state_converges_to_empirical(self, rng):
        panel, _, _ = random_instance(rng, m=1, p=2, entities=10, steps=8)
        res = mf.em_fit(panel, 1, mf.EmConfig(restarts=2, max_iters=50, seed=4))
        assert res.converged
        totals = panel.counts.sum(axis=0)
        exposure = panel.exposures.sum(axis=0)
        for k in range(2):
            if exposure[k]:
                np.testing.assert_allclose(
                    res.law.per_state[0, k], totals[k] / exposure[k], atol=1e-8
                )

    def test_traces_monotone_on_random_instances(self, rng):
        for _ in range(15):
            panel, _, _ = random_instance(rng, entities=6, steps=6)
            res = mf.em_fit(panel, 2, mf.EmConfig(restarts=2, max_iters=25, seed=int(rng.integers(2**31))))
            for trace in res.restart_traces:
                diffs = np.diff(trace)
                floor = -1e-9 * np.maximum(np.abs(trace[:-1]), 1.0)
                assert np.all(diffs >= floor)

    def test_permuted_initialization_permutes_fit(self, rng):
        panel, _, _ = random_instance(rng, m=2, p=2, entities=10, steps=8)
        cfg = mf.EmConfig(restarts=1, max_iters=30, seed=0)
        pi0, trans0, per0 = _random_init(np.random.default_rng(123), 2, 2, cfg.floor)
        from migfilter.calibrate import _discrete_e_and_m

        trace_a, (pi_a, trans_a, per_a), _ = _em_single(
            panel, pi0, trans0, per0, cfg, _discrete_e_and_m
        )
        perm = np.array([1, 0])
        trace_b, (pi_b, trans_b, per_b), _ = _em_single(
            panel,
            pi0[perm],
            trans0[np.ix_(perm, perm)],
            per0[perm],
            cfg,
            _discrete_e_and_m,
        )
        np.testing.assert_allclose(trace_a, trace_b, rtol=1e-10)
        np.testing.assert_allclose(pi_a[perm], pi_b, atol=1e-10)
        np.testing.assert_allclose(trans_a[np.ix_(perm, perm)], trans_b, atol=1e-10)
        np.testing.assert_allclose(per_a[perm], per_b, atol=1e-10)

    def test_recovery_on_separated_regimes(self):
        factor, law = mf.demo_model(2, 3, spread=6.0)
        cfg = mf.SimulationConfig(np.array([400, 400, 400]), 250, seed=33)
        panel, _ = mf.simulate_panel_discrete(factor, law, cfg)
        res = mf.em_fit(panel, 2, mf.EmConfig(restarts=12, max_iters=300, seed=5, tol=1e-10))
        assert np.abs(res.factor.trans - factor.trans).max() < 0.08
        assert np.abs(res.law.per_state - law.per_state).max() < 0.03

    def test_empty_panel_rejected(self):
        panel = mf.MigrationPanel(np.empty((0, 2), dtype=int), np.empty((0, 2, 2), dtype=int))
        with pytest.raises(DataError):
            mf.em_fit(panel, 2, mf.EmConfig(restarts=1))

    def test_e_step_runs_no_backward_pass(self, rng, monkeypatch):
        # the E-step smooths from the forward rows; a backward scan per
        # iteration would double its cost without changing the fit
        calls = count_calls(monkeypatch, "_forward", "_backward")
        panel, _, _ = random_instance(rng, m=2, steps=30)
        mf.em_fit(panel, 2, mf.EmConfig(restarts=2, max_iters=5, seed=0))
        assert calls["_forward"] > 0 and calls["_backward"] == 0

    def test_result_serializes_with_diagnostics(self, rng):
        panel, _, _ = random_instance(rng, m=2, steps=4)
        res = mf.em_fit(panel, 2, mf.EmConfig(restarts=2, max_iters=10, seed=0))
        import json

        doc = json.loads(res.to_json())
        assert doc["mode"] == "discrete"
        assert len(doc["diagnostics"]["restart_seeds"]) == 2
        assert doc["diagnostics"]["best_restart"] == res.best_restart


def picker_oracle_weights(trajectories, per_state, n_bar):
    """Entity-level uniform-picker likelihood of each interval, by direct
    summation over which slot is picked."""
    n_entities, n_points = len(trajectories), len(trajectories[0])
    m = per_state.shape[0]
    out = np.zeros((n_points - 1, m))
    for t in range(n_points - 1):
        present = [q for q in range(n_entities) if trajectories[q][t] is not None]
        n_t = len(present)
        for h in range(m):
            total = 0.0
            for d in range(int(n_bar)):
                if d >= n_t:
                    moved = any(
                        trajectories[q][t] != trajectories[q][t + 1] for q in present
                    )
                    total += 0.0 if moved else 1.0 / n_bar
                else:
                    q = present[d]
                    others_moved = any(
                        trajectories[r][t] != trajectories[r][t + 1]
                        for r in present
                        if r != q
                    )
                    if not others_moved:
                        total += (
                            per_state[h, trajectories[q][t], trajectories[q][t + 1]]
                            / n_bar
                        )
            out[t, h] = total
    return out


class TestPickerWeights:
    def test_full_sample_identity_law_gives_unit_weight(self):
        exposures, jumps = np.full((3, 2), 2), np.full(3, -1)
        per_state = np.array([np.eye(2), np.eye(2)])
        # n_bar = 4 = every interval's total
        w = np.exp(_picker_log_weights(exposures, jumps, jumps, per_state, 4.0))
        np.testing.assert_allclose(w, 1.0, atol=1e-12)

    def test_jump_interval_ratios_follow_the_law(self):
        per_state = np.array([[[0.95, 0.05], [0.1, 0.9]], [[0.8, 0.2], [0.3, 0.7]]])
        src, dst = np.array([0]), np.array([1])
        w = np.exp(_picker_log_weights(np.array([[2, 2]]), src, dst, per_state, 4.0))
        assert w[0, 0] / w[0, 1] == pytest.approx(0.05 / 0.2)

    def fit(self, times, sources, targets, initial):
        stream = mf.EventStream(times, sources, targets, initial, horizon=2.0)
        return mf.em_fit_continuous(stream, 1, mf.EmConfig(restarts=1), fine_dt=1.0)

    def test_sample_without_entities_rejected(self):
        with pytest.raises(DataError, match="sample holds no entities"):
            self.fit([], [], [], [0, 0])

    @pytest.mark.parametrize(
        "sources, targets, initial",
        [([0, 0], [1, 1], [2, 0, 0]), ([0, 1], [1, 2], [1, 0, 0])],
        ids=["two-entities", "one-entity-twice"],
    )
    def test_two_jump_interval_rejected(self, sources, targets, initial):
        with pytest.raises(
            DataError,
            match="^fine-grid step 1 holds 2 jumps; the picker likelihood needs at most one",
        ):
            self.fit([1.3, 1.6], sources, targets, initial)

    def test_matches_entity_level_enumeration(self):
        # 2 entities over 4 intervals, one censoring gap, n_bar = 3
        trajectories = [
            [0, 0, 1, 1, 1],
            [1, 1, 1, 0, 0],
        ]
        n_points = 5
        exposures = np.zeros((n_points - 1, 2), dtype=int)
        src = np.full(n_points - 1, -1, dtype=np.int64)
        dst = np.full(n_points - 1, -1, dtype=np.int64)
        for t in range(n_points - 1):
            for q in range(2):
                exposures[t, trajectories[q][t]] += 1
                if trajectories[q][t] != trajectories[q][t + 1]:
                    src[t] = trajectories[q][t]
                    dst[t] = trajectories[q][t + 1]
        per_state = np.array(
            [[[0.9, 0.1], [0.2, 0.8]], [[0.7, 0.3], [0.4, 0.6]]]
        )
        n_bar = 3
        oracle = picker_oracle_weights(trajectories, per_state, n_bar)
        mine = np.exp(_picker_log_weights(exposures, src, dst, per_state, n_bar))
        np.testing.assert_allclose(mine, oracle, atol=1e-12)

        # forward likelihood through the picker weights matches a direct
        # hidden-path enumeration of the entity-level model
        pi = np.array([0.6, 0.4])
        trans = np.array([[0.85, 0.15], [0.3, 0.7]])
        fwd = _forward(np.log(mine), pi, trans)
        import itertools

        total = 0.0
        for path in itertools.product(range(2), repeat=4):
            w = pi[path[0]] * oracle[0, path[0]]
            for t in range(1, 4):
                w *= trans[path[t - 1], path[t]] * oracle[t, path[t]]
            total += w
        assert fwd.loglik == pytest.approx(np.log(total), abs=1e-10)


def golden_section(fun, lo, hi, iters=90):
    phi = (np.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fun(d)
    return (a + b) / 2


class TestEmFitContinuous:
    def make_fine_stream(self, seed=0, steps=60, entities=40, m=1, spread=4.0):
        factor, law = mf.demo_model(m, 2, spread=spread)
        cfg = mf.SimulationConfig(
            np.array([entities, entities]), steps, seed=seed, step_length_days=1
        )
        panel, path = mf.simulate_panel_discrete(factor, law, cfg)
        off = ~np.eye(2, dtype=bool)
        slots = int(panel.counts[:, off].sum(axis=1).max()) + 2
        stream = mf.spread_jumps(panel, mf.SpreadConfig(slots, seed=seed + 1))
        return stream, 1.0 / slots, factor, law, path

    def test_single_state_matches_coordinate_search_oracle(self):
        stream, fine_dt, *_ = self.make_fine_stream(seed=3)
        cfg = mf.EmConfig(restarts=1, max_iters=40, seed=1, tol=1e-12)
        res = mf.em_fit_continuous(stream, 1, cfg, fine_dt=fine_dt, to_generator=False)
        fitted = res.law.per_state[0]

        fine = mf.stream_to_panel(stream, fine_dt)
        exposures = fine.exposures
        n_bar = exposures.sum(axis=1).max()
        nojump = fine.counts[:, 0, 1] + fine.counts[:, 1, 0] == 0
        y_nj = exposures[nojump].astype(float)
        c_nj = 1.0 - y_nj.sum(axis=1) / n_bar
        jumps01 = int(fine.counts[:, 0, 1].sum())
        jumps10 = int(fine.counts[:, 1, 0].sum())

        def q_total(x, y):
            diag = np.array([1 - x, 1 - y])
            w = c_nj + (y_nj @ diag) / n_bar
            out = np.log(w).sum()
            out += jumps01 * np.log(x) + jumps10 * np.log(y)
            return out

        # concave in each coordinate: alternate golden-section sweeps
        x, y = 0.1, 0.1
        for _ in range(8):
            x = golden_section(lambda v: q_total(v, y), 1e-9, 1 - 1e-9)
            y = golden_section(lambda v: q_total(x, v), 1e-9, 1 - 1e-9)
        assert abs(fitted[0, 1] - x) < 1e-6
        assert abs(fitted[1, 0] - y) < 1e-6

    def test_e_step_runs_no_backward_pass(self, monkeypatch):
        # the segment E-step smooths from the forward rows and reads each
        # run's backward row off the smoothed one
        calls = count_calls(monkeypatch, "_forward", "_smoothed", "_backward")
        stream, fine_dt, *_ = self.make_fine_stream(seed=1, steps=20, entities=10, m=2)
        mf.em_fit_continuous(stream, 2, mf.EmConfig(restarts=2, max_iters=5, seed=0), fine_dt)
        assert calls["_forward"] > 0 and calls["_smoothed"] == calls["_forward"]
        assert calls["_backward"] == 0

    def test_traces_monotone(self):
        for seed in range(4):
            stream, fine_dt, *_ = self.make_fine_stream(seed=seed, steps=40, entities=25, m=2)
            cfg = mf.EmConfig(restarts=1, max_iters=10, seed=seed, tol=1e-12)
            res = mf.em_fit_continuous(stream, 2, cfg, fine_dt=fine_dt, to_generator=False)
            trace = res.loglik_trace
            diffs = np.diff(trace)
            assert np.all(diffs >= -1e-7 * np.maximum(np.abs(trace[:-1]), 1.0))

    def test_recovers_true_intensities_through_spreading(self):
        # a genuinely continuous sample, aggregated to days and re-spread,
        # must calibrate back to the generating rates
        ell = np.array([[[-0.04, 0.04], [0.06, -0.06]]])
        factor = mf.HiddenFactorSpec(np.array([1.0]), np.array([[0.0]]), mode=mf.Mode.CONTINUOUS)
        law = mf.MigrationLaw(ell, mode=mf.Mode.CONTINUOUS)
        cfg = mf.SimulationConfig(np.array([40, 40]), 400.0, seed=8, mode=mf.Mode.CONTINUOUS)
        stream, _ = mf.simulate_events_continuous(factor, law, cfg)
        panel = mf.stream_to_panel(stream, 1.0)
        off = ~np.eye(2, dtype=bool)
        slots = int(panel.counts[:, off].sum(axis=1).max()) + 1
        spread = mf.spread_jumps(panel, mf.SpreadConfig(slots, seed=3))
        res = mf.em_fit_continuous(
            spread, 1, mf.EmConfig(restarts=1, max_iters=40, seed=1, tol=1e-11),
            fine_dt=1.0 / slots,
        )
        fitted = res.law.per_state[0]
        assert abs(fitted[0, 1] - 0.04) / 0.04 < 0.15
        assert abs(fitted[1, 0] - 0.06) / 0.06 < 0.15

    def test_generator_output_is_valid(self):
        stream, fine_dt, *_ = self.make_fine_stream(seed=5, steps=50, entities=30, m=2)
        cfg = mf.EmConfig(restarts=1, max_iters=8, seed=0)
        res = mf.em_fit_continuous(stream, 2, cfg, fine_dt=fine_dt)
        assert res.factor.mode is mf.Mode.CONTINUOUS
        assert mf.validate_model(res.factor, res.law) == []

    @pytest.mark.parametrize(
        "m, floor, message",
        [(0, 1e-12, "m must be a whole number of at least 1, got 0"), (2, 0.5, "floor 0.5 too large")],
    )
    def test_sample_checks_match_em_fit(self, m, floor, message):
        stream, fine_dt, *_ = self.make_fine_stream(seed=2, steps=10, entities=10)
        cfg = mf.EmConfig(restarts=1, max_iters=2, floor=floor)
        panel = mf.stream_to_panel(stream, fine_dt)
        errors = []
        for fit in (
            lambda: mf.em_fit(panel, m, cfg),
            lambda: mf.em_fit_continuous(stream, m, cfg, fine_dt=fine_dt),
        ):
            with pytest.raises(DataError, match=message) as caught:
                fit()
            errors.append(str(caught.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("fine_dt", [0.0, -0.25, float("nan"), float("inf")])
    def test_fine_dt_must_be_positive_and_finite(self, fine_dt):
        stream, *_ = self.make_fine_stream(seed=7, steps=10, entities=10)
        with pytest.raises(DataError, match="grid step must be positive and finite"):
            mf.em_fit_continuous(stream, 1, mf.EmConfig(restarts=1), fine_dt=fine_dt)

    def test_stream_needs_fine_dt(self):
        stream, *_ = self.make_fine_stream(seed=7, steps=10, entities=10)
        with pytest.raises(TypeError, match="fine_dt"):
            mf.em_fit_continuous(stream, 1, mf.EmConfig(restarts=1))

    def test_departure_from_empty_rating_rejected(self):
        # the stream itself refuses, so no fit ever sees it
        with pytest.raises(DataError, match="departure from rating 1 with no exposure"):
            mf.EventStream(
                times=np.array([0.5]),
                sources=np.array([1]),
                targets=np.array([0]),
                initial_exposures=np.array([2, 0]),
                horizon=1.0,
            )
