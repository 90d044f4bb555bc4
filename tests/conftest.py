"""Shared fixtures and brute-force oracles.

The enumeration oracle computes filtered and smoothed hidden-state laws by
summing over every hidden path explicitly.  It shares no code with the
package's recursions (plain Python loops, linear probability space) and is
the reference all filter and smoother outputs are checked against on small
instances.
"""

import itertools

import numpy as np
import pytest
from hypothesis import strategies as st

import migfilter as mf

# float64 values whose texts a writer could get wrong: both zeros, both
# infinities, subnormals, the largest double, two plain values a table may
# repeat, and NaNs with other sign and payload bits
TRICKY_FLOATS = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, 5e-324, 2.225073858507201e-308, 1e308, 0.25, 0.1],
    np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001],
             dtype=np.uint64).view(float),
])

# one float cell: a tricky value (so tables repeat them) or any double
float_values = st.one_of(
    st.integers(0, len(TRICKY_FLOATS) - 1).map(TRICKY_FLOATS.__getitem__), st.floats()
)


def float_array(cells, shape) -> np.ndarray:
    """``cells`` (Python floats and numpy doubles) as a float64 array of
    ``shape``, every NaN payload kept."""
    return np.array(cells, dtype=float).reshape(shape)


def step_weight(law_per_state, counts_t, state):
    """Entity-level likelihood of one step's count matrix given the hidden
    state (combinatorial coefficients dropped, matching the package)."""
    w = 1.0
    p = counts_t.shape[0]
    for j in range(p):
        for k in range(p):
            c = int(counts_t[j, k])
            if c:
                w *= float(law_per_state[state, j, k]) ** c
    return w


def enumerate_reference(panel, pi, trans, per_state):
    """Brute-force filtered laws, smoothing posteriors and log-likelihood.

    Returns a dict with:
      filtered: (steps + 1, m) — P(hidden state at n | observations 1..n)
      loglik:   log-probability of the whole panel
      u:        (steps, m) — smoothed law of the state driving each step
      v:        (steps - 1, m, m) — smoothed consecutive-state joint laws
    """
    steps = panel.steps
    m = len(pi)
    filtered = np.zeros((steps + 1, m))
    filtered[0] = pi
    for n in range(1, steps + 1):
        dist = np.zeros(m)
        for path in itertools.product(range(m), repeat=n + 1):
            w = pi[path[0]]
            for t in range(1, n + 1):
                w *= trans[path[t - 1], path[t]]
            for t in range(n):
                w *= step_weight(per_state, panel.counts[t], path[t])
            dist[path[n]] += w
        filtered[n] = dist / dist.sum()

    total = 0.0
    u = np.zeros((steps, m))
    v = np.zeros((max(steps - 1, 0), m, m))
    for path in itertools.product(range(m), repeat=steps):
        w = pi[path[0]]
        for t in range(1, steps):
            w *= trans[path[t - 1], path[t]]
        for t in range(steps):
            w *= step_weight(per_state, panel.counts[t], path[t])
        total += w
        for t in range(steps):
            u[t, path[t]] += w
        for t in range(steps - 1):
            v[t, path[t], path[t + 1]] += w
    u /= total
    if steps > 1:
        v /= total
    return {
        "filtered": filtered,
        "loglik": float(np.log(total)),
        "u": u,
        "v": v,
    }


def random_model(rng, m, p):
    pi = rng.dirichlet(np.ones(m))
    trans = rng.dirichlet(np.ones(m), size=m)
    per_state = rng.dirichlet(np.ones(p), size=(m, p))
    factor = mf.HiddenFactorSpec(pi, trans)
    law = mf.MigrationLaw(per_state)
    return factor, law


def random_instance(rng, m=None, p=None, entities=None, steps=None):
    """A random small model plus a panel simulated from it."""
    m = m if m is not None else int(rng.integers(2, 4))
    p = p if p is not None else int(rng.integers(2, 4))
    entities = entities if entities is not None else int(rng.integers(1, 4))
    steps = steps if steps is not None else int(rng.integers(1, 7))
    factor, law = random_model(rng, m, p)
    per_rating = np.zeros(p, dtype=int)
    per_rating[: max(1, entities)] = 1
    per_rating = rng.multinomial(entities, np.ones(p) / p) if entities else per_rating
    if per_rating.sum() == 0:
        per_rating[0] = 1
    config = mf.SimulationConfig(per_rating, steps, seed=int(rng.integers(2**31)))
    panel, _ = mf.simulate_panel_discrete(factor, law, config)
    return panel, factor, law


@pytest.fixture
def rng():
    return np.random.default_rng(20240831)
