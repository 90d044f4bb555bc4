"""Watching the hidden credit cycle through migration counts.

We simulate a 3-regime economy driving the migrations of 900 entities across
3 rating classes, then run the causal filter with the true parameters and
check how well the filtered law tracks the simulated regime path.  The
filter never sees the path — only the aggregated counts.
"""

import numpy as np

import migfilter as mf

np.set_printoptions(precision=3, suppress=True)

factor, law = mf.demo_model(m=3, p=3, spread=8.0)
print("hidden-chain transition matrix:")
print(factor.trans)
print("\nper-regime downgrade intensity (risk scores):", mf.risk_scores(law))

config = mf.SimulationConfig(
    entities_per_rating=np.array([300, 300, 300]), horizon=300, seed=2024
)
panel, path = mf.simulate_panel_discrete(factor, law, config)
print(f"\nsimulated panel: {panel.steps} steps, {panel.exposures[0].sum()} entities")

trajectory = mf.run_filter(panel, factor, law)
guesses = trajectory.probs_matrix().argmax(axis=1)
accuracy = np.mean(guesses[1:] == path[1 : panel.steps + 1])
print(f"filter argmax matches the true regime on {accuracy:.1%} of steps")

# the filter trails regime changes by construction: counts observed at step
# t were driven by the regime at t - 1
switches = np.nonzero(np.diff(path[: panel.steps]))[0]
lags = []
for s in switches:
    target = path[s + 1]
    caught = np.nonzero(guesses[s + 1 :] == target)[0]
    if caught.size:
        lags.append(int(caught[0]))
print(f"{switches.size} regime switches; median detection lag {np.median(lags):.0f} steps")

report = mf.evaluate_predictions(panel, trajectory)
print("\nforecast quality (variance explained) per transition:")
for (j, k), r2 in sorted(report.r2.items()):
    print(f"  {j + 1} -> {k + 1}: R2 = {r2:6.3f}")

print("\nfinal filtered law:", trajectory.probs_matrix()[-1], "| true final regime:", path[-1])
