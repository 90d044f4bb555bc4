"""Reference computations owned by the benchmark.

None of these call into the recursions of ``migfilter``; they re-derive
each result from the model parameters and the raw inputs, so a rewritten
numerical path in the package is checked against something it cannot share
a bug with.

* :func:`discrete_filter` — scaled forward recursion of the discrete filter
  (filtered laws, one-step forecasts and the log-likelihood).
* :func:`exact_continuous_filter` — the continuous filter with exact
  propagation between events: the unnormalised law follows the linear ODE
  ``q' = (K^T - diag(load)) q``, solved by ``scipy.linalg.expm``.
* :func:`panel_from_truth` — per-entity ``searchsorted`` panel construction
  from the generator's own record of every posting.
* :func:`mean_r2` — variance explained, averaged over scored transitions.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm


def discrete_filter(counts, pi, trans, per_state):
    """Filtered laws ``(steps + 1, m)``, forecasts ``(steps, p, p)`` and the
    log-likelihood of a count panel (multinomial coefficients dropped)."""
    steps = counts.shape[0]
    positive = per_state > 0
    log_law = np.log(np.where(positive, per_state, 1.0))
    probs = np.array(pi, dtype=float)
    filtered = np.empty((steps + 1, probs.shape[0]))
    forecasts = np.empty((steps,) + per_state.shape[1:])
    filtered[0] = probs
    loglik = 0.0
    for t in range(steps):
        forecasts[t] = np.einsum("h,hjk->jk", probs, per_state)
        logw = np.einsum("jk,hjk->h", counts[t], log_law)
        blocked = np.einsum("jk,hjk->h", counts[t] > 0, ~positive) > 0
        logw[blocked] = -np.inf
        top = logw.max()
        weighted = probs * np.exp(logw - top)
        norm = weighted.sum()
        loglik += np.log(norm) + top
        probs = trans.T @ (weighted / norm)
        probs /= probs.sum()
        filtered[t + 1] = probs
    return filtered, forecasts, float(loglik)


def exact_continuous_filter(stream, pi, gen, per_state, report_dt):
    """Filtered laws at the reporting times and the log-likelihood of an
    event stream, propagating exactly between consecutive events.

    Between stops the exposures are constant, so the unnormalised law moves
    by ``expm(dt * (K^T - diag(load)))`` and the log of its total mass is
    minus the integrated mean intensity.  At an event ``j -> k`` the
    likelihood gains ``Y_j * sum_h p_h lambda_h(j, k)`` and the law is
    reweighted by the event's per-state intensity.
    """
    p = per_state.shape[1]
    off = ~np.eye(p, dtype=bool)
    off_rates = np.where(off[None], per_state, 0.0).sum(axis=2)

    horizon = float(stream.horizon)
    n_report = max(1, int(np.ceil(round(horizon / report_dt, 9))))
    report_times = np.minimum(np.arange(1, n_report + 1) * report_dt, horizon)
    bt = stream.boundary_times if stream.boundary_times is not None else np.empty(0)
    stops = np.unique(np.concatenate([report_times, stream.times, bt]))

    y = stream.initial_exposures.astype(float).copy()
    probs = np.array(pi, dtype=float)
    out = [probs.copy()]
    loglik = 0.0
    t = 0.0
    e = b = r = 0
    for stop in stops:
        if stop > t:
            a = gen.T - np.diag(off_rates @ y)
            q = expm((stop - t) * a) @ probs
            mass = q.sum()
            loglik += np.log(mass)
            probs = q / mass
            t = stop
        while b < bt.shape[0] and bt[b] <= t:
            y = stream.boundary_exposures[b].astype(float).copy()
            b += 1
        if e < stream.n_events and stream.times[e] <= t:
            j, k = int(stream.sources[e]), int(stream.targets[e])
            column = per_state[:, j, k]
            loglik += np.log(y[j] * (probs @ column))
            probs = probs * column / (probs @ column)
            y[j] -= 1.0
            y[k] += 1.0
            e += 1
        while r < n_report and report_times[r] <= t:
            out.append(probs.copy())
            r += 1
    return np.array(out), float(loglik)


def panel_from_truth(truth, p, origin, step_days, num_steps):
    """Exposures and counts on ``step_days`` intervals from the generator's
    postings.

    ``truth[entity]`` is ``(days, labels)``: posting days since ``origin``
    in increasing order (one per day, last posting of the day kept) and the
    rating index posted, ``-1`` for a withdrawal.  An entity counts toward
    interval ``t`` when it holds a rating at both of its snapshots.
    """
    snaps = origin + step_days * np.arange(num_steps + 1)
    exposures = np.zeros((num_steps, p), dtype=np.int64)
    counts = np.zeros((num_steps, p, p), dtype=np.int64)
    for days, labels in truth.values():
        idx = np.searchsorted(days, snaps, side="right") - 1
        held = np.where(idx >= 0, labels[np.maximum(idx, 0)], -1)
        start, end = held[:-1], held[1:]
        ok = (start >= 0) & (end >= 0)
        steps = np.nonzero(ok)[0]
        np.add.at(exposures, (steps, start[ok]), 1)
        np.add.at(counts, (steps, start[ok], end[ok]), 1)
    return exposures, counts


def mean_r2(forecasts, counts, exposures):
    """Mean over off-diagonal transitions of ``1 - SSE/SST`` between the
    forecasts and the realised ratios, on steps where the source rating is
    exposed; transitions never observed or with a constant realised series
    are left out, as the package's evaluation does."""
    p = counts.shape[1]
    scores = []
    for j in range(p):
        exposed = exposures[:, j] > 0
        for k in range(p):
            if j == k or counts[:, j, k].sum() == 0:
                continue
            realised = counts[exposed, j, k] / exposures[exposed, j]
            if realised.shape[0] < 2 or np.all(realised == realised[0]):
                continue
            sse = np.sum((forecasts[exposed, j, k] - realised) ** 2)
            sst = np.sum((realised - realised.mean()) ** 2)
            scores.append(1.0 - sse / sst)
    return float(np.mean(scores)) if scores else float("nan")
