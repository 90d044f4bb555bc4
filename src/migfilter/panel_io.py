"""Ingestion of entity-level rating histories, panel construction,
evaluation metrics and the file formats shared by the command-line tools.

A rating history is a CSV of ``entity_id,date,rating`` rows.  The rating
alphabet is declared by the caller (ordered best to worst) together with a
censor label; an entity spends the time between consecutive events at its
last posted label, and spells at the censor label drop it from exposures
until a real rating reappears.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import datetime as dt
import io
import json
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError
from .filtering import FilterTrajectory
from .model import MigrationPanel, _exposures_at

if TYPE_CHECKING:
    from .calibrate import EmConfig

__all__ = [
    "RatingPaths",
    "EvaluationReport",
    "ingest_ratings",
    "export_ratings",
    "build_panel",
    "r_squared",
    "realized_ratios",
    "evaluate_predictions",
    "rolling_backtest",
    "panel_to_csv",
    "panel_from_csv",
    "trajectory_to_csv",
    "trajectory_from_csv",
    "events_to_csv",
    "events_from_csv",
]


@contextlib.contextmanager
def _opened(source: str | io.TextIOBase, mode: str):
    """``source`` itself when it is an open text stream, else the file it
    names opened in ``mode`` and closed on exit."""
    if isinstance(source, (str, bytes)):
        with open(source, mode, newline="") as handle:
            yield handle
    else:
        yield source


@dataclass(frozen=True)
class RatingPaths:
    """Per-entity piecewise-constant rating paths.

    ``events[entity]`` is date-sorted with one entry per date (duplicates
    resolved last-wins at ingestion).  A path holds each label from its
    event date (inclusive) until the next event; before the first event the
    entity is unobserved, and the censor label marks gaps explicitly.
    """

    events: dict[str, tuple[tuple[dt.date, str], ...]]
    alphabet: tuple[str, ...]
    censor_label: str
    duplicate_count: int = 0

    @property
    def p(self) -> int:
        return len(self.alphabet)

    def rating_index_at(self, entity: str, date: dt.date) -> int | None:
        """Index of the entity's rating on ``date``; None if unobserved or
        censored."""
        path = self.events.get(entity)
        if not path:
            return None
        pos = bisect.bisect_right(path, date, key=lambda event: event[0])
        if pos == 0 or path[pos - 1][1] == self.censor_label:
            return None
        return self.alphabet.index(path[pos - 1][1])

    def date_range(self) -> tuple[dt.date, dt.date]:
        # paths are date-sorted, so their ends bound every posting
        rated = [path for path in self.events.values() if path]
        if not rated:
            raise DataError("no events ingested")
        return min(path[0][0] for path in rated), max(path[-1][0] for path in rated)


def ingest_ratings(
    source: str | io.TextIOBase,
    alphabet: list[str] | tuple[str, ...],
    censor_label: str = "W",
) -> RatingPaths:
    """Read a rating-history CSV into per-entity paths.

    ``source`` is a path or an open text stream with header
    ``entity_id,date,rating`` and ISO-8601 dates.  Labels outside the
    alphabet (censor label aside) are rejected; malformed rows are reported
    with their line numbers; several postings of one entity on the same date
    keep the last one and count as duplicates.
    """
    alphabet = tuple(alphabet)
    if censor_label in alphabet:
        raise DataError(f"censor label {censor_label!r} must not be in the alphabet")
    if len(set(alphabet)) != len(alphabet):
        raise DataError("alphabet labels must be distinct")
    problems: list[str] = []
    rows: dict[str, dict[dt.date, str]] = {}
    duplicates = 0
    with _opened(source, "r") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise DataError("empty ratings file")
        if [h.strip() for h in header[:3]] != ["entity_id", "date", "rating"]:
            raise DataError(
                f"expected header entity_id,date,rating, got {','.join(header)}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 3:
                problems.append(f"line {line_no}: expected 3 fields, got {len(row)}")
                continue
            entity, date_text, label = row[0].strip(), row[1].strip(), row[2].strip()
            try:
                date = dt.date.fromisoformat(date_text)
            except ValueError:
                problems.append(f"line {line_no}: bad date {date_text!r}")
                continue
            if label != censor_label and label not in alphabet:
                problems.append(f"line {line_no}: unknown rating {label!r}")
                continue
            per_entity = rows.setdefault(entity, {})
            if date in per_entity:
                duplicates += 1
            per_entity[date] = label
    if problems:
        raise DataError(
            f"{len(problems)} malformed row(s): " + "; ".join(problems[:10])
        )
    if not rows:
        raise DataError("ratings file holds no events")
    events = {
        entity: tuple(sorted(per_entity.items()))
        for entity, per_entity in sorted(rows.items())
    }
    return RatingPaths(
        events=events,
        alphabet=alphabet,
        censor_label=censor_label,
        duplicate_count=duplicates,
    )


def export_ratings(paths: RatingPaths, target: str | io.TextIOBase) -> None:
    """Write paths back to the ingestion CSV format (round-trip inverse)."""
    with _opened(target, "w") as handle:
        writer = csv.writer(handle)
        writer.writerow(["entity_id", "date", "rating"])
        for entity, path in paths.events.items():
            for date, label in path:
                writer.writerow([entity, date.isoformat(), label])


def build_panel(
    paths: RatingPaths,
    step_days: int,
    origin_date: dt.date | None = None,
    num_steps: int | None = None,
) -> MigrationPanel:
    """Aggregate entity paths onto left-closed intervals of ``step_days``.

    Snapshot ``t`` falls on ``origin_date + t * step_days``; an entity holds
    there the label of its last posting dated on or before it.  An entity
    counts toward interval ``t`` only when it carries a real rating at both
    snapshots ``t`` and ``t + 1``; it then contributes one start-rating
    exposure and one endpoint-to-endpoint count (intra-interval moves
    collapse).  Entities censored at either snapshot drop out of that
    interval, which keeps conservation exact by construction.

    Each posting is read once: it holds the snapshots from its first one on
    or after its date up to the next posting's, so stays are run lengths
    and moves sit where one run hands over to the next.  The cost is
    O(postings + steps * p**2).
    """
    if step_days < 1:
        raise DataError("step_days must be at least 1")
    if not float(step_days).is_integer():
        raise DataError(f"step_days must be a whole number of days, got {step_days!r}")
    step_days = int(step_days)
    first, last = paths.date_range()
    if origin_date is None:
        origin_date = first
    if num_steps is None:
        span = (last - origin_date).days
        num_steps = max(1, -(-span // step_days))
    counts = _interval_counts(paths, step_days, origin_date, num_steps)
    return MigrationPanel(counts.sum(axis=2), counts, step_length_days=step_days)


def _interval_counts(
    paths: RatingPaths, step_days: int, origin_date: dt.date, num_steps: int
) -> np.ndarray:
    """``counts[t, a, b]`` of :func:`build_panel`, reading each posting once."""
    p, horizon = paths.p, num_steps + 1
    events = paths.events.values()
    n = sum(len(path) for path in events)
    code_of = {label: code for code, label in enumerate(paths.alphabet)}
    code_of[paths.censor_label] = -1
    try:
        codes = np.fromiter(
            (code_of[label] for path in events for _, label in path),
            dtype=np.int16,
            count=n,
        )
    except KeyError as exc:
        raise DataError(
            f"rating {exc.args[0]!r} is neither in the alphabet nor the censor label"
        ) from None
    # first snapshot on or after each posting: ceil(day offset / step_days)
    start = np.fromiter(
        (date.toordinal() for path in events for date, _ in path), dtype=np.int32, count=n
    )
    start += step_days - 1 - origin_date.toordinal()
    start //= step_days
    np.clip(start, 0, horizon, out=start)
    entity = np.repeat(np.arange(len(events), dtype=np.int32), [len(path) for path in events])
    # a posting holds snapshots [start, end), up to its entity's next posting
    # or past the last snapshot; one that holds none was overwritten in time
    end = np.full_like(start, horizon)
    same = entity[1:] == entity[:-1]
    end[:-1][same] = start[1:][same]
    held = start < end
    entity, codes, start, end = entity[held], codes[held], start[held], end[held]

    # stays: a run of real label a over [start, end) adds one to
    # counts[t, a, a] for t in [start, end - 1), summed from a difference array
    real = codes >= 0
    diff = np.bincount(start[real] * p + codes[real], minlength=horizon * p)
    diff -= np.bincount((end[real] - 1) * p + codes[real], minlength=horizon * p)
    stays = diff.reshape(horizon, p).cumsum(axis=0)[:num_steps]
    # moves: the entity's run of real a handing over to its next run, of real
    # b, at snapshot s adds one to counts[s - 1, a, b]; "same entity" comes
    # from the index, since a dropped posting marks no boundary
    src, dst = codes[:-1], codes[1:]
    hand = (entity[1:] == entity[:-1]) & (src >= 0) & (dst >= 0)
    flat = ((start[1:][hand] - 1).astype(np.intp) * p + src[hand]) * p + dst[hand]
    counts = np.bincount(flat, minlength=num_steps * p * p).reshape(num_steps, p, p)
    diagonal = np.arange(p)
    counts[:, diagonal, diagonal] += stays
    return counts


def r_squared(predicted: np.ndarray, realized: np.ndarray) -> float:
    """Share of the realized series' variance explained by the forecasts.

    ``1 - SSE / SST`` with SST taken about the realized mean; at most 1,
    negative when the forecast does worse than that mean.
    """
    predicted = np.asarray(predicted, dtype=float)
    realized = np.asarray(realized, dtype=float)
    if predicted.shape != realized.shape or predicted.ndim != 1:
        raise DataError("predicted and realized must be 1-d series of equal length")
    if predicted.shape[0] < 2:
        raise DataError("need at least two points to score a forecast")
    if np.ptp(realized) == 0.0:
        raise DataError("realized series is constant; its variance ratio is undefined")
    # both sums are taken on values of magnitude at most 1, so neither
    # squares to zero nor overflows; the ratio of the scales multiplies back
    # last, and is 1 unless an error outgrows the realized spread
    dev = realized - realized.mean()
    err = predicted - realized
    scale = float(np.abs(dev).max())
    err_scale = max(float(np.abs(err).max()), scale)
    sst = float(np.sum((dev / scale) ** 2))
    sse = float(np.sum((err / err_scale) ** 2))
    ratio = err_scale / scale
    return 1.0 - ratio * (ratio * (sse / sst))


@dataclass(frozen=True)
class EvaluationReport:
    """Per-transition forecast quality over a panel.

    ``series[(j, k)]`` holds the aligned (predicted, realized) ratio series
    for transition j -> k; ``r2[(j, k)]`` their variance-explained score.
    Transitions with no counts or a constant realized series are skipped and
    listed under ``skipped``.
    """

    r2: dict[tuple[int, int], float]
    series: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]
    step_length_days: float
    skipped: tuple[tuple[int, int], ...] = ()

    def to_json(self) -> str:
        """The report as ``json.dumps(doc, indent=2)`` renders it, byte for
        byte.  That indenting encoder is pure Python, so each series list,
        most of the text, is rendered by the C encoder and spliced in."""
        doc = {
            "step_length_days": self.step_length_days,
            "r2": {f"{j}->{k}": val for (j, k), val in self.r2.items()},
            "skipped": [f"{j}->{k}" for j, k in self.skipped],
            "series": {
                f"{j}->{k}": {"predicted": _SLOT, "realized": _SLOT} for j, k in self.series
            },
        }
        parts = json.dumps(doc, indent=2).split(json.dumps(_SLOT))
        lists = (_series_json(values.tolist()) for pair in self.series.values() for values in pair)
        return parts[0] + "".join(text + part for text, part in zip(lists, parts[1:]))


# stands in for each series list in the report skeleton; no key or label
# of the report renders as this string's JSON
_SLOT = "\0"


def _series_json(values: list) -> str:
    """A series list as ``json.dumps(..., indent=2)`` renders it at the
    depth of the report's series (items 8 spaces in, the bracket 6)."""
    if not values:
        return "[]"
    items = json.dumps(values, separators=(",\n" + 8 * " ", ": "))[1:-1]
    return "[\n" + 8 * " " + items + "\n" + 6 * " " + "]"


def realized_ratios(panel: MigrationPanel) -> np.ndarray:
    """Observed per-step transition frequencies, shape (steps, p, p).

    Steps where a source rating has no exposure get NaN rows and are masked
    out by the evaluation.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(
            panel.exposures[:, :, None] > 0,
            panel.counts / panel.exposures[:, :, None].astype(float),
            np.nan,
        )


def evaluate_predictions(
    panel: MigrationPanel,
    trajectory: FilterTrajectory,
) -> EvaluationReport:
    """Score a trajectory's forecasts against a panel's realized ratios.

    Forecast ``t`` must refer to panel step ``t`` (both filters emit them
    that way).  Every off-diagonal transition with observed counts and a
    non-constant realized series of at least two points gets a score.
    """
    return _score_forecasts(panel, trajectory.predicted_ratios)


def _score_forecasts(panel: MigrationPanel, predicted_ratios: np.ndarray) -> EvaluationReport:
    """:func:`evaluate_predictions` on a forecast array of shape (steps, p, p)."""
    if predicted_ratios.shape[0] != panel.steps:
        raise DataError(
            f"trajectory carries {predicted_ratios.shape[0]} forecasts "
            f"but the panel has {panel.steps} steps"
        )
    ratios = realized_ratios(panel)
    r2: dict[tuple[int, int], float] = {}
    series: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    skipped: list[tuple[int, int]] = []
    p = panel.p
    for j in range(p):
        for k in range(p):
            if j == k:
                continue
            if panel.counts[:, j, k].sum() == 0:
                skipped.append((j, k))
                continue
            mask = ~np.isnan(ratios[:, j, k])
            realized = ratios[mask, j, k]
            predicted = predicted_ratios[mask, j, k]
            if realized.shape[0] < 2 or np.all(realized == realized[0]):
                skipped.append((j, k))
                continue
            r2[(j, k)] = r_squared(predicted, realized)
            series[(j, k)] = (predicted, realized)
    return EvaluationReport(
        r2=r2,
        series=series,
        step_length_days=panel.step_length_days,
        skipped=tuple(skipped),
    )


def rolling_backtest(
    panel: MigrationPanel,
    m: int,
    cfg: EmConfig,
    initial_steps: int,
    refit_every: int,
) -> EvaluationReport:
    """Out-of-sample forecasts under periodic recalibration.

    The model is fitted on steps ``[0, cut)``; the causal filter then runs
    over the full history through ``cut + refit_every`` and only the
    forecasts of the new window count as out-of-sample.  The cut rolls
    forward by ``refit_every`` until the panel is exhausted, and the stitched
    window forecasts are scored against the realized ratios.
    """
    from .calibrate import em_fit
    from .filtering import run_filter

    if not 0 < initial_steps < panel.steps:
        raise DataError("initial_steps must split the panel")
    if refit_every < 1:
        raise DataError("refit_every must be positive")

    def part(s: slice) -> MigrationPanel:
        return MigrationPanel(panel.exposures[s], panel.counts[s], panel.step_length_days)

    predicted = np.full((panel.steps, panel.p, panel.p), np.nan)
    cut = initial_steps
    while cut < panel.steps:
        window_end = min(cut + refit_every, panel.steps)
        result = em_fit(part(slice(cut)), m, cfg)
        traj = run_filter(part(slice(window_end)), result.factor, result.law)
        predicted[cut:window_end] = traj.predicted_ratios[cut:window_end]
        cut = window_end
    oos = slice(initial_steps, panel.steps)
    return _score_forecasts(part(oos), predicted[oos])


# ---------------------------------------------------------------------------
# CSV formats.  Every numeric file is an optional ``# ...`` comment line, a
# header, then rows exactly as wide as the header, floats written as their
# ``repr`` (which reads back exactly) and ``\r\n`` line ends.
# ---------------------------------------------------------------------------


def _write_table(target, header, rows, comment: str | None = None) -> None:
    """Write rows of ints, floats and blank ``""`` cells; the comment line
    ends in ``\n``, as event files always have."""
    with _opened(target, "w") as handle:
        if comment is not None:
            handle.write(f"# {comment}\n")
        handle.write(",".join(header) + "\r\n")
        handle.writelines(",".join(map(str, row)) + "\r\n" for row in rows)


def _columns(prefix: str, *shape: int) -> list[str]:
    """Header cells ``prefix_1..`` over ``shape`` in row-major order."""
    return [prefix + "".join(f"_{i + 1}" for i in index) for index in np.ndindex(*shape)]


@dataclass(frozen=True)
class _Table:
    """A numeric CSV's comment line (None if absent), header and non-blank
    body rows, kept as text with their line numbers until a reader parses
    them."""

    what: str
    comment: str | None
    header: list[str]
    lines: list[str]
    line_nos: list[int]

    def parse(self, dtype, rule, rows: slice = slice(None)) -> np.ndarray:
        """The rows ``rows`` as an array of ``dtype``, one table row per
        line (a record dtype gives one column of records).

        The block is read in one ``np.loadtxt`` call.  :meth:`by_rule` reads
        it instead when that call refuses it or is not shown it: an empty
        block (on which it warns), a line not as wide as the header, or a
        line it might read where the row rule refuses it, which holds
        non-ASCII text (its integer parser takes some letters for digits)
        or ``\\x1f`` (which it takes for a blank).
        """
        lines = self.lines[rows]
        commas = len(self.header) - 1
        if lines and all(
            line.count(",") == commas and line.isascii() and "\x1f" not in line for line in lines
        ):
            try:
                return np.loadtxt(lines, delimiter=",", comments=None, dtype=dtype, ndmin=2)
            except ValueError:
                pass
        return self.by_rule(dtype, rule, rows)

    def by_rule(self, dtype, rule, rows: slice = slice(None)) -> np.ndarray:
        """The reference reader of :meth:`parse`: ``rule(cells)`` reads one
        row, and a row not as wide as the header or refused by the rule
        raises :class:`DataError` naming its line."""
        width = len(self.header)
        values = []
        for line, line_no in zip(self.lines[rows], self.line_nos[rows]):
            cells = line.split(",")
            try:
                if len(cells) != width:
                    raise ValueError(f"{len(cells)} fields, not {width}")
                values.append(rule(cells))
            except ValueError as exc:
                raise DataError(f"{self.what} line {line_no}: {exc}") from exc
        dtype = np.dtype(dtype)
        return np.array(values, dtype).reshape(len(values), 1 if dtype.names else width)


def _read_table(source, what: str, layout):
    """The file as a :class:`_Table`, blank rows dropped, and what
    ``layout(comment, header)`` returns; ``layout`` raises
    :class:`DataError` to refuse the file or ``ValueError`` to refuse its
    header line."""
    with _opened(source, "r") as handle:
        lines = handle.read().splitlines()
    comment = lines[0] if lines and lines[0].startswith("#") else None
    first = int(comment is not None)
    header = lines[first].split(",") if first < len(lines) else []
    try:
        dims = layout(comment, header)
    except ValueError as exc:
        raise DataError(f"{what} line {first + 1}: {exc}") from exc
    body = [(no, line) for no, line in enumerate(lines[first + 1 :], start=first + 2) if line.strip()]
    return _Table(what, comment, header, [line for _, line in body], [no for no, _ in body]), dims


def panel_to_csv(panel: MigrationPanel, target: str | io.TextIOBase) -> None:
    """Header ``t,Y_1..Y_p,N_1_1..N_p_p``; counts row-major per step."""
    p, steps = panel.p, panel.steps
    table = np.column_stack(
        [np.arange(1, steps + 1), panel.exposures, panel.counts.reshape(steps, p * p)]
    )
    _write_table(target, ["t", *_columns("Y", p), *_columns("N", p, p)], table.tolist())


def panel_from_csv(source: str | io.TextIOBase, step_length_days: float = 1) -> MigrationPanel:
    def layout(_comment, header):
        p = sum(1 for h in header if h.startswith("Y_"))
        if p == 0 or header != ["t", *_columns("Y", p), *_columns("N", p, p)]:
            raise DataError("panel CSV needs the header t,Y_1..Y_p,N_1_1..N_p_p")
        return p

    table, p = _read_table(source, "panel CSV", layout)
    values = table.parse(np.int64, lambda cells: [int(x) for x in cells])
    if not len(values):
        raise DataError("panel CSV holds no steps")
    counts = values[:, 1 + p :].reshape(-1, p, p)
    return MigrationPanel(values[:, 1 : 1 + p], counts, step_length_days=step_length_days)


def trajectory_to_csv(trajectory: FilterTrajectory, target: str | io.TextIOBase) -> None:
    """Header ``t,I_1..I_m,nu_1_1..nu_p_p``; forecast row ``t`` was issued
    before step/interval ``t`` (the final state row carries no forecast)."""
    probs, predicted = trajectory.probs_matrix(), trajectory.predicted_ratios
    p = predicted.shape[1] if predicted.size else 0
    header = ["t", *_columns("I", probs.shape[1]), *_columns("nu", p, p)]
    rows = np.column_stack([trajectory.times(), probs]).tolist()
    forecasts = predicted.reshape(predicted.shape[0], p * p).tolist()
    forecasts += [[""] * (p * p)] * (len(rows) - len(forecasts))
    _write_table(target, header, (row + nu for row, nu in zip(rows, forecasts)))


def trajectory_from_csv(source: str | io.TextIOBase) -> FilterTrajectory:
    """Inverse of :func:`trajectory_to_csv`: every row but the last carries
    a forecast, the last none; malformed input raises :class:`DataError`
    naming its line."""

    def layout(_comment, header):
        if header[:1] != ["t"]:
            raise DataError("trajectory CSV must start with header t,I_1..")
        m = sum(1 for h in header if h.startswith("I_"))
        n_nu = len(header) - 1 - m
        if math.isqrt(n_nu) ** 2 != n_nu:
            raise ValueError(f"{n_nu} nu_ columns do not form a p x p block")
        return m, n_nu

    def rule(cells):
        # a forecast is all blank, read as NaN, or every cell of it parses
        nu = cells[1 + m :]
        return [float(x) for x in cells[: 1 + m]] + (
            [float(x) for x in nu] if any(nu) else [math.nan] * n_nu
        )

    table, (m, n_nu) = _read_table(source, "trajectory CSV", layout)
    n = len(table.lines) - 1
    if n < 0:
        raise DataError("trajectory CSV holds no states")
    values = np.concatenate(
        [table.parse(float, rule, slice(n)), table.by_rule(float, rule, slice(n, None))]
    )
    # only a row whose forecast reads all NaN can have left it blank
    blank = "," * n_nu
    for row in np.flatnonzero(np.isnan(values[:n, 1 + m :]).all(axis=1)):
        if table.lines[row].endswith(blank):
            raise DataError(
                f"trajectory CSV line {table.line_nos[row]}: no forecast before the last row"
            )
    if not table.lines[n].endswith(blank):
        raise DataError(f"trajectory CSV line {table.line_nos[n]}: the last row carries a forecast")
    p = math.isqrt(n_nu)
    return FilterTrajectory(
        probs=values[:, 1 : 1 + m],
        time_index=values[:, 0],
        predicted_ratios=values[:n, 1 + m :].reshape(n, p, p),
        loglik=np.nan,
    )


_EVENT_ROW = np.dtype([("time", float), ("from", np.int64), ("to", np.int64)])


def events_to_csv(stream, target: str | io.TextIOBase) -> None:
    """Event CSV: a comment line with the time-zero exposures and horizon,
    then ``time,from_rating,to_rating`` rows (1-based rating labels).

    The format carries no boundary exposure track, so a stream whose
    boundary exposures differ from what its events imply (a panel with
    entry or censoring, spread) raises :class:`DataError`; keep such a
    stream in memory, or re-spread it from its panel.
    """
    if stream.boundary_times is not None:
        bare = replace(stream, boundary_times=None, boundary_exposures=None)
        implied = _exposures_at(bare, stream.boundary_times)
        if not np.array_equal(implied, stream.boundary_exposures):
            raise DataError(
                "the event CSV holds no boundary exposures, and this stream's "
                "differ from what its events imply (entry or censoring)"
            )
    y0 = ",".join(str(int(x)) for x in stream.initial_exposures)
    rows = zip(stream.times.tolist(), (stream.sources + 1).tolist(), (stream.targets + 1).tolist())
    comment = f"exposures0={y0} horizon={stream.horizon!r}"
    _write_table(target, ["time", "from_rating", "to_rating"], rows, comment)


def events_from_csv(source: str | io.TextIOBase):
    from .model import EventStream

    def layout(comment, header):
        if comment is None or not comment.startswith("# exposures0="):
            raise DataError("event CSV must start with the exposures comment line")
        if header != ["time", "from_rating", "to_rating"]:
            raise DataError("event CSV needs header time,from_rating,to_rating")

    table, _ = _read_table(source, "event CSV", layout)
    # ratings are read as integers: a cell like 1.0 is refused, never cast
    rows = table.parse(
        _EVENT_ROW, lambda cells: (float(cells[0]), int(cells[1]), int(cells[2]))
    )[:, 0]
    meta = table.comment
    try:
        expo_part, horizon_part = meta[len("# exposures0=") :].split(" horizon=")
        initial = np.array([int(x) for x in expo_part.split(",")])
        horizon = float(horizon_part)
    except ValueError as exc:
        raise DataError(f"bad event CSV metadata line: {meta!r}") from exc
    return EventStream(
        times=rows["time"],
        sources=rows["from"] - 1,
        targets=rows["to"] - 1,
        initial_exposures=initial,
        horizon=horizon,
    )
