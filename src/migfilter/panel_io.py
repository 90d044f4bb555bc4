"""Ingestion of entity-level rating histories, panel construction,
evaluation metrics and the file formats shared by the command-line tools.

A rating history is a CSV of ``entity_id,date,rating`` rows.  The rating
alphabet is declared by the caller (ordered best to worst) together with a
censor label; an entity spends the time between consecutive events at its
last posted label, and spells at the censor label drop it from exposures
until a real rating reappears.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import io
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError
from .filtering import FilterTrajectory
from .model import EventStream, MigrationPanel, _exposures_at, _whole

if TYPE_CHECKING:
    from .calibrate import EmConfig

__all__ = [
    "RatingPaths",
    "EvaluationReport",
    "ingest_ratings",
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

    def date_range(self) -> tuple[dt.date, dt.date]:
        # paths are date-sorted, so their ends bound every posting
        rated = [path for path in self.events.values() if path]
        if not rated:
            raise DataError("no events ingested")
        return min(path[0][0] for path in rated), max(path[-1][0] for path in rated)


def _record_line(reader, row: list[str]) -> int:
    """The physical line on which ``row``, the record ``reader`` read last,
    starts: the reader's line count less the line breaks inside the
    record's fields, where ``\\r\\n``, a lone ``\\r`` and ``\\n`` each end a
    line, as in a file opened with ``newline=""``.  A quoted cell still
    open at the end of a file that ends in a line break counts that break
    as one more line, so its record is numbered one line early."""
    text = ",".join(row)
    return reader.line_num - text.count("\n") - text.count("\r") + text.count("\r\n")


def ingest_ratings(
    source: str | io.TextIOBase,
    alphabet: list[str] | tuple[str, ...],
    censor_label: str = "W",
) -> RatingPaths:
    """Read a rating-history CSV into per-entity paths.

    ``source`` is a path or an open text stream with header
    ``entity_id,date,rating`` and ISO-8601 dates.  Labels outside the
    alphabet (censor label aside) are rejected, and so is an entity id that
    is blank or holds a line break; malformed rows are reported with the
    physical line each starts on (see :func:`_record_line`); several
    postings of one entity on the same date keep the last one and count as
    duplicates.

    Each distinct raw text of a column is stripped, parsed and checked once:
    a raw date maps to its date, a raw label to its checked label and a raw
    entity id to that entity's postings, in dicts that live for this call
    only.  A text that fails is never kept, so every bad line is reported;
    line numbers are worked out only for the lines reported.
    """
    alphabet = tuple(alphabet)
    if censor_label in alphabet:
        raise DataError(f"censor label {censor_label!r} must not be in the alphabet")
    if len(set(alphabet)) != len(alphabet):
        raise DataError("alphabet labels must be distinct")
    problems: list[str] = []
    rows: dict[str, dict[dt.date, str]] = {}
    postings_of: dict[str, dict[dt.date, str]] = {}
    dates: dict[str, dt.date] = {}
    labels: dict[str, str] = {}
    duplicates = 0
    with _opened(source, "r") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError("empty ratings file")
            if [h.strip() for h in header[:3]] != ["entity_id", "date", "rating"]:
                raise DataError(
                    f"expected header entity_id,date,rating, got {','.join(header)}"
                )
            for row in reader:
                if len(row) < 3:
                    if row and (len(row) > 1 or row[0].strip()):
                        problems.append(
                            f"line {_record_line(reader, row)}: expected 3 fields, got {len(row)}"
                        )
                    continue
                raw_entity, raw_date, raw_label = row[0], row[1], row[2]
                per_entity = postings_of.get(raw_entity)
                if per_entity is None:
                    entity = raw_entity.strip()
                    if not entity:
                        problems.append(f"line {_record_line(reader, row)}: blank entity_id")
                        continue
                    if "\n" in entity or "\r" in entity:
                        problems.append(
                            f"line {_record_line(reader, row)}: line break in entity_id {entity!r}"
                        )
                        continue
                    per_entity = postings_of[raw_entity] = rows.setdefault(entity, {})
                date = dates.get(raw_date)
                if date is None:
                    date_text = raw_date.strip()
                    try:
                        date = dates[raw_date] = dt.date.fromisoformat(date_text)
                    except ValueError:
                        problems.append(f"line {_record_line(reader, row)}: bad date {date_text!r}")
                        continue
                label = labels.get(raw_label)
                if label is None:
                    label = raw_label.strip()
                    if label != censor_label and label not in alphabet:
                        problems.append(
                            f"line {_record_line(reader, row)}: unknown rating {label!r}"
                        )
                        continue
                    labels[raw_label] = label
                if date in per_entity:
                    duplicates += 1
                per_entity[date] = label
        except csv.Error as exc:  # the reader gives up on the rest of the file
            problems.append(f"line {reader.line_num}: {exc}")
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
    step_days = _whole(step_days, "step_days", 1)
    first, last = paths.date_range()
    if origin_date is None:
        origin_date = first
    if num_steps is None:
        num_steps = max(1, -(-(last - origin_date).days // step_days))
    num_steps = _whole(num_steps, "num_steps", 0)
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
        byte, with every series value a float.  That indenting encoder is
        pure Python, so the series lists, most of the text, are built from
        the values of all series rendered in one :func:`_float_texts` pass
        and spliced in."""
        doc = {
            "step_length_days": self.step_length_days,
            "r2": {f"{j}->{k}": val for (j, k), val in self.r2.items()},
            "skipped": [f"{j}->{k}" for j, k in self.skipped],
            "series": {
                f"{j}->{k}": {"predicted": _SLOT, "realized": _SLOT} for j, k in self.series
            },
        }
        parts = json.dumps(doc, indent=2).split(json.dumps(_SLOT))
        series = [np.ravel(values) for pair in self.series.values() for values in pair]
        texts = _float_texts(np.concatenate([np.empty(0), *series]), _json_texts)
        ends = np.cumsum([len(values) for values in series]).tolist()
        lists = (_series_json(texts[end - len(values) : end]) for values, end in zip(series, ends))
        return parts[0] + "".join(text + part for text, part in zip(lists, parts[1:]))


# stands in for each series list in the report skeleton; no key or label
# of the report renders as this string's JSON
_SLOT = "\0"


def _series_json(items: list[str]) -> str:
    """A series list of item texts as ``json.dumps(..., indent=2)`` renders
    it at the depth of the report's series (items 8 spaces in, the bracket
    6)."""
    if not items:
        return "[]"
    return "[\n" + 8 * " " + (",\n" + 8 * " ").join(items) + "\n" + 6 * " " + "]"


def _float_texts(values: np.ndarray, render) -> list:
    """The texts of the floats of ``values``, as nested lists shaped like
    ``values`` (as :meth:`numpy.ndarray.tolist` gives its floats).

    ``render`` (:func:`_repr_texts` or :func:`_json_texts`) turns a float
    array into an object array of its entries' texts.  It is called once,
    on an array that holds each distinct float64 bit pattern of ``values``
    once, so ``-0.0`` and ``0.0`` keep their own texts and every NaN reads
    as its renderer spells it.  Filtered forecasts and realized ratios
    repeat most of their values, and ``repr`` of a double is the bulk of a
    writer's time.  Forecasts repeat whole rows too, so the trajectory and
    forecast writers pass their leading cells and only their distinct
    forecast rows (:func:`_keyed_lines`).
    """
    values = np.ascontiguousarray(values, dtype=float)
    bits, code = np.unique(values.view(np.int64).reshape(-1), return_inverse=True)
    return render(bits.view(float))[code].reshape(values.shape).tolist()


def _repr_texts(floats: np.ndarray) -> np.ndarray:
    """Each float's ``repr``, the text a CSV cell holds (it reads back
    exactly), in an object array."""
    return np.fromiter(map(repr, floats.tolist()), dtype=object, count=floats.size)


def _json_texts(floats: np.ndarray) -> np.ndarray:
    """Each float as the json module writes it, in an object array: its
    ``repr``, or ``NaN``, ``Infinity`` or ``-Infinity``."""
    texts = _repr_texts(floats)
    for i in np.flatnonzero(~np.isfinite(floats)).tolist():
        texts[i] = json.dumps(floats[i].item())
    return texts


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
    needed = (panel.steps, panel.p, panel.p)
    if predicted_ratios.shape != needed:
        raise DataError(
            f"forecasts have shape {predicted_ratios.shape}, but a panel of "
            f"{panel.steps} steps and {panel.p} ratings needs {needed}"
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
    # looked up per call, so a wrapper installed on either module attribute is seen
    from .calibrate import em_fit
    from .filtering import run_filter

    initial_steps = _whole(initial_steps, "initial_steps", 1)
    refit_every = _whole(refit_every, "refit_every", 1)
    if initial_steps >= panel.steps:
        raise DataError("initial_steps must split the panel")

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
    _write_lines(target, header, (",".join(map(str, row)) for row in rows), comment)


def _write_lines(target, header, lines, comment: str | None) -> None:
    """:func:`_write_table` of rows already joined into lines."""
    with _opened(target, "w") as handle:
        if comment is not None:
            handle.write(f"# {comment}\n")
        handle.write(",".join(header) + "\r\n")
        handle.writelines(line + "\r\n" for line in lines)


def _keyed_lines(lead: np.ndarray, block: np.ndarray) -> list[str]:
    """The lines of a float table whose row ``i`` is row ``i`` of ``lead``
    followed by row ``i`` of ``block``, or by blank cells past the last row
    of ``block``.

    Filtered forecasts repeat whole rows, so the rows of ``block`` are
    keyed by their bytes, and each distinct row is joined once; each line
    is then its leading cells' text plus its row's text.  ``lead`` and the
    distinct rows go through one :func:`_float_texts` pass, so no float is
    rendered twice.
    """
    lead = np.ascontiguousarray(lead, dtype=float)
    block = np.ascontiguousarray(block, dtype=float)
    index: dict[bytes, int] = {}
    code = [index.setdefault(row.tobytes(), len(index)) for row in block]
    distinct = np.frombuffer(b"".join(index))
    texts = _float_texts(np.concatenate([lead.ravel(), distinct]), _repr_texts)
    (_, width), rest, cells = lead.shape, block.shape[1], texts[lead.size :]
    heads = [",".join(texts[i : i + width]) for i in range(0, lead.size, width)]
    rows = [",".join(["", *cells[k * rest : k * rest + rest]]) for k in range(len(index))]
    tails = [rows[i] for i in code] + ["," * rest]
    return [head + tail for head, tail in zip(heads, tails)]


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

    def parse(self, dtype, rule) -> np.ndarray:
        """The body rows as an array of ``dtype``, one table row per line
        (a record dtype gives one column of records), read in one
        ``np.loadtxt`` call: :meth:`parse_keyed` with every cell leading."""
        return self.parse_keyed(dtype, rule, slice(None), len(self.header))

    def parse_keyed(self, dtype, rule, rows: slice, lead: int) -> np.ndarray:
        """:meth:`parse`, with the text after the first ``lead`` cells of
        each line read once per distinct text when ``lead`` is short of the
        header and a sample of the lines repeats enough of those texts
        (:func:`_keying_pays`): one ``np.loadtxt`` call for the leading
        cells of every line and one for the distinct texts, gathered back
        into rows.  Identical texts parse identically, so every cell is
        still checked.  Keying needs ``lead >= 2``, so that each line's
        leading text holds a comma (``loadtxt`` skips an empty line).

        :meth:`by_rule` reads the block instead when a call refuses it or
        is not shown it: an empty block (on which it warns), a line not as
        wide as the header, an empty text after the leading cells (which it
        skips), or a line it might read where the row rule refuses it,
        which holds non-ASCII text (its integer parser takes some letters
        for digits) or ``\\x1f`` (which it takes for a blank).
        """
        lines = self.lines[rows]
        commas = len(self.header) - 1
        if lines and all(
            line.count(",") == commas and line.isascii() and "\x1f" not in line for line in lines
        ):
            try:
                if lead <= commas and _keying_pays(lines, lead):
                    return _keyed_loadtxt(lines, lead, dtype)
                return _loadtxt(lines, dtype)
            except ValueError:
                pass
        return self.by_rule(dtype, rule, rows)

    def by_rule(self, dtype, rule, rows: slice) -> np.ndarray:
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


def _loadtxt(lines: list[str], dtype) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", comments=None, dtype=dtype, ndmin=2)


def _keying_pays(lines: list[str], lead: int) -> bool:
    """Whether at most three quarters of the texts after the first ``lead``
    cells are distinct in a strided sample of about 64 lines.  Keying costs
    a Python split of every line and a second ``loadtxt`` call, about a
    sixth of one call on the whole lines, so on a table with fewer repeats
    one call on the whole lines is faster."""
    sample = lines[:: max(1, len(lines) // 64)]
    return 4 * len({line.split(",", lead)[-1] for line in sample}) <= 3 * len(sample)


def _keyed_loadtxt(lines: list[str], lead: int, dtype) -> np.ndarray:
    """The rows of ``lines``, each parsed as ``dtype``, with the text after
    the first ``lead`` cells of each line parsed once per distinct text;
    ``ValueError`` if a call refuses the texts or a text is empty."""
    tails = [line.split(",", lead)[-1] for line in lines]
    heads = [line[: len(line) - len(tail) - 1] for line, tail in zip(lines, tails)]
    index: dict[str, int] = {}
    code = [index.setdefault(tail, len(index)) for tail in tails]
    if "" in index:
        raise ValueError("loadtxt skips an empty line")
    return np.hstack([_loadtxt(heads, dtype), _loadtxt(list(index), dtype)[code]])


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
    before step/interval ``t`` (the final state row carries no forecast).
    Each distinct forecast row is rendered once (:func:`_keyed_lines`)."""
    probs, predicted = trajectory.probs_matrix(), trajectory.predicted_ratios
    (n, p, _), m = predicted.shape, probs.shape[1]
    header = ["t", *_columns("I", m), *_columns("nu", p, p)]
    states = np.column_stack([trajectory.time_index, probs])
    _write_lines(target, header, _keyed_lines(states, predicted.reshape(n, p * p)), None)


def trajectory_from_csv(source: str | io.TextIOBase) -> FilterTrajectory:
    """Inverse of :func:`trajectory_to_csv`: every row but the last carries
    a forecast, the last none; malformed input raises :class:`DataError`
    naming its line.

    The rows before the last are read by :meth:`_Table.parse_keyed`: when
    their forecasts repeat, their ``t`` and ``I_`` cells in one call and
    each distinct forecast text once in another.  The last row, with its
    blank forecast, is the row rule's."""

    def layout(_comment, header):
        m = sum(1 for h in header if h.startswith("I_"))
        n_nu = len(header) - 1 - m
        if n_nu > 0 and math.isqrt(n_nu) ** 2 != n_nu:
            raise ValueError(f"{n_nu} nu_ columns do not form a p x p block")
        p = math.isqrt(max(n_nu, 0))
        if m == 0 or header != ["t", *_columns("I", m), *_columns("nu", p, p)]:
            raise ValueError(f"header {','.join(header)!r} is not t,I_1..I_m,nu_1_1..nu_p_p")
        return m, p

    def rule(cells):
        # a forecast is all blank, read as NaN, or every cell of it parses
        nu = cells[1 + m :]
        return [float(x) for x in cells[: 1 + m]] + (
            [float(x) for x in nu] if any(nu) else [math.nan] * (p * p)
        )

    table, (m, p) = _read_table(source, "trajectory CSV", layout)
    n = len(table.lines) - 1
    if n < 0:
        raise DataError("trajectory CSV holds no states")
    values = np.concatenate(
        [table.parse_keyed(float, rule, slice(n), 1 + m), table.by_rule(float, rule, slice(n, None))]
    )
    # only a row whose forecast reads all NaN can have left it blank
    blank = "," * (p * p)
    for row in np.flatnonzero(np.isnan(values[:n, 1 + m :]).all(axis=1)):
        if table.lines[row].endswith(blank):
            raise DataError(
                f"trajectory CSV line {table.line_nos[row]}: no forecast before the last row"
            )
    if not table.lines[n].endswith(blank):
        raise DataError(f"trajectory CSV line {table.line_nos[n]}: the last row carries a forecast")
    return FilterTrajectory(
        probs=values[:, 1 : 1 + m],
        time_index=values[:, 0],
        predicted_ratios=values[:n, 1 + m :].reshape(n, p, p),
        loglik=np.nan,
    )


_EVENT_ROW = np.dtype([("time", float), ("from", np.int64), ("to", np.int64)])


def events_to_csv(stream: EventStream, target: str | io.TextIOBase) -> None:
    """Event CSV: a comment line with the time-zero exposures and horizon,
    then ``time,from_rating,to_rating`` rows (1-based rating labels).

    The format carries no boundary exposure track, so a stream whose
    boundary exposures differ from what its events imply (a panel with
    entry or censoring, spread) raises :class:`DataError`; keep such a
    stream in memory, or re-spread it from its panel.
    """
    # overrides placed past every query: the exposures the events imply
    never = np.full(stream.boundary_times.shape, np.inf)
    implied = _exposures_at(stream, stream.boundary_times, stream.times, never)
    if not np.array_equal(implied, stream.boundary_exposures):
        raise DataError(
            "the event CSV holds no boundary exposures, and this stream's "
            "differ from what its events imply (entry or censoring)"
        )
    y0 = ",".join(str(int(x)) for x in stream.initial_exposures)
    rows = zip(stream.times.tolist(), (stream.sources + 1).tolist(), (stream.targets + 1).tolist())
    comment = f"exposures0={y0} horizon={stream.horizon!r}"
    _write_table(target, ["time", "from_rating", "to_rating"], rows, comment)


def events_from_csv(source: str | io.TextIOBase) -> EventStream:
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
