"""The bulk CSV readers, the spliced report encoder and the render-once
float writer against the references they sped up.

Every numeric CSV is read by ``np.loadtxt``: panel and event files in one
call, trajectory files whose forecasts repeat in two, one for the state
cells of every line and one for each distinct forecast text.  The per-row
rule (:meth:`panel_io._Table.by_rule`) is the reference that also reads
what those calls refuse.  Both paths must return equal arrays, bit for bit and
dtype for dtype, and raise the same errors.  ``EvaluationReport.to_json``
must equal the whole-document ``json.dumps(doc, indent=2)`` it replaced,
kept here as :func:`reference_report_json`.  ``panel_io._float_texts``
must give every cell the text ``repr`` or ``json.dumps`` gives it, while
rendering each distinct bit pattern once.
"""

import io
import json
import math
from unittest.mock import patch

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import migfilter as mf
from migfilter import panel_io as pio
from migfilter.cli import main
from migfilter.errors import DataError, ModelError

from conftest import TRICKY_FLOATS, float_array, float_values

FIELDS = {
    pio.panel_from_csv: ("exposures", "counts", "step_length_days"),
    pio.trajectory_from_csv: ("probs", "time_index", "predicted_ratios", "loglik"),
    pio.events_from_csv: ("times", "sources", "targets", "initial_exposures", "horizon"),
}
SPECIAL = ["nan", "NaN", "inf", "-inf", "Infinity", "-0.0", "5e-324", "1e308", "1E308", "0.1"]


def _outcome(reader, text):
    """The reader's fields as (dtype, shape, bytes), or its error."""
    try:
        got = reader(io.StringIO(text))
    except (DataError, ModelError) as exc:
        return type(exc).__name__, str(exc)
    fields = {}
    for name in FIELDS[reader]:
        a = np.asarray(getattr(got, name))
        fields[name] = (a.dtype, a.shape, a.tobytes())
    return fields


def read_both(reader, text):
    """The reader's outcome on the bulk path and on the row rule alone, and
    how many rows the row rule read on the bulk path."""
    by_rule = pio._Table.by_rule
    rule_rows = []

    def counting(self, dtype, rule, rows=slice(None)):
        rule_rows.append(len(self.lines[rows]))
        return by_rule(self, dtype, rule, rows)

    def rule_only(self, dtype, rule, rows, lead):
        return by_rule(self, dtype, rule, rows)

    with patch.object(pio._Table, "by_rule", counting):
        bulk = _outcome(reader, text)
    # every bulk read goes through parse_keyed, parse included
    with patch.object(pio._Table, "parse_keyed", rule_only):
        reference = _outcome(reader, text)
    return bulk, reference, sum(rule_rows)


def float_cells():
    return st.one_of(st.sampled_from(SPECIAL), st.floats().map(repr))


def int_cell(value):
    return st.sampled_from([f"{value}", f"+{value}", f" {value}", f"{value} ", f"0{value}"])


@st.composite
def body(draw, rows):
    """Rows joined by CRLF or LF, with blank lines among them."""
    out = []
    for row in rows:
        out.extend(draw(st.lists(st.sampled_from(["", "   ", "\t"]), max_size=1)))
        out.append(row)
    return draw(st.sampled_from(["\r\n", "\n"])).join(out) + "\n"


@st.composite
def panel_files(draw):
    p = draw(st.integers(1, 3))
    counts = draw(
        st.lists(st.lists(st.integers(0, 9), min_size=p * p, max_size=p * p), max_size=6)
    )
    header = ",".join(["t", *pio._columns("Y", p), *pio._columns("N", p, p)])
    rows = []
    for t, flat in enumerate(counts, start=1):
        exposures = np.array(flat).reshape(p, p).sum(axis=1)
        cells = [str(t), *map(str, exposures), *map(str, flat)]
        rows.append(",".join(draw(int_cell(c)) for c in cells))
    return header + "\n" + draw(body(rows))


def forecast_cells():
    """A forecast cell: mostly a float, sometimes padded, blank or bad."""
    return st.one_of(
        float_cells(),
        float_cells().map(lambda cell: f" {cell}"),
        float_cells().map(lambda cell: f"{cell}\t"),
        st.sampled_from(["", " ", "x", "1_0", "0x1p-2"]),
    )


@st.composite
def trajectory_files(draw, pooled=False):
    """A trajectory file; ``pooled`` draws its forecast rows from a pool
    of at most three, as a filter sure of its regime repeats them, with
    forecast cells that are at times padded, blank or malformed."""
    m, p = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    n = draw(st.integers(0, 8 if pooled else 5))
    header = ",".join(["t", *pio._columns("I", m), *pio._columns("nu", p, p)])
    if pooled:
        row = st.lists(forecast_cells(), min_size=p * p, max_size=p * p)
        forecasts = st.sampled_from(draw(st.lists(row, min_size=1, max_size=3)))
    else:
        forecasts = st.lists(float_cells(), min_size=p * p, max_size=p * p)
    rows = []
    for i in range(n + 1):
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
        if sum(weights) > 0:
            law = [repr(w / sum(weights)) for w in weights]
        else:
            law = ["1.0"] + [draw(st.sampled_from(["0.0", "-0.0", "0", "0e0"])) for _ in weights[1:]]
        nu = draw(forecasts) if i < n else [""] * (p * p)
        rows.append(",".join([draw(float_cells()), *law, *nu]))
    return header + "\n" + draw(body(rows))


@st.composite
def event_files(draw):
    p = draw(st.integers(2, 3))
    times = sorted(
        draw(st.lists(st.one_of(st.sampled_from([5e-324, 0.5, 1e308]), st.floats(5e-324, 1e308)),
                      unique=True, max_size=8))
    )
    horizon = max(times, default=1.0)
    exposures = ",".join(str(draw(st.integers(0, 50))) for _ in range(p))
    rows = []
    for time in times:
        src, dst = draw(st.lists(st.integers(1, p), min_size=2, max_size=2, unique=True))
        rows.append(",".join([repr(time), draw(int_cell(src)), draw(int_cell(dst))]))
    return (
        f"# exposures0={exposures} horizon={horizon!r}\ntime,from_rating,to_rating\n"
        + draw(body(rows))
    )


class TestBulkReadersMatchTheRowRule:
    @settings(max_examples=150, deadline=None)
    @given(text=panel_files())
    def test_panel(self, text):
        bulk, reference, rule_rows = read_both(pio.panel_from_csv, text)
        assert bulk == reference and rule_rows == 0

    @settings(max_examples=150, deadline=None)
    @given(text=trajectory_files())
    def test_trajectory(self, text):
        bulk, reference, rule_rows = read_both(pio.trajectory_from_csv, text)
        # the last row, with its blank forecast, is the row rule's
        assert bulk == reference and rule_rows == 1

    @settings(max_examples=200, deadline=None)
    @given(text=trajectory_files(pooled=True))
    def test_trajectory_with_repeated_forecasts(self, text):
        bulk, reference, rule_rows = read_both(pio.trajectory_from_csv, text)
        assert bulk == reference
        # unless it raised, the row rule read the last row, or every row of
        # a refused block
        rows = sum(1 for line in text.splitlines()[1:] if line.strip())
        assert isinstance(bulk, tuple) or rule_rows in (1, rows)

    @settings(max_examples=150, deadline=None)
    @given(text=event_files())
    def test_events(self, text):
        bulk, reference, rule_rows = read_both(pio.events_from_csv, text)
        assert bulk == reference and rule_rows == 0

    def test_loadtxt_reads_each_distinct_forecast_text_once(self, monkeypatch):
        _, law = mf.demo_model(2, 3, spread=6.0)
        path = np.resize([0, 0, 1, 1, 1, 0], 40)
        # a filter sure of the hidden path gives one forecast per state
        traj = mf.FilterTrajectory(np.eye(2)[path], np.arange(40.0), law.per_state[path[:-1]], 0.0)
        buf = io.StringIO()
        pio.trajectory_to_csv(traj, buf)
        body = buf.getvalue().splitlines()[1:-1]
        tails = [line.split(",", 3)[3] for line in body]
        calls = []
        loadtxt = np.loadtxt

        def spy(lines, *args, **kwargs):
            calls.append(list(lines))
            return loadtxt(lines, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        back = pio.trajectory_from_csv(io.StringIO(buf.getvalue()))
        heads = [line[: -len(tail) - 1] for line, tail in zip(body, tails)]
        assert calls == [heads, list(dict.fromkeys(tails))] and len(calls[1]) == 2
        assert back.predicted_ratios.tobytes() == traj.predicted_ratios.tobytes()
        assert back.probs_matrix().tobytes() == traj.probs_matrix().tobytes()

    def test_loadtxt_reads_whole_lines_when_forecasts_do_not_repeat(self, monkeypatch):
        rng = np.random.default_rng(3)
        traj = mf.FilterTrajectory(
            rng.dirichlet(np.ones(2), size=41), np.arange(41.0), rng.random((40, 3, 3)), 0.0
        )
        buf = io.StringIO()
        pio.trajectory_to_csv(traj, buf)
        calls = []
        loadtxt = np.loadtxt

        def spy(lines, *args, **kwargs):
            calls.append(list(lines))
            return loadtxt(lines, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        back = pio.trajectory_from_csv(io.StringIO(buf.getvalue()))
        # keying 40 distinct texts would cost a split per line and win nothing
        assert calls == [buf.getvalue().splitlines()[1:-1]]
        assert back.predicted_ratios.tobytes() == traj.predicted_ratios.tobytes()

    @pytest.mark.parametrize(
        "line", ["5", "0,1", "0,1,0.5,0.5"], ids=["no-comma", "one-short", "one-over"]
    )
    def test_a_line_of_the_wrong_width_never_reaches_loadtxt(self, line, monkeypatch):
        """Sized first, as the row rule sizes it: a comma-less line would
        cut to an empty head, which ``loadtxt`` skips with a warning."""
        text = f"t,I_1,nu_1_1\n{line}\n0,1,\n"
        monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: pytest.fail("loadtxt called"))
        bulk, reference, _ = read_both(pio.trajectory_from_csv, text)
        assert bulk == reference
        assert bulk == ("DataError", f"trajectory CSV line 2: {line.count(',') + 1} fields, not 3")

    def test_empty_blocks_read_without_warnings(self):
        # n_steps == 0 and an event file with no events never reach loadtxt
        traj = pio.trajectory_from_csv(io.StringIO("t,I_1,I_2,nu_1_1\n0.0,0.5,0.5,\n"))
        assert traj.n_steps == 0 and traj.predicted_ratios.shape == (0, 1, 1)
        stream = pio.events_from_csv(
            io.StringIO("# exposures0=2,2 horizon=5.0\ntime,from_rating,to_rating\n\n")
        )
        assert stream.times.dtype == float and stream.sources.dtype == np.int64


class TestCellsOnlyTheRowRuleReads:
    @pytest.mark.parametrize(
        "reader, text, plain",
        [
            pytest.param(pio.panel_from_csv,
                         "t,Y_1,Y_2,N_1_1,N_1_2,N_2_1,N_2_2\n1,1_0,٢,1_0,0,٠,2\n",
                         "t,Y_1,Y_2,N_1_1,N_1_2,N_2_1,N_2_2\n1,10,2,10,0,0,2\n", id="panel"),
            pytest.param(pio.trajectory_from_csv,
                         "t,I_1,I_2,nu_1_1\n0.0,0.5,0.5,1_0.5\n1_0.0,٠.٥,0.5,\n",
                         "t,I_1,I_2,nu_1_1\n0.0,0.5,0.5,10.5\n10.0,0.5,0.5,\n", id="trajectory"),
            pytest.param(pio.events_from_csv,
                         "# exposures0=2,2 horizon=5.0\ntime,from_rating,to_rating\n1.0,١,2\n",
                         "# exposures0=2,2 horizon=5.0\ntime,from_rating,to_rating\n1.0,1,2\n",
                         id="events"),
        ],
    )
    def test_python_only_cells_read_as_before(self, reader, text, plain):
        bulk, reference, rule_rows = read_both(reader, text)
        assert bulk == reference == _outcome(reader, plain) and rule_rows > 0

    @pytest.mark.parametrize(
        "cell",
        [
            pytest.param("\x1f1", id="unit-separator"),  # loadtxt reads it as blank space
            pytest.param("Ǿ1", id="non-ascii"),  # loadtxt's integer parser reads 4621
            pytest.param("1.0", id="float-in-int-column"),
        ],
    )
    def test_cells_loadtxt_would_misread_keep_their_errors(self, cell):
        text = f"t,Y_1,N_1_1\n1,{cell},1\n"
        bulk, reference, _ = read_both(pio.panel_from_csv, text)
        assert bulk == reference
        assert bulk[0] == "DataError" and bulk[1].startswith("panel CSV line 2: invalid literal")


def reference_report_json(report) -> str:
    """The encoder ``to_json`` replaced: the pure-Python indenting encoder
    over the whole document."""
    doc = {
        "step_length_days": report.step_length_days,
        "r2": {f"{j}->{k}": val for (j, k), val in report.r2.items()},
        "skipped": [f"{j}->{k}" for j, k in report.skipped],
        "series": {
            f"{j}->{k}": {"predicted": pred.tolist(), "realized": real.tolist()}
            for (j, k), (pred, real) in report.series.items()
        },
    }
    return json.dumps(doc, indent=2)


series_values = st.lists(float_values, max_size=8).map(lambda cells: float_array(cells, -1))


class TestReportJson:
    @pytest.mark.parametrize(
        "report",
        [
            pytest.param(
                pio.EvaluationReport(
                    r2={(0, 1): math.nan, (1, 0): -math.inf},
                    series={
                        (0, 1): (np.array([math.nan, math.inf, -0.0, 5e-324]),
                                 np.array([0.25, 1e308, -math.inf, math.nan])),
                        (1, 0): (np.array([]), np.array([])),
                    },
                    step_length_days=30,
                    skipped=((0, 2),),
                ),
                id="nan-forecasts-and-empty-series",
            ),
            pytest.param(
                pio.EvaluationReport(
                    r2={(0, 1): 0.5, (2, 1): -0.0},
                    series={(0, 1): (TRICKY_FLOATS, TRICKY_FLOATS[::-1]),
                            (2, 1): (np.resize(TRICKY_FLOATS, 30), np.array([-0.0, 0.0] * 3))},
                    step_length_days=1,
                ),
                id="signed-zeros-nan-payloads-and-repeats",
            ),
            pytest.param(pio.EvaluationReport({}, {}, 1.5), id="empty"),
            pytest.param(pio.EvaluationReport({}, {}, 1, ((0, 1), (1, 0))), id="skipped-only"),
        ],
    )
    def test_matches_the_whole_document_encoder(self, report):
        assert report.to_json() == reference_report_json(report)

    @settings(max_examples=100, deadline=None)
    @given(
        series=st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.tuples(series_values, series_values),
            max_size=4,
        ),
        step=st.sampled_from([1, 30, 0.5]),
    )
    def test_random_reports(self, series, step):
        r2 = {key: float(pred[0]) if pred.size else math.nan for key, (pred, _) in series.items()}
        report = pio.EvaluationReport(r2, series, step, tuple(series)[:1])
        assert report.to_json() == reference_report_json(report)

    def test_scored_filter_report(self):
        factor, law = mf.demo_model(2, 3)
        cfg = mf.SimulationConfig(np.array([60, 60, 60]), 30, seed=4)
        panel, _ = mf.simulate_panel_discrete(factor, law, cfg)
        report = pio.evaluate_predictions(panel, mf.run_filter(panel, factor, law))
        assert report.series
        assert report.to_json() == reference_report_json(report)


def bit_patterns(values) -> set[int]:
    return set(np.asarray(values, dtype=float).view(np.int64).ravel().tolist())


class TestFloatTexts:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), rows=st.integers(0, 6), width=st.integers(1, 5))
    def test_every_cell_reads_as_its_reference_text(self, data, rows, width):
        cells = data.draw(st.lists(float_values, min_size=rows * width, max_size=rows * width))
        values = float_array(cells, (rows, width))
        assert pio._float_texts(values, pio._repr_texts) == [
            [repr(x) for x in row] for row in values.tolist()
        ]
        assert pio._float_texts(values.ravel(), pio._json_texts) == [
            json.dumps(x) for x in values.ravel().tolist()
        ]

    def test_renderer_gets_each_bit_pattern_once(self):
        values = np.concatenate([np.resize(TRICKY_FLOATS, (7, 5)), np.full((2, 5), 0.25)])
        calls = []

        def spy(floats):
            calls.append(floats.copy())
            return pio._repr_texts(floats)

        texts = pio._float_texts(values, spy)
        assert texts == [[repr(x) for x in row] for row in values.tolist()]
        assert len(calls) == 1
        seen = calls[0].view(np.int64).tolist()
        assert len(seen) == len(set(seen)) and set(seen) == bit_patterns(values)

    @pytest.mark.parametrize("writer", ["trajectory", "forecast", "report"])
    def test_writers_render_each_bit_pattern_once(self, writer, monkeypatch, tmp_path):
        """Every float a writer puts on disk goes through one render-once
        pass per file, so repeats cost no render."""
        factor, law = mf.demo_model(2, 3, spread=6.0)
        panel, path = mf.simulate_panel_discrete(
            factor, law, mf.SimulationConfig(np.array([40, 40, 40]), 60, seed=5)
        )
        # a filter sure of the hidden path: its laws and forecasts repeat
        traj = mf.FilterTrajectory(np.eye(2)[path], np.arange(61.0), law.per_state[path[:-1]], 0.0)
        rendered = []
        name = "_json_texts" if writer == "report" else "_repr_texts"
        original = getattr(pio, name)

        def counted(floats):
            rendered.append(floats.size)
            return original(floats)

        monkeypatch.setattr(pio, name, counted)
        if writer == "trajectory":
            pio.trajectory_to_csv(traj, str(tmp_path / "traj.csv"))
            states = np.column_stack([traj.time_index, traj.probs_matrix()])
            tables = [np.concatenate([states.ravel(), traj.predicted_ratios.ravel()])]
        elif writer == "forecast":
            model, traj_path = tmp_path / "model.json", tmp_path / "traj.csv"
            out = tmp_path / "nu.csv"
            model.write_text(mf.model_to_json(factor, law))
            pio.trajectory_to_csv(traj, str(traj_path))
            rendered.clear()
            done = CliRunner().invoke(
                main,
                ["forecast", "--model", str(model), "--trajectory", str(traj_path),
                 "--out", str(out)],
            )
            assert done.exit_code == 0, done.output
            tables = [np.loadtxt(out, delimiter=",", skiprows=1)]
        else:
            doc = json.loads(pio.evaluate_predictions(panel, traj).to_json())
            tables = [[x for pair in doc["series"].values() for key in pair for x in pair[key]]]
        assert rendered == [len(bit_patterns(table)) for table in tables]
        assert sum(rendered) < sum(np.size(table) for table in tables) / 2
