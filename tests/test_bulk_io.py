"""The bulk CSV readers and the spliced report encoder against the
references they sped up.

Every numeric CSV is read in one ``np.loadtxt`` call, with the per-row rule
(:meth:`panel_io._Table.by_rule`) as the reference that also reads what
that call refuses.  Both paths must return equal arrays, bit for bit and
dtype for dtype, and raise the same errors.  ``EvaluationReport.to_json``
must equal the whole-document ``json.dumps(doc, indent=2)`` it replaced,
kept here as :func:`reference_report_json`.
"""

import io
import json
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import migfilter as mf
from migfilter import panel_io as pio
from migfilter.errors import DataError, ModelError

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

    with patch.object(pio._Table, "by_rule", counting):
        bulk = _outcome(reader, text)
    with patch.object(pio._Table, "parse", by_rule):
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


@st.composite
def trajectory_files(draw):
    m, p = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    n = draw(st.integers(0, 5))
    header = ",".join(["t", *pio._columns("I", m), *pio._columns("nu", p, p)])
    rows = []
    for i in range(n + 1):
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
        if sum(weights) > 0:
            law = [repr(w / sum(weights)) for w in weights]
        else:
            law = ["1.0"] + [draw(st.sampled_from(["0.0", "-0.0", "0", "0e0"])) for _ in weights[1:]]
        nu = [draw(float_cells()) for _ in range(p * p)] if i < n else [""] * (p * p)
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

    @settings(max_examples=150, deadline=None)
    @given(text=event_files())
    def test_events(self, text):
        bulk, reference, rule_rows = read_both(pio.events_from_csv, text)
        assert bulk == reference and rule_rows == 0

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


series_values = st.lists(st.floats(), max_size=5).map(np.array)


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
