import bisect
import collections
import csv
import datetime as dt
import io
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import migfilter as mf
from migfilter import panel_io as pio
from migfilter.errors import DataError

ALPHABET = ("A", "Baa", "Ba", "B", "C")
PANEL_CSV = "t,Y_1,Y_2,N_1_1,N_1_2,N_2_1,N_2_2\n1,2,2,1,1,0,2\n"
TRAJECTORY_CSV = "t,I_1,I_2,nu_1_1,nu_1_2,nu_2_1,nu_2_2\n"
EVENT_CSV = "# exposures0=2,2 horizon=5.0\ntime,from_rating,to_rating\n"
BASE = dt.date(2001, 1, 1)


def rating_index_at(paths, entity, date):
    """Index of the entity's rating on ``date``; None if unobserved or
    censored."""
    path = paths.events.get(entity)
    if not path:
        return None
    pos = bisect.bisect_right(path, date, key=lambda event: event[0])
    if pos == 0 or path[pos - 1][1] == paths.censor_label:
        return None
    return paths.alphabet.index(path[pos - 1][1])


def export_ratings(paths, target):
    """Write paths back in the ingestion CSV format (its round-trip inverse)."""
    writer = csv.writer(target)
    writer.writerow(["entity_id", "date", "rating"])
    for entity, path in paths.events.items():
        for date, label in path:
            writer.writerow([entity, date.isoformat(), label])


def ingest_reference(source, alphabet, censor_label="W"):
    """Reference for ``ingest_ratings``: strip, parse and check every cell of
    every row.  Two rules are added to the per-row loop that
    ``ingest_ratings`` replaced: a blank entity id or one holding a line
    break is a malformed row, and each problem names the physical line its
    record starts on, tracked from the reader's line count before each
    record."""
    alphabet = tuple(alphabet)
    problems, rows, duplicates = [], {}, 0
    reader = csv.reader(source)
    header = next(reader, None)
    if header is None:
        raise DataError("empty ratings file")
    if [h.strip() for h in header[:3]] != ["entity_id", "date", "rating"]:
        raise DataError(f"expected header entity_id,date,rating, got {','.join(header)}")
    next_start = reader.line_num + 1
    for row in reader:
        line_no, next_start = next_start, reader.line_num + 1
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) < 3:
            problems.append(f"line {line_no}: expected 3 fields, got {len(row)}")
            continue
        entity, date_text, label = row[0].strip(), row[1].strip(), row[2].strip()
        if not entity:
            problems.append(f"line {line_no}: blank entity_id")
            continue
        if "\n" in entity or "\r" in entity:
            problems.append(f"line {line_no}: line break in entity_id {entity!r}")
            continue
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
        raise DataError(f"{len(problems)} malformed row(s): " + "; ".join(problems[:10]))
    if not rows:
        raise DataError("ratings file holds no events")
    events = {
        entity: tuple(sorted(per_entity.items()))
        for entity, per_entity in sorted(rows.items())
    }
    return pio.RatingPaths(events, alphabet, censor_label, duplicates)


def snapshot_panel(paths, step_days, origin_date=None, num_steps=None):
    """Reference for ``build_panel``: look every entity up at every snapshot."""
    first, last = paths.date_range()
    if origin_date is None:
        origin_date = first
    if num_steps is None:
        num_steps = max(1, -(-(last - origin_date).days // step_days))
    exposures = np.zeros((num_steps, paths.p), dtype=np.int64)
    counts = np.zeros((num_steps, paths.p, paths.p), dtype=np.int64)
    snaps = [origin_date + dt.timedelta(days=t * step_days) for t in range(num_steps + 1)]
    for entity in paths.events:
        start = rating_index_at(paths, entity, snaps[0])
        for t in range(num_steps):
            end = rating_index_at(paths, entity, snaps[t + 1])
            if start is not None and end is not None:
                exposures[t, start] += 1
                counts[t, start, end] += 1
            start = end
    return exposures, counts


@st.composite
def hand_built_paths(draw):
    """Up to six entities with up to eight postings each, dated from before
    to well past the default origin, censor spells and empty paths included."""
    raw = draw(
        st.lists(
            st.dictionaries(
                st.integers(-40, 400), st.sampled_from(ALPHABET[:3] + ("W",)), max_size=8
            ),
            min_size=1,
            max_size=6,
        )
    )
    events = {
        f"e{i}": tuple(
            (BASE + dt.timedelta(days=day), label) for day, label in sorted(path.items())
        )
        for i, path in enumerate(raw)
    }
    assume(any(events.values()))
    return pio.RatingPaths(events, ALPHABET[:3], "W")


@st.composite
def messy_ratings_file(draw):
    """A ratings CSV whose cells come from small pools, so raw texts repeat:
    spellings of one entity id, date and label that strip to the same text
    (so same-day duplicates hide under different id spellings), quoted
    cells whose line breaks (``\\n``, ``\\r\\n`` or a lone ``\\r``) strip
    away or sit in an extra field, so that valid records span lines,
    over-long rows, blank lines and, in a messy file, blank ids, ids holding
    a line break, bad dates, unknown labels and short rows, each on several
    lines.  Read it with ``newline=""``, as a file named by path is read."""
    messy = draw(st.booleans())
    entities = ["x", " x", "x ", "\tx", "y", "y  ", '"y\r\n"', '"x\r"']
    entities += ["", "  ", '"x\ny"', '"x\rz"'] if messy else []
    dates = ["2005-01-01", " 2005-01-01", "2005-01-01 ", "2005-03-01", "20050301"]
    dates += ['"2005-03-01\r\n"', '"\n2005-01-01"']
    dates += ["2005-13-01", "not-a-date", "", '"2005-\n01-01"'] if messy else []
    labels = ["A", " A", "A ", "Baa", "W", " W", '"A\n"'] + (["Z9", "a", ""] if messy else [])
    line = st.builds(
        lambda entity, date, label, extra: ",".join((entity, date, label, *extra)),
        st.sampled_from(entities),
        st.sampled_from(dates),
        st.sampled_from(labels),
        st.sampled_from([(), ("extra",), ("", ""), ('"e\rf"',)]),
    )
    odd = ["", "   "] + (["x", "x,2005-01-01", " , ", '"x\n,y"'] if messy else [])
    lines = draw(st.lists(st.one_of(line, st.sampled_from(odd)), max_size=40))
    return "entity_id,date,rating\n" + "\n".join(lines) + "\n"


def ratings_csv(rows):
    text = "entity_id,date,rating\n" + "\n".join(
        f"{e},{d},{r}" for e, d, r in rows
    )
    return io.StringIO(text)


class TestIngest:
    def test_single_transition_path(self):
        paths = pio.ingest_ratings(
            ratings_csv([("x", "2005-01-03", "A"), ("x", "2005-06-01", "Baa")]),
            ALPHABET,
        )
        assert rating_index_at(paths, "x", dt.date(2005, 1, 3)) == 0
        assert rating_index_at(paths, "x", dt.date(2005, 5, 31)) == 0
        assert rating_index_at(paths, "x", dt.date(2005, 6, 1)) == 1
        assert rating_index_at(paths, "x", dt.date(2005, 1, 2)) is None

    def test_censoring_gap_excludes_and_reincludes(self):
        paths = pio.ingest_ratings(
            ratings_csv(
                [
                    ("x", "2005-01-01", "A"),
                    ("x", "2005-03-01", "W"),
                    ("x", "2005-09-01", "Ba"),
                ]
            ),
            ALPHABET,
        )
        assert rating_index_at(paths, "x", dt.date(2005, 2, 1)) == 0
        assert rating_index_at(paths, "x", dt.date(2005, 5, 1)) is None
        assert rating_index_at(paths, "x", dt.date(2005, 10, 1)) == 2

    def test_round_trip(self):
        rows = [
            ("a", "2001-01-01", "A"),
            ("a", "2002-01-01", "W"),
            ("b", "2001-06-15", "B"),
            ("b", "2003-02-01", "C"),
        ]
        paths = pio.ingest_ratings(ratings_csv(rows), ALPHABET)
        out = io.StringIO()
        export_ratings(paths, out)
        again = pio.ingest_ratings(io.StringIO(out.getvalue()), ALPHABET)
        assert again.events == paths.events

    def test_duplicate_dates_last_wins_with_count(self):
        paths = pio.ingest_ratings(
            ratings_csv(
                [("x", "2005-01-01", "A"), ("x", "2005-01-01", "Baa")]
            ),
            ALPHABET,
        )
        assert paths.duplicate_count == 1
        assert rating_index_at(paths, "x", dt.date(2005, 1, 1)) == 1

    def test_malformed_rows_reported_with_line_numbers(self):
        bad = io.StringIO(
            "entity_id,date,rating\nx,2005-01-01,A\nx,not-a-date,B\ny,2005-01-01,Z9\n"
        )
        with pytest.raises(DataError) as err:
            pio.ingest_ratings(bad, ALPHABET)
        assert "line 3" in str(err.value)
        assert "line 4" in str(err.value)

    def test_blank_entity_id_is_a_malformed_row(self):
        text = "entity_id,date,rating\n,2005-01-01,A\n  ,2005-02-01,B\nx,2005-01-01,A\n"
        with pytest.raises(DataError) as err:
            pio.ingest_ratings(io.StringIO(text), ALPHABET)
        assert str(err.value) == (
            "2 malformed row(s): line 2: blank entity_id; line 3: blank entity_id"
        )

    @settings(max_examples=400, deadline=None)
    @given(messy_ratings_file())
    def test_matches_per_row_reference(self, text):
        try:
            expected = ingest_reference(io.StringIO(text, newline=""), ALPHABET)
        except DataError as exc:
            with pytest.raises(DataError) as err:
                pio.ingest_ratings(io.StringIO(text, newline=""), ALPHABET)
            assert str(err.value) == str(exc)
        else:
            assert pio.ingest_ratings(io.StringIO(text, newline=""), ALPHABET) == expected

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_problems_name_the_physical_line_their_record_starts_on(self, newline, tmp_path):
        lines = ["entity_id,date,rating", '"x\ny",2005-01-01,A', "z,bad,A",
                 'w,"2005-\r\n01-02",A', 'v,2005-01-01,A,"e\rf"', "u,2005-01-01,Z9",
                 '"t\r","\n2005-01-01",Z9', "s,2005-01-01,Z9"]
        path = tmp_path / "ratings.csv"
        path.write_bytes(newline.join(lines).encode() + newline.encode())
        with pytest.raises(DataError) as err:
            pio.ingest_ratings(str(path), ALPHABET)
        assert str(err.value) == (
            "6 malformed row(s): line 2: line break in entity_id 'x\\ny'; "
            "line 4: bad date 'bad'; line 5: bad date '2005-\\r\\n01-02'; "
            "line 9: unknown rating 'Z9'; line 10: unknown rating 'Z9'; "
            "line 13: unknown rating 'Z9'"
        )
        with open(path, newline="") as handle:
            with pytest.raises(DataError) as ref:
                ingest_reference(handle, ALPHABET)
        assert str(ref.value) == str(err.value)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("entity_id,date,rating\nx\ry,2005-01-01,A\nz,bad,A\n",
             "line 2: new-line character seen in unquoted field"),
            ("entity_id,date,rating\nx,2005-01-01,A\n" + "y" * 131_073 + ",2005-01-01,A\nz,bad,A\n",
             "line 3: field larger than field limit (131072)"),
            ("entity_id,da\rte,rating\nx,2005-01-01,A\n",
             "line 1: new-line character seen in unquoted field"),
        ],
        ids=["lone-cr", "long-cell", "header"],
    )
    def test_csv_reader_error_is_a_malformed_row_ending_the_read(self, text, message):
        # the reader cannot go on past the record it refused, so the rows
        # after it are not read
        with pytest.raises(DataError) as err:
            pio.ingest_ratings(io.StringIO(text), ALPHABET)
        assert str(err.value).startswith(f"1 malformed row(s): {message}")

    def test_entity_id_holding_a_line_break_is_a_malformed_row(self):
        text = 'entity_id,date,rating\n"x\ny",2005-01-01,A\nz,bad,A\n'
        with pytest.raises(DataError) as err:
            pio.ingest_ratings(io.StringIO(text), ALPHABET)
        assert str(err.value) == (
            "2 malformed row(s): line 2: line break in entity_id 'x\\ny'; line 4: bad date 'bad'"
        )

    def test_more_than_ten_problems_report_the_first_ten(self):
        bad = ["x,not-a-date,A", "x,2005-01-01,Z9", ",2005-01-01,A", "x,2005-01-01"]
        text = "entity_id,date,rating\nx,2005-01-01,A\n" + "\n".join(bad * 4) + "\n"
        with pytest.raises(DataError) as err:
            pio.ingest_ratings(io.StringIO(text), ALPHABET)
        with pytest.raises(DataError) as ref:
            ingest_reference(io.StringIO(text), ALPHABET)
        assert str(err.value) == str(ref.value)
        assert str(err.value).startswith("16 malformed row(s): line 3: bad date ")
        assert str(err.value).endswith("; line 12: unknown rating 'Z9'")

    def test_each_distinct_raw_date_text_is_parsed_once(self, monkeypatch):
        calls = collections.Counter()

        def fromisoformat(text):
            calls[text] += 1
            return dt.date.fromisoformat(text)

        spy = types.SimpleNamespace(date=types.SimpleNamespace(fromisoformat=fromisoformat))
        monkeypatch.setattr(pio, "dt", spy)
        raw = ["2005-01-01", " 2005-01-01", "2005-03-01"] * 5
        rows = [(entity, date, "A") for entity in ("x", "y") for date in raw]
        paths = pio.ingest_ratings(ratings_csv(rows), ALPHABET)
        # " 2005-01-01" is its own raw text, so its stripped text is parsed twice
        assert calls == {"2005-01-01": 2, "2005-03-01": 1}
        assert paths.duplicate_count == len(rows) - 4
        # a text that fails is not kept, so each bad line is parsed again
        calls.clear()
        rows = [("x", "2005-01-01", "A"), ("x", "2005-13-01", "A"), ("y", "2005-13-01", "A")]
        with pytest.raises(DataError, match="line 3: bad date .*; line 4: bad date"):
            pio.ingest_ratings(ratings_csv(rows), ALPHABET)
        assert calls == {"2005-01-01": 1, "2005-13-01": 2}

    def test_empty_file_rejected(self):
        with pytest.raises(DataError):
            pio.ingest_ratings(io.StringIO(""), ALPHABET)
        with pytest.raises(DataError):
            pio.ingest_ratings(io.StringIO("entity_id,date,rating\n"), ALPHABET)

    def test_censor_label_cannot_be_a_rating(self):
        with pytest.raises(DataError):
            pio.ingest_ratings(ratings_csv([("x", "2005-01-01", "A")]), ALPHABET, censor_label="A")


class TestBuildPanel:
    def test_constant_entity_stays_diagonal(self):
        paths = pio.ingest_ratings(ratings_csv([("x", "2005-01-01", "Ba")]), ALPHABET)
        panel = pio.build_panel(paths, step_days=10, num_steps=10)
        assert panel.steps == 10
        np.testing.assert_array_equal(panel.exposures[:, 2], np.ones(10))
        assert panel.counts[:, 2, 2].sum() == 10

    def test_mid_interval_move_lands_once(self):
        paths = pio.ingest_ratings(
            ratings_csv([("x", "2005-01-01", "A"), ("x", "2005-01-07", "Baa")]),
            ALPHABET,
        )
        panel = pio.build_panel(paths, step_days=30, num_steps=2)
        assert panel.counts[0, 0, 1] == 1
        assert panel.counts[1, 1, 1] == 1

    def test_entity_censored_at_snapshot_is_dropped_that_interval(self):
        paths = pio.ingest_ratings(
            ratings_csv(
                [
                    ("x", "2005-01-01", "A"),
                    ("x", "2005-01-20", "W"),
                    ("x", "2005-02-15", "A"),
                ]
            ),
            ALPHABET,
        )
        # 30-day intervals from Jan 1: x is censored at the Jan 31 snapshot
        panel = pio.build_panel(paths, step_days=30, num_steps=3)
        assert panel.exposures[0].sum() == 0
        assert panel.exposures[1].sum() == 0
        assert panel.exposures[2].sum() == 1

    def test_row_order_invariance(self):
        rows = [
            ("a", "2001-01-01", "A"),
            ("b", "2001-01-01", "B"),
            ("a", "2001-03-01", "Baa"),
            ("b", "2001-05-01", "C"),
        ]
        p1 = pio.build_panel(pio.ingest_ratings(ratings_csv(rows), ALPHABET), 30)
        p2 = pio.build_panel(
            pio.ingest_ratings(ratings_csv(rows[::-1]), ALPHABET), 30
        )
        np.testing.assert_array_equal(p1.counts, p2.counts)
        np.testing.assert_array_equal(p1.exposures, p2.exposures)

    @settings(max_examples=300, deadline=None)
    @given(
        hand_built_paths(),
        st.sampled_from([1, 7, 30]),
        st.one_of(st.none(), st.integers(-60, 120)),
        st.one_of(st.none(), st.integers(1, 40)),
    )
    def test_matches_snapshot_reference(self, paths, step_days, origin_offset, num_steps):
        origin = None if origin_offset is None else BASE + dt.timedelta(days=origin_offset)
        panel = pio.build_panel(paths, step_days, origin, num_steps)
        exposures, counts = snapshot_panel(paths, step_days, origin, num_steps)
        np.testing.assert_array_equal(panel.exposures, exposures)
        np.testing.assert_array_equal(panel.counts, counts)
        assert panel.step_length_days == step_days

    def test_posting_past_horizon_does_not_join_next_entity(self):
        paths = pio.RatingPaths(
            {
                "a": ((BASE, "A"), (BASE + dt.timedelta(days=500), "Baa")),
                "b": ((BASE + dt.timedelta(days=45), "Ba"),),
                "c": (),
            },
            ALPHABET,
            "W",
        )
        panel = pio.build_panel(paths, step_days=30, num_steps=3)
        expected = np.zeros((3, 5, 5), dtype=np.int64)
        expected[:, 0, 0] = 1
        expected[2, 2, 2] = 1
        np.testing.assert_array_equal(panel.counts, expected)
        assert rating_index_at(paths, "c", BASE) is None

    def test_label_outside_alphabet_and_censor_rejected(self):
        paths = pio.RatingPaths(
            {"x": ((BASE, "A"), (BASE + dt.timedelta(days=9), "Z"))}, ALPHABET, "W"
        )
        with pytest.raises(DataError, match="'Z'"):
            pio.build_panel(paths, step_days=7)

    def test_step_must_be_whole_days(self):
        paths = pio.ingest_ratings(
            ratings_csv([("x", "2005-01-01", "A"), ("x", "2005-01-20", "Baa")]), ALPHABET
        )
        with pytest.raises(DataError, match="whole number"):
            pio.build_panel(paths, step_days=7.5)
        whole = pio.build_panel(paths, step_days=7.0)
        np.testing.assert_array_equal(whole.counts, pio.build_panel(paths, 7).counts)
        assert type(whole.step_length_days) is int

    def test_conservation_holds_for_ingested_data(self):
        rng = np.random.default_rng(1)
        rows = []
        start = dt.date(2000, 1, 1)
        for e in range(30):
            date = start
            label = ALPHABET[rng.integers(0, 5)]
            rows.append((f"e{e}", date.isoformat(), label))
            for _ in range(int(rng.integers(0, 6))):
                date = date + dt.timedelta(days=int(rng.integers(5, 200)))
                label = ALPHABET[rng.integers(0, 5)] if rng.random() > 0.2 else "W"
                rows.append((f"e{e}", date.isoformat(), label))
        panel = pio.build_panel(pio.ingest_ratings(ratings_csv(rows), ALPHABET), 30)
        np.testing.assert_array_equal(panel.counts.sum(axis=2), panel.exposures)

    def test_two_route_aggregation_consistency(self):
        # daily entity-level chains aggregated at 30 days must show the same
        # frequencies as the 30-day law (matrix power), within sampling error
        rng = np.random.default_rng(7)
        daily = np.array(
            [
                [0.995, 0.004, 0.001],
                [0.003, 0.994, 0.003],
                [0.001, 0.004, 0.995],
            ]
        )
        labels = ("A", "Baa", "Ba")
        rows = []
        start = dt.date(2000, 1, 1)
        n_entities, days = 150, 600
        for e in range(n_entities):
            state = int(rng.integers(0, 3))
            rows.append((f"e{e}", start.isoformat(), labels[state]))
            for d in range(1, days):
                nxt = int(rng.choice(3, p=daily[state]))
                if nxt != state:
                    state = nxt
                    rows.append(
                        (f"e{e}", (start + dt.timedelta(days=d)).isoformat(), labels[state])
                    )
        paths = pio.ingest_ratings(ratings_csv(rows), labels)
        panel = pio.build_panel(paths, step_days=30, origin_date=start, num_steps=20)
        thirty = np.linalg.matrix_power(daily, 30)
        exposure = panel.exposures.sum(axis=0)
        freq = panel.counts.sum(axis=0) / exposure[:, None]
        for j in range(3):
            for k in range(3):
                sigma = np.sqrt(thirty[j, k] * (1 - thirty[j, k]) / exposure[j])
                assert abs(freq[j, k] - thirty[j, k]) < 4 * sigma + 1e-9


class TestRSquared:
    def test_perfect_forecast_scores_one(self):
        r = np.array([0.1, 0.4, 0.2, 0.3])
        assert pio.r_squared(r, r) == pytest.approx(1.0)

    def test_mean_forecast_scores_zero(self):
        r = np.array([0.0, 1.0, 2.0, 3.0])
        assert pio.r_squared(np.full(4, r.mean()), r) == pytest.approx(0.0)

    def test_hand_example_can_go_negative(self):
        realized = np.array([0.0, 1.0, 2.0, 3.0])
        predicted = np.zeros(4)
        assert pio.r_squared(predicted, realized) == pytest.approx(1 - 14 / 5)

    def test_tiny_deviations_are_not_constant(self):
        realized = np.array([1e-170, 0.0])
        assert pio.r_squared(realized, realized) == 1.0
        assert pio.r_squared(np.array([0.0, 1e-170]), realized) == pytest.approx(-3.0)

    def test_error_far_beyond_the_spread_keeps_a_finite_score(self):
        realized = np.tile([0.0, 1.0], 50)
        predicted = realized.copy()
        predicted[0] = 7.5e153
        # SSE / SST = (7.5e153)^2 / 25; the error over the spread (0.5)
        # squares past the double range
        assert pio.r_squared(predicted, realized) == pytest.approx(-2.25e306)

    def test_constant_realized_rejected(self):
        with pytest.raises(DataError):
            pio.r_squared(np.array([0.1, 0.2]), np.array([0.5, 0.5]))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-1, 1), min_size=2, max_size=12),
        st.lists(st.floats(-1, 1), min_size=2, max_size=12),
    )
    def test_never_exceeds_one(self, pred, real):
        n = min(len(pred), len(real))
        real_arr = np.array(real[:n])
        if np.ptp(real_arr) == 0:
            return
        assert pio.r_squared(np.array(pred[:n]), real_arr) <= 1.0


class TestEvaluation:
    def test_scores_only_active_nonconstant_transitions(self):
        factor, law = mf.demo_model(2, 2, spread=6.0)
        cfg = mf.SimulationConfig(np.array([400, 400]), 120, seed=2)
        panel, _ = mf.simulate_panel_discrete(factor, law, cfg)
        traj = mf.run_filter(panel, factor, law)
        report = pio.evaluate_predictions(panel, traj)
        assert (0, 1) in report.r2
        assert (1, 0) in report.r2
        doc = report.to_json()
        assert '"0->1"' in doc

    def test_filter_beats_constant_baseline_when_regimes_move(self):
        factor, law = mf.demo_model(2, 3, spread=8.0)
        cfg = mf.SimulationConfig(np.array([500, 500, 500]), 250, seed=4)
        panel, _ = mf.simulate_panel_discrete(factor, law, cfg)
        traj = mf.run_filter(panel, factor, law)
        report = pio.evaluate_predictions(panel, traj)
        pooled = panel.counts.sum(axis=0) / panel.exposures.sum(axis=0)[:, None]
        for (j, k), r2 in report.r2.items():
            const_pred = np.full(report.series[(j, k)][1].shape, pooled[j, k])
            const_r2 = pio.r_squared(const_pred, report.series[(j, k)][1])
            assert r2 > const_r2

    def test_forecasts_of_another_rating_count_rejected(self):
        panels, trajs = {}, {}
        for p in (2, 3):
            factor, law = mf.demo_model(2, p, spread=6.0)
            cfg = mf.SimulationConfig(np.full(p, 200), 40, seed=3)
            panels[p], _ = mf.simulate_panel_discrete(factor, law, cfg)
            trajs[p] = mf.run_filter(panels[p], factor, law)
        with pytest.raises(DataError, match=r"shape \(40, 3, 3\).* needs \(40, 2, 2\)"):
            pio.evaluate_predictions(panels[2], trajs[3])
        with pytest.raises(DataError, match=r"shape \(40, 2, 2\).* needs \(40, 3, 3\)"):
            pio.evaluate_predictions(panels[3], trajs[2])


class TestRollingBacktest:
    def test_out_of_sample_report_is_produced(self):
        factor, law = mf.demo_model(2, 2, spread=6.0)
        cfg = mf.SimulationConfig(np.array([300, 300]), 120, seed=6)
        panel, _ = mf.simulate_panel_discrete(factor, law, cfg)
        em = mf.EmConfig(restarts=4, max_iters=80, seed=1)
        report = pio.rolling_backtest(panel, 2, em, initial_steps=60, refit_every=20)
        assert report.r2
        for (j, k), (pred, real) in report.series.items():
            assert pred.shape == real.shape
            assert np.all(np.isfinite(pred))

    def test_bad_split_rejected(self):
        factor, law = mf.demo_model(2, 2)
        cfg = mf.SimulationConfig(np.array([50, 50]), 10, seed=0)
        panel, _ = mf.simulate_panel_discrete(factor, law, cfg)
        with pytest.raises(DataError):
            pio.rolling_backtest(panel, 2, mf.EmConfig(restarts=1), 0, 5)


class TestCsvFormats:
    def test_panel_round_trip_and_determinism(self):
        factor, law = mf.demo_model(2, 3)
        cfg = mf.SimulationConfig(np.array([50, 60, 70]), 15, seed=5)
        panel, _ = mf.simulate_panel_discrete(factor, law, cfg)
        a, b = io.StringIO(), io.StringIO()
        pio.panel_to_csv(panel, a)
        pio.panel_to_csv(panel, b)
        assert a.getvalue() == b.getvalue()
        back = pio.panel_from_csv(io.StringIO(a.getvalue()))
        np.testing.assert_array_equal(back.counts, panel.counts)
        np.testing.assert_array_equal(back.exposures, panel.exposures)

    def test_trajectory_round_trip(self):
        factor, law = mf.demo_model(2, 2)
        cfg = mf.SimulationConfig(np.array([40, 40]), 8, seed=3)
        panel, _ = mf.simulate_panel_discrete(factor, law, cfg)
        traj = mf.run_filter(panel, factor, law)
        buf = io.StringIO()
        pio.trajectory_to_csv(traj, buf)
        back = pio.trajectory_from_csv(io.StringIO(buf.getvalue()))
        np.testing.assert_array_equal(back.probs_matrix(), traj.probs_matrix())
        np.testing.assert_array_equal(back.predicted_ratios, traj.predicted_ratios)

    def test_events_round_trip(self):
        factor, law = mf.demo_model(2, 2, mode=mf.Mode.CONTINUOUS)
        cfg = mf.SimulationConfig(np.array([80, 80]), 25.0, seed=2, mode=mf.Mode.CONTINUOUS)
        stream, _ = mf.simulate_events_continuous(factor, law, cfg)
        buf = io.StringIO()
        pio.events_to_csv(stream, buf)
        back = pio.events_from_csv(io.StringIO(buf.getvalue()))
        np.testing.assert_array_equal(back.times, stream.times)
        np.testing.assert_array_equal(back.sources, stream.sources)
        np.testing.assert_array_equal(back.targets, stream.targets)
        np.testing.assert_array_equal(back.initial_exposures, stream.initial_exposures)
        assert back.horizon == stream.horizon

    def test_events_of_an_open_cohort_refuse_the_lossy_format(self):
        # three entities enter at the step boundary; the file could not say so
        panel = mf.MigrationPanel(
            np.array([[3, 1], [5, 0]]),
            np.array([[[2, 1], [1, 0]], [[5, 0], [0, 0]]]),
        )
        stream = mf.spread_jumps(panel, mf.SpreadConfig(4, seed=0))
        with pytest.raises(DataError, match="boundary"):
            pio.events_to_csv(stream, io.StringIO())

    @pytest.mark.parametrize(
        "reader, text, message",
        [
            pytest.param(pio.panel_from_csv, PANEL_CSV + "1,2,2,1,1,0\n",
                         "panel CSV line 3: 6 fields, not 7", id="panel-short"),
            pytest.param(pio.panel_from_csv, PANEL_CSV + "1,2,2,1,1,0,2,5\n",
                         "panel CSV line 3: 8 fields, not 7", id="panel-long"),
            pytest.param(pio.events_from_csv, EVENT_CSV + "1.0,1,2,junk\n2.5,2,1,7\n",
                         "event CSV line 3: 4 fields, not 3", id="events-long"),
        ],
    )
    def test_row_of_wrong_width_names_its_line(self, reader, text, message):
        with pytest.raises(DataError, match=message):
            reader(io.StringIO(text))

    def test_event_file_with_no_events_is_valid(self):
        stream = pio.events_from_csv(io.StringIO(EVENT_CSV))
        assert stream.n_events == 0
        np.testing.assert_array_equal(stream.initial_exposures, [2, 2])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,I_1,I_2,nu_1_1,nu_1_2,nu_2_1,nu_2_2\n0.0,0.5,x,0.9,0.1,0.2,0.8\n",
             "line 2: could not convert"),
            ("t,I_1,I_2,nu_1_1,nu_1_2,nu_2_1,nu_2_2\n0.0,0.5,0.5,0.9,0.1,0.2,0.8\n"
             "1.0,0.5,0.5,0.9,0.1\n", "line 3: 5 fields, not 7"),
            ("t,I_1,I_2,nu_1_1,nu_1_2,nu_2_1\n0.0,0.5,0.5,0.9,0.1,0.2\n",
             "line 1: 3 nu_ columns do not form a p x p block"),
            # read row by row, step 1 would take row 2's forecast
            (TRAJECTORY_CSV + "0.0,0.5,0.5,0.9,0.1,0.2,0.8\n1.0,0.5,0.5,,,,\n"
             "2.0,0.5,0.5,0.8,0.2,0.3,0.7\n3.0,0.5,0.5,0.7,0.3,0.4,0.6\n",
             "line 3: no forecast before the last row"),
            (TRAJECTORY_CSV + "0.0,0.5,0.5,0.9,0.1,0.2,0.8\n1.0,0.5,0.5,0.7,0.3,0.4,0.6\n",
             "line 3: the last row carries a forecast"),
            (TRAJECTORY_CSV + "0.0,0.5,0.5,,0.1,0.2,0.8\n1.0,0.5,0.5,,,,\n",
             "line 2: could not convert string to float: ''"),
            # any header but the one the writer produces
            ("t,I_1,I_2,x\n0.0,0.5,0.5,1.0\n1.0,0.5,0.5,\n",
             "^trajectory CSV line 1: header 't,I_1,I_2,x' is not t,I_1..I_m,nu_1_1..nu_p_p$"),
            ("t,I_2,I_1,nu_1_1\n0.0,0.5,0.5,1.0\n1.0,0.5,0.5,\n", "line 1: header 't,I_2,I_1,nu_1_1'"),
            ("t,I_1,nu_1_1,nu_2_1,nu_1_2,nu_2_2\n0.0,1.0,0.9,0.1,0.2,0.8\n1.0,1.0,,,,\n",
             "line 1: header 't,I_1,nu_1_1,nu_2_1,nu_1_2,nu_2_2'"),
            ("time,I_1,nu_1_1\n0.0,1.0,1.0\n1.0,1.0,\n", "line 1: header 'time,I_1,nu_1_1'"),
            ("t,nu_1_1\n0.0,1.0\n1.0,\n", "line 1: header 't,nu_1_1'"),
            ("", "line 1: header '' is not"),
        ],
    )
    def test_malformed_trajectory_csv_names_its_line(self, text, message):
        with pytest.raises(DataError, match=message):
            pio.trajectory_from_csv(io.StringIO(text))

    def test_bad_headers_rejected(self):
        with pytest.raises(DataError):
            pio.panel_from_csv(io.StringIO("a,b,c\n1,2,3\n"))
        with pytest.raises(DataError):
            pio.events_from_csv(io.StringIO("time,from_rating,to_rating\n"))
