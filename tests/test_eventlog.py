"""Event model, parsing, ordering, serialization and partitioning."""

import csv
import io
import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import confine.eventlog
from confine.eventlog import (
    Event,
    EventLog,
    LogParseError,
    LogSchemaError,
    PartitionError,
    format_rows,
    format_timestamp,
    is_canonical_stamp,
    parse_csv,
    parse_log,
    parse_timestamp,
    parse_xes,
    partition_by_org,
    serialize_log,
)

from conftest import CLINIC_CSV, T_312, activities, log_of

UTC = timezone.utc


# -- timestamps --------------------------------------------------------------


def test_parse_timestamp_minute_precision_pads_zeros():
    ts = parse_timestamp("2022-07-14T10:36")
    assert ts == datetime(2022, 7, 14, 10, 36, tzinfo=UTC)
    assert format_timestamp(ts) == "2022-07-14T10:36:00.000Z"


def test_parse_timestamp_zulu_and_offset_agree():
    assert parse_timestamp("2022-07-14T10:36:00Z") == parse_timestamp(
        "2022-07-14T12:36:00+02:00"
    )


def test_parse_timestamp_naive_becomes_utc():
    assert parse_timestamp("2022-07-14T10:36:00").tzinfo == UTC


def test_parse_timestamp_rejects_garbage():
    with pytest.raises(LogParseError):
        parse_timestamp("not-a-time")


def test_out_of_range_zoned_stamp_names_its_line():
    # converting 0001-01-01T00:00+05:00 to UTC falls before year 1
    with pytest.raises(LogParseError, match="line 2"):
        parse_csv("case,timestamp,activity,org\nc1,0001-01-01T00:00+05:00,A,H\n")


def test_format_timestamp_millisecond_canonical_form():
    ts = datetime(2022, 7, 14, 10, 36, 5, 123000, tzinfo=UTC)
    assert format_timestamp(ts) == "2022-07-14T10:36:05.123Z"


def test_format_timestamp_submillisecond_keeps_microseconds():
    ts = datetime(2022, 7, 14, 10, 36, 5, 123456, tzinfo=UTC)
    out = format_timestamp(ts)
    assert out == "2022-07-14T10:36:05.123456Z"
    assert parse_timestamp(out) == ts


@given(
    st.datetimes(
        min_value=datetime.min,
        max_value=datetime.max,
        timezones=st.just(UTC),
    )
)
def test_timestamp_round_trip_lossless(ts):
    assert parse_timestamp(format_timestamp(ts)) == ts


def _reference_format(ts: datetime) -> str:
    """The field-by-field formatter that format_timestamp replaced."""
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=UTC)
    elif ts.tzinfo is not UTC:
        ts = ts.astimezone(UTC)
    base = (
        f"{ts.year:04d}-{ts.month:02d}-{ts.day:02d}"
        f"T{ts.hour:02d}:{ts.minute:02d}:{ts.second:02d}"
    )
    if ts.microsecond % 1000 == 0:
        return f"{base}.{ts.microsecond // 1000:03d}Z"
    return f"{base}.{ts.microsecond:06d}Z"


_offsets = st.integers(-(24 * 60 - 1), 24 * 60 - 1).map(lambda m: timezone(timedelta(minutes=m)))
_stamps = st.one_of(
    st.datetimes(timezones=st.none() | st.just(UTC)),
    # a zoned stamp converts to UTC, which must stay inside years 1-9999
    st.datetimes(min_value=datetime(2, 1, 1), max_value=datetime(9998, 12, 31), timezones=_offsets),
)


@given(st.one_of(_stamps, _stamps.map(lambda ts: ts.replace(microsecond=ts.microsecond // 1000 * 1000))))
def test_format_timestamp_matches_reference_formatter(ts):
    assert format_timestamp(ts) == _reference_format(ts)


def _reference_parse(text: str) -> datetime:
    """The parser that parse_timestamp ran before its fast path for UTC stamps."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(raw)
        if ts.tzinfo is None:
            return ts.replace(tzinfo=UTC)
        return ts.astimezone(UTC)
    except (ValueError, OverflowError) as exc:
        raise LogParseError(f"bad timestamp {text!r}: {exc}") from None


def _parse_outcome(parse, text):
    try:
        ts = parse(text)
    except LogParseError as exc:
        return type(exc), str(exc)
    return ts, ts.tzinfo


_zones = st.sampled_from(["", "Z", "z", "+00:00", "-00:00", "+0000", "+05:00", "-05:30", "+14:00"])
_written_stamps = st.builds(
    lambda ts, sep, spec, zone, pad: f"{pad}{ts.isoformat(sep, spec)}{zone}{pad}",
    st.datetimes(),
    st.sampled_from(["T", " "]),
    st.sampled_from(["auto", "minutes", "seconds", "milliseconds", "microseconds"]),
    _zones,
    st.sampled_from(["", " ", "\t"]),
)


@given(st.one_of(
    _written_stamps,
    st.datetimes(timezones=st.just(UTC)).map(format_timestamp),
    st.text(max_size=30),
))
@example("0001-01-01T00:00+05:00")
@example("9999-12-31T23:59-05:00")
@example("2022-07-14T10:36:00.000Z")
@example(" 2022-07-14T10:36:00.000Z ")
def test_parse_timestamp_matches_reference_parser(text):
    # a zoned stamp at a range end must stay a LogParseError, not an OverflowError
    assert _parse_outcome(parse_timestamp, text) == _parse_outcome(_reference_parse, text)


def _written_in(ts, date, sep, digits, point, zone):
    """``ts``'s wall time written with one ISO 8601 variant per argument."""
    if date == "week":
        year, week, day = ts.isocalendar()
        day_text = f"{year:04d}-W{week:02d}-{day}"
    else:
        day_text = ts.date().isoformat()
    fraction = f"{point}{ts.microsecond:06d}"[: digits + 1] if digits else ""
    return f"{day_text}{sep}{ts.strftime('%H:%M:%S')}{fraction}{zone}"


_stamp_shapes = st.builds(
    _written_in,
    st.one_of(
        st.datetimes(),
        st.datetimes().map(lambda ts: ts.replace(microsecond=ts.microsecond // 1000 * 1000)),
        st.datetimes().map(lambda ts: ts.replace(microsecond=0)),
    ),
    st.sampled_from(["calendar", "week"]),
    st.sampled_from(["T", " ", "t"]),
    st.sampled_from([0, 1, 3, 5, 6]),
    st.sampled_from([".", ","]),
    st.sampled_from(["Z", "z", "", "+00:00", "-00:00", "+0000", "+05:30", "-08:00"]),
)


@given(st.one_of(
    _stamp_shapes,
    st.datetimes(timezones=st.just(UTC)).map(format_timestamp),
    _written_stamps,
    st.text(max_size=30),
))
@example("2022-07-14T08:00:00.000Z")
@example("2022-07-14T08:00:00.123456Z")
@example("2022-07-14T08:00:00.123000Z")
@example("2022-07-14T08:00:00.000+00:00")
@example("2022-07-14T08:00:00.000z")
@example("2022-07-14 08:00:00.000Z")
@example("2022-07-14T08:00:00,000Z")
@example("2022-W28-4T08:00:00.000Z")
@example("0001-01-01T00:00:00.000Z")
def test_canonical_stamp_check_agrees_with_round_trip(text):
    try:
        ts = parse_timestamp(text)
    except LogParseError:
        return  # the check is only asked about stamps the parser read
    assert is_canonical_stamp(text, ts) == (format_timestamp(ts) == text)


def test_parse_csv_keeps_only_canonical_stamp_texts(monkeypatch):
    text = (
        "case,timestamp,activity,org\n"
        "c1,2022-07-14T08:00:00.000Z,A,H\n"
        "c1,2022-07-14T10:00:00+02:00,B,H\n"
        "c2,2022-07-14T09:00,C,H\n"
        "c2,2022-07-14T09:00:00.000500Z,D,H\n"
        "c2,2022-07-14T08:00:00.000Z,E,H\n"
    )
    formatted = []
    real = confine.eventlog.format_timestamp
    monkeypatch.setattr(confine.eventlog, "format_timestamp", lambda ts: formatted.append(ts) or real(ts))
    log = parse_csv(text)
    # parsing formats nothing; an instant read only in another form has no text
    assert formatted == []
    assert dict(log.stamps) == {
        parse_timestamp("2022-07-14T08:00:00Z"): "2022-07-14T08:00:00.000Z",
        parse_timestamp("2022-07-14T09:00:00.000500Z"): "2022-07-14T09:00:00.000500Z",
    }
    # rows that wrote the same text share one instant
    assert log.cases["c1"][0][0] is log.cases["c2"][0][0]
    with pytest.raises(TypeError):
        log.stamps[log.cases["c1"][0][0]] = "x"
    # writing the log formats that instant, once per row as without a table
    assert serialize_log(log).splitlines()[4] == "c2,2022-07-14T09:00:00.000Z,C,H"
    assert formatted == [parse_timestamp("2022-07-14T09:00Z")]


def test_log_equality_ignores_the_stamp_table(hospital_log):
    log = parse_csv(serialize_log(hospital_log))
    bare = EventLog(log.cases, source_org=log.source_org)
    assert len(log.stamps) == log.event_count()
    assert dict(bare.stamps) == {}
    assert bare == log == EventLog(hospital_log.cases)
    assert serialize_log(bare) == serialize_log(log)


# -- Event and case invariants ----------------------------------------------


def test_event_rejects_empty_fields():
    ts = parse_timestamp("2022-07-14T10:36")
    with pytest.raises(ValueError):
        Event("", "PH", ts, "H")
    with pytest.raises(ValueError):
        Event("312", "", ts, "H")


def test_log_rejects_empty_case_ref_or_activity():
    # a log built from rows, without an Event, refuses them too
    ts = parse_timestamp("2022-07-14T10:36")
    with pytest.raises(ValueError):
        EventLog({"": [(ts, "H", "PH")]})
    with pytest.raises(ValueError):
        EventLog({"312": [(ts, "H", "PH"), (ts, "H", "")]})


def test_case_rows_sort_on_construction():
    # Out-of-file-order events; oracle is an explicit comparison sort over
    # the (timestamp, org, activity) key.
    csv = (
        "case,timestamp,activity,org\n"
        "1,2022-07-14T12:00,B,X\n"
        "1,2022-07-14T10:00,A,X\n"
        "1,2022-07-14T11:00,C,X\n"
    )
    log = parse_csv(csv)
    rows = log.cases["1"]
    assert list(rows) == sorted(rows, key=lambda row: (row[0], row[1], row[2]))
    assert activities(rows) == ("A", "C", "B")


def _random_records(rng: random.Random, n: int) -> list[tuple]:
    base = parse_timestamp("2022-01-01T00:00")
    out = []
    for _ in range(n):
        activity = rng.choice("ABCDE")
        timestamp = base.replace(minute=rng.randrange(60))
        out.append(("1", timestamp, rng.choice(["X", "Y", "Z"]), activity))
    return out


def test_ordering_is_deterministic_and_idempotent():
    rng = random.Random(9)
    records = _random_records(rng, 40)
    for _ in range(5):
        shuffled = records[:]
        rng.shuffle(shuffled)
        log = log_of(shuffled)
        again = log_of(("1", *row) for row in log.cases["1"])
        assert log.cases["1"] == again.cases["1"]
        oracle = sorted(records, key=lambda r: (r[1], r[2], r[3]))
        assert log.events() == [Event(ref, act, ts, org) for ref, ts, org, act in oracle]


# -- CSV parsing --------------------------------------------------------------


def test_parse_csv_hospital_table(hospital_log):
    assert hospital_log.case_refs() == ["312", "711"]
    assert len(hospital_log.cases["312"]) == 10
    assert len(hospital_log.cases["711"]) == 9
    assert hospital_log.event_count() == 19
    assert activities(hospital_log.cases["312"])[:3] == ("PH", "COPA", "OD")


def test_parse_csv_header_only():
    log = parse_csv("case,timestamp,activity,org\n")
    assert log.case_refs() == []
    assert len(log) == 0


def test_parse_csv_column_order_free_and_extra_columns_ignored():
    csv = (
        "activity,org,case,timestamp,note\n"
        "PH,H,312,2022-07-14T10:36,hello\n"
    )
    log = parse_csv(csv)
    _, org, activity = log.cases["312"][0]
    assert (activity, org) == ("PH", "H")


def test_parse_csv_missing_column_is_schema_error():
    with pytest.raises(LogSchemaError):
        parse_csv("case,timestamp,org\n312,2022-07-14T10:36,H\n")


def test_parse_csv_bad_row_names_line():
    csv = "case,timestamp,activity,org\n312,nonsense,PH,H\n"
    with pytest.raises(LogParseError) as err:
        parse_csv(csv)
    assert "2" in str(err.value)


def test_parse_csv_empty_input_is_schema_error():
    with pytest.raises(LogSchemaError, match="empty input"):
        parse_csv("")


def test_parse_csv_skips_blank_lines():
    log = parse_csv("case,timestamp,activity,org\n\n312,2022-07-14T10:36,PH,H\n  \n")
    assert log.event_count() == 1
    assert activities(log.cases["312"]) == ("PH",)


@pytest.mark.parametrize(
    "row,message",
    [
        ("312,2022-07-14T10:37,COPA", "line 4: expected 4 fields, got 3"),
        (" ,2022-07-14T10:37,COPA,H", "line 4: empty case reference"),
        ("312,2022-07-14T10:37, ,H", "line 4: empty activity"),
        ("312,2022-07-14T10:37,CO\rPA,H", "line 4: new-line character seen in unquoted field"),
        ("312,2022-07-14T10:37,%s,H" % ("x" * (csv.field_size_limit() + 1)),
         "line 4: field larger than field limit"),
    ],
    ids=["short-row", "empty-case", "empty-activity", "bare-carriage-return", "oversized-field"],
)
def test_parse_csv_bad_row_is_parse_error_naming_its_line(row, message):
    text = "case,timestamp,activity,org\n\n312,2022-07-14T10:36,PH,H\n" + row + "\n"
    with pytest.raises(LogParseError, match=message):
        parse_csv(text)


def test_parse_csv_names_the_physical_line_after_a_multiline_field():
    text = 'case,timestamp,activity,org\n312,2022-07-14T10:36,"P\nH",H\n312,bad,COPA,H\n'
    with pytest.raises(LogParseError, match="^line 4: bad timestamp 'bad'"):
        parse_csv(text)


@pytest.mark.parametrize(
    "rows,message",
    [
        (["312,bad,PH,H", "312,bad,COPA,H"], "line 2: bad timestamp 'bad': Invalid isoformat string: 'bad'"),
        (["312,2022-07-14T10:36,PH,H", "312,2022-07-14T10:36,,H"], "line 3: empty activity"),
        (["312,2022-07-14T10:36,PH,H", "312, 2022-07-14T10:3x,COPA,H"],
         "line 3: bad timestamp ' 2022-07-14T10:3x': Invalid isoformat string: '2022-07-14T10:3x'"),
        (["312,2022-07-14T10:36,PH,H", '312,"2022-07-14T10:36\n",COPA,H', "312,0001-01-01T00:00+05:00,OD,H"],
         "line 5: bad timestamp '0001-01-01T00:00+05:00': date value out of range"),
    ],
    ids=["repeated-bad-stamp", "known-stamp-empty-activity", "padded-bad-stamp", "out-of-range-after-multiline"],
)
def test_parse_csv_errors_name_the_first_bad_line(rows, message):
    # each distinct stamp text is parsed once; errors still name the line
    # they are on, and a stamp read before checks nothing else of its row
    with pytest.raises(LogParseError) as err:
        parse_csv("case,timestamp,activity,org\n" + "\n".join(rows) + "\n")
    assert str(err.value) == message


def test_parse_csv_duplicate_record_kept():
    csv = (
        "case,timestamp,activity,org\n"
        "312,2022-07-14T10:36,PH,H\n"
        "312,2022-07-14T10:36,PH,H\n"
    )
    log = parse_csv(csv)
    assert len(log.cases["312"]) == 2
    assert activities(log.cases["312"]) == ("PH", "PH")


# -- XES parsing --------------------------------------------------------------

XES_SAMPLE = """<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0">
  <trace>
    <string key="concept:name" value="312"/>
    <event>
      <string key="concept:name" value="PH"/>
      <date key="time:timestamp" value="2022-07-14T10:36:00+00:00"/>
      <string key="lifecycle:transition" value="complete"/>
    </event>
    <event>
      <string key="concept:name" value="COPA"/>
      <date key="time:timestamp" value="2022-07-14T16:36:00+00:00"/>
    </event>
  </trace>
  <trace>
    <string key="concept:name" value="711"/>
    <event>
      <string key="concept:name" value="PH"/>
      <date key="time:timestamp" value="2022-07-14T17:21:00+00:00"/>
    </event>
  </trace>
</log>
"""


def test_parse_xes_subset():
    log = parse_xes(XES_SAMPLE)
    assert log.case_refs() == ["312", "711"]
    assert activities(log.cases["312"]) == ("PH", "COPA")
    assert log.cases["711"][0][1] == ""


def test_parse_xes_missing_trace_name_is_error():
    bad = "<log><trace><event><string key='concept:name' value='A'/></event></trace></log>"
    with pytest.raises(LogParseError):
        parse_xes(bad)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_log_reads_xes_by_suffix(tmp_path):
    assert parse_log(_write(tmp_path / "log.XES", XES_SAMPLE)) == parse_xes(XES_SAMPLE)
    # any other suffix is CSV, which an XES document is not
    with pytest.raises(LogParseError):
        parse_log(_write(tmp_path / "log.txt", XES_SAMPLE))


def test_parse_log_malformed_xes_is_parse_error(tmp_path):
    with pytest.raises(LogParseError, match="^bad XES document: "):
        parse_log(_write(tmp_path / "log.xes", "<log><trace></log>"))


def test_parse_log_xes_event_without_timestamp_names_event_and_case(tmp_path):
    bad = XES_SAMPLE.replace('<date key="time:timestamp" value="2022-07-14T16:36:00+00:00"/>', "")
    assert bad != XES_SAMPLE
    with pytest.raises(LogParseError, match="^event #1 of case '312' lacks concept:name or time:timestamp$"):
        parse_log(_write(tmp_path / "log.xes", bad))


# -- serialization ------------------------------------------------------------


def test_serialize_round_trip_identity(hospital_log):
    text = serialize_log(hospital_log)
    again = parse_csv(text, source_org="H")
    assert again == hospital_log
    assert serialize_log(again) == text


# A CR goes in only beside a comma, quote or LF: csv.writer with an LF
# terminator writes a bare CR unquoted, which no reader reads back, while
# format_rows quotes it (see the bare-CR round trips).
_cells = st.text(
    st.characters(blacklist_characters="\r") | st.sampled_from(',"\n\x00 é'), max_size=8
) | st.sampled_from(["\r\n", "a\r,b", '"\r'])


@settings(max_examples=200)
@given(st.lists(
    st.tuples(_cells.filter(bool), st.datetimes(timezones=st.just(UTC)), _cells.filter(bool), _cells),
    max_size=6,
))
def test_format_rows_matches_csv_writer(rows):
    def written():
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(
            (ref, format_timestamp(ts), activity, org) for ref, ts, activity, org in rows
        )
        return out.getvalue()

    records = [(ts, ref, org, activity) for ref, ts, activity, org in rows]
    assert format_rows(records) == written()


@pytest.mark.parametrize("activity", ["A\rB", "A\r\rB"])
def test_serialize_round_trips_a_bare_carriage_return(activity):
    log = log_of([("c1", parse_timestamp("2022-07-14T10:36"), "H", activity)])
    text = serialize_log(log)
    assert text == f'case,timestamp,activity,org\nc1,2022-07-14T10:36:00.000Z,"{activity}",H\n'
    assert parse_csv(text) == log


def test_serialize_writes_a_pooled_log_in_time_order(merged_log):
    # merged_log pools three files; their rows are written as one timeline
    text = serialize_log(merged_log)
    rows = list(csv.reader(io.StringIO(text)))[1:]
    stamps = [parse_timestamp(row[1]) for row in rows]
    assert stamps == sorted(stamps)
    assert len(rows) == merged_log.event_count()
    assert parse_csv(text) == merged_log


def test_serialize_header():
    assert serialize_log(parse_csv("case,timestamp,activity,org\n")).startswith(
        "case,timestamp,activity,org\n"
    )


# -- partitioning -------------------------------------------------------------

FIG1_MAP = {
    "DOR": "P", "PDL": "P", "SD": "P",
    "PAFH": "C", "PIA": "C", "PT": "C", "VRT": "C", "TPB": "C",
    "PH": "H", "COPA": "H", "OD": "H", "RD": "H", "AD": "H", "TP": "H",
    "RPB": "H", "DPH": "H", "PCD": "H", "DP": "H", "PRTA": "H",
}


def test_partition_case_312_matches_published_counts(merged_log):
    parts = partition_by_org(merged_log, FIG1_MAP)
    assert set(parts) == {"H", "P", "C"}
    assert len(parts["H"].cases["312"]) == 10
    assert set(activities(parts["P"].cases["312"])) == {"DOR", "PDL", "SD"}
    assert set(activities(parts["C"].cases["312"])) == {"PAFH", "PIA", "PT", "VRT", "TPB"}


def test_partition_identity_with_single_org(merged_log):
    parts = partition_by_org(merged_log, {a: "ALL" for a in merged_log.activities()})
    assert list(parts) == ["ALL"]
    assert parts["ALL"].events() == merged_log.events()


def test_partition_unmapped_activity_named_in_error(merged_log):
    broken = dict(FIG1_MAP)
    del broken["VRT"]
    with pytest.raises(PartitionError) as err:
        partition_by_org(merged_log, broken)
    assert "VRT" in str(err.value)


def test_partition_then_merge_restores_case(merged_log):
    # re-sort oracle: concatenated sub-log rows equal the original case
    parts = partition_by_org(merged_log, FIG1_MAP)
    collected = []
    for sub in parts.values():
        if "312" in sub.cases:
            collected.extend(sub.cases["312"])
    oracle = sorted(collected)
    assert tuple(oracle) == merged_log.cases["312"]
    assert activities(merged_log.cases["312"]) == T_312


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=2, max_value=8))
def test_partition_union_is_event_multiset_identity(seed, k):
    rng = random.Random(seed)
    acts = [f"A{i}" for i in range(12)]
    base = parse_timestamp("2022-01-01T00:00")
    records = []
    for c in range(rng.randrange(1, 8)):
        for _ in range(rng.randrange(1, 10)):
            activity = rng.choice(acts)
            records.append((f"c{c}", base.replace(hour=rng.randrange(24)), "", activity))
    log = log_of(records)
    mapping = {a: f"O{rng.randrange(k)}" for a in acts}
    parts = partition_by_org(log, mapping)
    union = [ev for sub in parts.values() for ev in sub.events()]
    key = lambda e: (e.case_ref, e.activity, e.timestamp, e.org)
    assert sorted(union, key=key) == sorted(log.events(), key=key)


def test_clinic_log_covers_single_case(clinic_log):
    assert clinic_log.case_refs() == ["312"]
    assert clinic_log.event_count() == 5
    assert CLINIC_CSV.count("\n") == 6  # header plus five rows
