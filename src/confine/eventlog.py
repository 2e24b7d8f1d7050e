"""Event log model, CSV/XES ingestion and organizational partitioning.

The CSV layout ``case,timestamp,activity,org`` is the canonical interchange
format; the XES reader exists to ingest public logs and only looks at
``concept:name`` and ``time:timestamp``.
"""

from __future__ import annotations

import csv
import io
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from types import MappingProxyType, SimpleNamespace
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Event",
    "Row",
    "merge_case",
    "EventLog",
    "LogParseError",
    "LogSchemaError",
    "PartitionError",
    "parse_timestamp",
    "format_timestamp",
    "parse_log",
    "parse_csv",
    "parse_xes",
    "serialize_log",
    "partition_by_org",
]

CSV_COLUMNS = ("case", "timestamp", "activity", "org")


class LogParseError(ValueError):
    """A row or element of the input could not be interpreted."""


class LogSchemaError(LogParseError):
    """The input is structurally valid but misses required columns."""


class PartitionError(ValueError):
    """A log cannot be split as asked: an unmapped activity, a bad map or org set."""


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp into an aware UTC datetime.

    Minute precision and finer is accepted; naive values are taken as UTC,
    zoned values are converted to UTC.
    """
    # Fast path for the canonical form, which 3.11 reads as it stands;
    # 3.10 rejects its "Z", so there the general path below reads it.
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        ts = None
    if ts is not None and ts.tzinfo is timezone.utc:
        return ts
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(raw)
        if ts.tzinfo is None:
            return ts.replace(tzinfo=timezone.utc)
        # a zoned stamp near the ends of the datetime range overflows here
        return ts.astimezone(timezone.utc)
    except (ValueError, OverflowError) as exc:
        raise LogParseError(f"bad timestamp {text!r}: {exc}") from None


def format_timestamp(ts: datetime) -> str:
    """Serialize a UTC instant canonically, milliseconds by default.

    Sub-millisecond values keep six fractional digits so that
    parse(format(ts)) == ts always holds.
    """
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    elif ts.tzinfo is not timezone.utc:
        ts = ts.astimezone(timezone.utc)
    # isoformat pads the year to four digits and ends in "+00:00" here
    timespec = "milliseconds" if ts.microsecond % 1000 == 0 else "microseconds"
    return ts.isoformat(timespec=timespec)[:-6] + "Z"


def is_canonical_stamp(text: str, ts: datetime) -> bool:
    """Whether ``format_timestamp(ts) == text``, for a ``text`` that
    ``parse_timestamp`` read as ``ts``; cheaper than formatting ``ts``.

    Only a text shaped ``YYYY-MM-DDTHH:MM:SS.fffZ``, or ``.ffffffZ`` with
    its last three digits not all zero, reads back as itself.
    """
    n = len(text)
    return (
        (n == 24 or (n == 27 and ts.microsecond % 1000 != 0))
        and text[10] == "T"
        and text[19] == "."
        and text[-1] == "Z"
        and text[4] == "-"
        and text[7] == "-"
        and text.isascii()
    )


# An instant's canonical text by instant, as a log keeps it for formatting.
Stamps = Mapping[datetime, str]
NO_STAMPS: Stamps = MappingProxyType({})


@dataclass(frozen=True, slots=True)
class Event:
    """One observed activity execution."""

    case_ref: str
    activity: str
    timestamp: datetime
    org: str = ""

    def __post_init__(self) -> None:
        if not self.case_ref:
            raise ValueError("event requires a non-empty case_ref")
        if not self.activity:
            raise ValueError("event requires a non-empty activity")


# An event of a known case as a log and the enclave hold it: (timestamp, org,
# activity). A case is its rows sorted as tuples compare, so timestamp
# first, then org, then activity; events equal in all three are the same
# record, so their order changes nothing.
Row = tuple[datetime, str, str]


def merge_case(parts: Iterable[Iterable[Row]]) -> tuple[str, ...]:
    """Reassemble one case from its holders' rows into its activity sequence.

    Merging concatenates the parts and sorts the rows as plain tuples, which
    is the order an ``EventLog`` keeps a case in, so it is commutative and
    associative. It is not idempotent: two holders' identical records both
    survive, as they do in the pooled log. Rows carry no case ref; the
    caller groups them by case.
    """
    rows = list(chain.from_iterable(parts))
    if not rows:
        raise ValueError("merge_case needs at least one row")
    rows.sort()
    return tuple([activity for _, _, activity in rows])


@dataclass(frozen=True)
class EventLog:
    """Each case's rows, keyed and iterated in sorted case ref order.

    A case is the tuple of its rows in ``Row`` order; a log built from rows
    in any order is sorted on construction. ``stamps`` is a read-only table
    of canonical stamp texts by instant that formatting looks up before it
    formats an instant itself; ``parse_csv`` fills it with the canonical
    texts it read, and it takes no part in comparing logs.
    """

    cases: dict[str, tuple[Row, ...]] = field(default_factory=dict)
    source_org: str | None = None
    stamps: Stamps = field(default_factory=lambda: NO_STAMPS, compare=False, repr=False)

    def __post_init__(self) -> None:
        ordered = {}
        for ref in sorted(self.cases):
            if not ref:
                raise ValueError("a case requires a non-empty case ref")
            rows = tuple(sorted(self.cases[ref]))
            if not all(activity for _, _, activity in rows):
                raise ValueError(f"case {ref!r} has an empty activity")
            ordered[ref] = rows
        object.__setattr__(self, "cases", ordered)

    def case_refs(self) -> list[str]:
        """Sorted references of all cases, possibly empty."""
        return list(self.cases)

    def events(self) -> list[Event]:
        return [Event(ref, act, ts, org) for ref, rows in self.cases.items() for ts, org, act in rows]

    def event_count(self) -> int:
        return sum(len(rows) for rows in self.cases.values())

    def activities(self) -> set[str]:
        return {act for rows in self.cases.values() for _, _, act in rows}

    def __len__(self) -> int:
        return len(self.cases)


# ---------------------------------------------------------------------------
# parsing and serialization


@contextmanager
def csv_errors(reader, where: str = "line"):
    """Raise a ``csv.Error`` from ``reader`` as a LogParseError naming its line.

    ``reader.line_num`` counts physical lines, so a quoted field spanning
    lines does not shift the numbers after it.
    """
    try:
        yield
    except csv.Error as exc:
        raise LogParseError(f"{where} {reader.line_num}: {exc}") from None


def parse_csv(text: str, source_org: str | None = None) -> EventLog:
    """Parse the canonical CSV layout into an EventLog.

    Columns may appear in any order, extra columns are ignored. An error
    names the physical line its row ends on. Each distinct stamp text is
    parsed once, and the log's ``stamps`` keeps each text that is already
    canonical; an instant read only in another form is formatted when the
    log is written.
    """
    reader = csv.reader(io.StringIO(text))
    cases: dict[str, list[Row]] = {}
    read: dict[str, datetime] = {}  # stamp text -> instant, successes only
    stamps: dict[datetime, str] = {}
    with csv_errors(reader):
        header = next(reader, None)
        if header is None:
            raise LogSchemaError("empty input, expected a header row")
        header = [h.strip() for h in header]
        missing = [col for col in CSV_COLUMNS if col not in header]
        if missing:
            raise LogSchemaError(f"missing required column(s): {', '.join(missing)}")
        idx = {col: header.index(col) for col in CSV_COLUMNS}

        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # ignore blank lines
            line_no = reader.line_num
            if len(row) < len(header):
                raise LogParseError(f"line {line_no}: expected {len(header)} fields, got {len(row)}")
            case_ref = row[idx["case"]].strip()
            activity = row[idx["activity"]].strip()
            org = row[idx["org"]].strip()
            if not case_ref:
                raise LogParseError(f"line {line_no}: empty case reference")
            if not activity:
                raise LogParseError(f"line {line_no}: empty activity")
            stamp = row[idx["timestamp"]]
            ts = read.get(stamp)
            if ts is None:
                try:
                    ts = parse_timestamp(stamp)
                except LogParseError as exc:
                    raise LogParseError(f"line {line_no}: {exc}") from None
                read[stamp] = ts
                if is_canonical_stamp(stamp, ts):
                    stamps[ts] = stamp
            cases.setdefault(case_ref, []).append((ts, org, activity))
    return EventLog(cases, source_org=source_org, stamps=MappingProxyType(stamps))


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def parse_xes(text: str | bytes) -> EventLog:
    """Parse the XES subset: trace/event concept:name plus time:timestamp.

    Every other attribute is ignored. Events missing either required
    attribute raise a parse error naming the element.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise LogParseError(f"bad XES document: {exc}") from None

    cases: dict[str, list[Row]] = {}
    parsed = 0
    for trace in root:
        if _local_name(trace.tag) != "trace":
            continue
        case_ref = None
        for child in trace:
            if _local_name(child.tag) == "string" and child.get("key") == "concept:name":
                case_ref = child.get("value")
                break
        if not case_ref:
            raise LogParseError("trace without a concept:name attribute")
        for child in trace:
            if _local_name(child.tag) != "event":
                continue
            activity = None
            stamp = None
            for attr in child:
                key = attr.get("key")
                if key == "concept:name" and _local_name(attr.tag) == "string":
                    activity = attr.get("value")
                elif key == "time:timestamp":
                    stamp = attr.get("value")
            if not activity or stamp is None:
                raise LogParseError(
                    f"event #{parsed} of case {case_ref!r} lacks concept:name or time:timestamp"
                )
            cases.setdefault(case_ref, []).append((parse_timestamp(stamp), "", activity))
            parsed += 1
    return EventLog(cases)


def parse_log(path: str | Path) -> EventLog:
    """Read a log file: XES if its suffix is ``.xes``, CSV otherwise."""
    p = Path(path)
    try:
        data = p.read_text(encoding="utf-8")
    except UnicodeDecodeError:  # its message would quote the file's bytes
        raise LogParseError(f"{path}: not UTF-8") from None
    return parse_xes(data) if p.suffix.lower() == ".xes" else parse_csv(data)


def format_rows(records: Sequence[tuple[datetime, str, str, str]], stamps: Stamps = NO_STAMPS) -> str:
    """Canonical CSV rows ``case,timestamp,activity,org``, one per record.

    A record is a row with its case ref second: ``(timestamp, case, org,
    activity)``. A stamp's text is looked up in ``stamps`` and formatted
    only when the table lacks its instant. Each CSV row is built directly;
    only when a cell holds a comma, quote, CR or LF, which must be quoted,
    or a NUL, which Python 3.10's csv refuses to write, are the rows
    written by csv.writer.
    """
    known = stamps.get
    text = "".join([f"{ref},{known(ts) or format_timestamp(ts)},{act},{org}\n" for ts, ref, org, act in records])
    if (
        text.count(",") == 3 * len(records)
        and text.count("\n") == len(records)
        and '"' not in text
        and "\r" not in text
        and "\x00" not in text
    ):
        return text
    # csv quotes a cell holding any character of the line terminator, so a
    # CRLF terminator quotes a bare CR as well as LF, as RFC 4180 asks; each
    # row is one write, and its terminator is then cut back to LF.
    rows: list[str] = []
    csv.writer(SimpleNamespace(write=rows.append), lineterminator="\r\n").writerows(
        (ref, known(ts) or format_timestamp(ts), act, org) for ts, ref, org, act in records
    )
    return "".join([row[:-2] + "\n" for row in rows])


def serialize_log(log: EventLog) -> str:
    """Canonical CSV text for a log, its rows in time order.

    Rows are sorted by timestamp, then case, org and activity, so a log
    pooled from several files is written as one timeline.
    """
    records = sorted([(ts, ref, org, act) for ref, rows in log.cases.items() for ts, org, act in rows])
    return ",".join(CSV_COLUMNS) + "\n" + format_rows(records, log.stamps)


def partition_by_org(log: EventLog, activity_to_org: dict[str, str]) -> dict[str, EventLog]:
    """Split a log into one sub-log per organization.

    Rows are kept verbatim (the org field is not rewritten), so for each
    case the concatenation of its sub-log rows re-sorts to the original
    case. Every activity of the log must be mapped. Each sub-log shares the
    log's ``stamps``.
    """
    seen_orgs = sorted(set(activity_to_org.values()))
    buckets: dict[str, dict[str, list[Row]]] = {org: {} for org in seen_orgs}
    for ref, rows in log.cases.items():
        for row in rows:
            org = activity_to_org.get(row[2])
            if org is None:
                raise PartitionError(f"activity {row[2]!r} is not mapped to any organization")
            buckets[org].setdefault(ref, []).append(row)
    return {org: EventLog(cases, source_org=org, stamps=log.stamps) for org, cases in buckets.items()}
