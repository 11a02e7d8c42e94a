"""parse_posts against the reference parser it replaced.

The oracle is the DictReader-based parser: one field mapping per record,
validated field by field through the ingest validators.  Its one change
is that it numbers CSV records by their first physical line.
"""

import csv
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from forumnet.ingest import (FIELDS, REQUIRED_FIELDS, IngestError, PostRecord,
                             _parse_bool, _parse_sentiment, _parse_timestamp,
                             parse_posts)


def oracle_record(row: dict, where: str) -> PostRecord:
    missing = [f for f in REQUIRED_FIELDS if row.get(f) in (None, "")]
    if missing:
        raise IngestError(f"{where}: missing required field(s) {missing}")
    return PostRecord(
        timestamp=_parse_timestamp(str(row["timestamp"]), where),
        post_id=str(row["post_id"]),
        thread_id=str(row["thread_id"]),
        user_id=str(row["user_id"]),
        is_original=_parse_bool(row["is_original"], where)
        if not isinstance(row["is_original"], bool) else row["is_original"],
        sentiment=_parse_sentiment(row.get("sentiment"), where),
    )


def oracle_rows(stream, fmt: str):
    if fmt == "csv":
        lines = list(stream)
        reader = csv.DictReader(lines)
        reader.fieldnames  # reads the header
        end = reader.line_num
        for row in reader:
            # the record starts on the first line after the last one that
            # is not blank; blank lines between records are skipped
            start = end + 1
            while not lines[start - 1].strip("\r\n"):
                start += 1
            yield start, row
            end = reader.line_num
    elif fmt == "jsonl":
        for lineno, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestError(f"line {lineno}: invalid JSON: {exc}") from None
            if not isinstance(row, dict):
                raise IngestError(f"line {lineno}: expected a JSON object, "
                                  f"got {type(row).__name__}")
            yield lineno, row
    else:
        raise IngestError(f"unknown input format {fmt!r}")


def oracle_parse(stream, fmt: str = "csv") -> list[PostRecord]:
    records = []
    seen = set()
    for lineno, row in oracle_rows(stream, fmt):
        record = oracle_record(row, f"line {lineno}")
        if record.post_id in seen:
            raise IngestError(
                f"line {lineno}: duplicate post_id {record.post_id!r}")
        seen.add(record.post_id)
        records.append(record)
    records.sort(key=lambda r: (r.timestamp, r.post_id))
    return records


def outcome(parse, text: str, fmt: str):
    """The records' repr (which shows value types), or the error raised."""
    try:
        return repr(parse(io.StringIO(text), fmt))
    except Exception as exc:
        return type(exc), str(exc)


# token pools: canonical values, values the validators normalise, and
# values they reject
POOLS = {
    "post_id": ["p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8", ""],
    "thread_id": ["t1", "t2", "t3", ""],
    "user_id": ["ann", "bob", "a,b", 'say "hi"', ""],
    "timestamp": [
        "2020-01-01T10:00:00", "2020-01-01 11:30:00", "2020-01-31T23:59:59",
        "2020-02-03T09:00:00Z", "2020-02-03T09:00:00+02:00",
        "2020-02-03T09:00:00-05:30", "2020-02-03T09:00:00.123456",
        "2020-02-03T09:00:00.000", "2020-02-03T09:00:00.000000",
        "2020-02-03", "2020-02-03T09", "2020-02-03T09:00", "20200203T090000",
        "2020-02-03T09:00:00z", " 2020-02-03T09:00:00", "2020-02-03T09:00:00 ",
        "Z2020-02-03", "notadate", "",
    ],
    "is_original": ["true", "false", "TRUE", "False", " true ", "1", "0",
                    "yes", "no", "maybe", ""],
    "sentiment": ["", "positive", "neutral", "negative", "Positive",
                  " negative ", "NEUTRAL", "happy"],
}
JSON_EXTRA = [None, 0, 1, 7, 2.5, True, False, [1], [], {"a": 1}, {}]
COLUMNS = list(FIELDS) + ["extra"]


def cell(name):
    return st.sampled_from(POOLS.get(name, ["x", "", "1"]))


@st.composite
def csv_texts(draw):
    header = draw(st.lists(st.sampled_from(COLUMNS), min_size=0, max_size=8))
    if draw(st.booleans()):  # mostly a header with every field
        header = draw(st.permutations(list(FIELDS))) + header[:2]
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=quoting, lineterminator="\n")
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "short",
                                     "long", "multiline"]))
        if kind == "blank":
            buf.write("\n")
            continue
        row = [draw(cell(name)) for name in header]
        if kind == "short":
            row = row[:draw(st.integers(0, len(row)))]
        elif kind == "long":
            row += draw(st.lists(st.sampled_from(["x", "", "true"]),
                                 min_size=1, max_size=3))
        elif kind == "multiline" and row:
            i = draw(st.integers(0, len(row) - 1))
            row[i] = row[i] + "\nmore"
        if row:
            writer.writerow(row)
        else:
            buf.write("\n")
    return buf.getvalue()


@st.composite
def jsonl_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["object"] * 5 + ["blank", "scalar",
                                                      "broken"]))
        if kind == "blank":
            lines.append("")
        elif kind == "scalar":
            lines.append(draw(st.sampled_from(["5", "[1, 2]", '"post"', "null"])))
        elif kind == "broken":
            lines.append("{")
        else:
            names = draw(st.sets(st.sampled_from(COLUMNS)))
            if draw(st.booleans()):
                names |= set(FIELDS)
            row = {name: draw(st.one_of(cell(name), st.sampled_from(JSON_EXTRA)))
                   for name in sorted(names)}
            lines.append(json.dumps(row))
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(csv_texts())
def test_parse_csv_matches_oracle(text):
    assert outcome(parse_posts, text, "csv") == outcome(oracle_parse, text, "csv")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(jsonl_texts())
def test_parse_jsonl_matches_oracle(text):
    assert outcome(parse_posts, text, "jsonl") == outcome(oracle_parse, text, "jsonl")


def test_oracle_counts_physical_lines():
    text = ("post_id,thread_id,user_id,timestamp,is_original\n"
            'p1,t1,"two\nlines",2020-01-01T00:00:00,true\n'
            "\n"
            "p2,t1,u,2020-01-02T00:00:00,maybe\n")
    assert outcome(oracle_parse, text, "csv") == (
        IngestError, "line 5: invalid boolean 'maybe'")
