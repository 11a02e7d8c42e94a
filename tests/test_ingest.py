import io
import json
import logging
import re
from datetime import date, datetime
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumnet import ingest
from forumnet.ingest import (LABEL_CODES, IngestError, PostRecord, WindowSpec,
                             add_months, make_windows, parse_duration,
                             parse_posts, post_table, window_starts,
                             window_stats, write_posts_csv)
from forumnet.synth import RegimeScript, Segment, generate_forum
from oracles import epoch_seconds, parsed_records

CSV = """post_id,thread_id,user_id,timestamp,is_original,sentiment
p1,t1,alice,2020-01-01T10:00:00,true,positive
p2,t1,bob,2020-01-01 11:30:00,false,
p3,t2,alice,2020-02-03T09:00:00Z,true,negative
"""


def records(text: str, fmt: str = "csv") -> list[PostRecord]:
    return list(parse_posts(io.StringIO(text), fmt).records())


def test_parse_csv():
    posts = records(CSV)
    assert [p.post_id for p in posts] == ["p1", "p2", "p3"]
    assert posts[0].sentiment == "positive"
    assert posts[1].sentiment is None
    assert posts[2].timestamp == datetime(2020, 2, 3, 9, 0, 0)


def test_parse_jsonl():
    posts = records('{"post_id": "a", "thread_id": "t", "user_id": "u", '
                    '"timestamp": "2021-05-01T00:00:01", "is_original": true}\n\n',
                    "jsonl")
    assert len(posts) == 1 and posts[0].is_original


def test_parse_rejects_bad_rows():
    bad = CSV.replace("positive", "happy")
    with pytest.raises(IngestError):
        parse_posts(io.StringIO(bad))
    with pytest.raises(IngestError):
        parse_posts(io.StringIO("post_id,thread_id,user_id,timestamp,is_original\n"
                                "p1,t1,u,notadate,true\n"))
    with pytest.raises(IngestError):
        parse_posts(io.StringIO("post_id,thread_id\np1,t1\n"))
    with pytest.raises(IngestError):
        parse_posts(io.StringIO("{}"), "jsonl")
    with pytest.raises(IngestError):
        parse_posts(io.StringIO(""), "xml")
    with pytest.raises(IngestError, match=r"^thread t1: expected exactly 1 "
                                          r"original post, found 2$"):
        parse_posts(io.StringIO(CSV.replace("false", "true")))
    with pytest.raises(IngestError, match=r"^line 2: timestamp "
                                          r"'9999-12-31T23:00:00-05:00' out of range$"):
        parse_posts(io.StringIO(HEADER + "p1,t1,u,9999-12-31T23:00:00-05:00,true,\n"))


def test_parse_rejects_duplicate_post_ids():
    dup_csv = CSV + "p2,t2,carol,2020-02-04T09:00:00,false,\n"
    with pytest.raises(IngestError, match=r"^line 5: duplicate post_id 'p2'"):
        parse_posts(io.StringIO(dup_csv))
    row = ('{"post_id": "a", "thread_id": "t", "user_id": "u", '
           '"timestamp": "2021-05-01T00:00:01", "is_original": true}\n')
    with pytest.raises(IngestError, match=r"^line 3: duplicate post_id 'a'"):
        parse_posts(io.StringIO(row + "\n" + row.replace('"u"', '"v"')), "jsonl")


def test_parse_rejects_jsonl_non_objects():
    for line in ("5", "[1, 2]", '"post"', "null"):
        with pytest.raises(IngestError, match=r"^line 2: expected a JSON object"):
            parse_posts(io.StringIO("\n" + line + "\n"), "jsonl")


def test_posts_csv_roundtrip():
    posts = records(CSV)
    buf = io.StringIO()
    write_posts_csv(posts, buf)
    assert records(buf.getvalue()) == posts


def test_derive_threads():
    table = parse_posts(io.StringIO(CSV))
    assert table.thread_ids == ["t1", "t2"]
    assert table.user_ids == ["alice", "bob"]
    assert np.bincount(table.thread).tolist() == [2, 1]
    assert table.thread_label[0] == LABEL_CODES["positive"]
    assert len(set(table.user[table.thread == 1].tolist())) == 1
    assert table.thread_creation[1] == epoch_seconds(datetime(2020, 2, 3, 9))


def test_derive_threads_requires_single_original():
    posts = [
        PostRecord(datetime(2020, 1, 1), "a", "t", "u", False, None),
    ]
    with pytest.raises(IngestError, match="thread t: .* found 0"):
        post_table(posts)


def test_add_months_clamps_day():
    assert add_months(date(2020, 1, 31), 1) == date(2020, 2, 29)
    assert add_months(date(2020, 11, 15), 2) == date(2021, 1, 15)


def test_parse_duration():
    assert parse_duration("4m") == ("months", 4)
    assert parse_duration("halfmonth") == ("halfmonth",)
    with pytest.raises(IngestError):
        parse_duration("2w")


def test_window_spec_validation():
    with pytest.raises(IngestError):
        WindowSpec.from_tokens("2020-02-01", "2020-01-01", "1m", "1m")
    with pytest.raises(IngestError):  # jump larger than span leaves gaps
        WindowSpec.from_tokens("2020-01-01", "2021-01-01", "1m", "2m")


def test_monthly_window_starts():
    spec = WindowSpec.from_tokens("2009-07-01", "2014-09-01", "4m", "1m")
    starts = window_starts(spec)
    assert len(starts) == 59
    assert starts[0] == date(2009, 7, 1)
    assert starts[-1] == date(2014, 5, 1)


def test_halfmonth_window_starts():
    spec = WindowSpec.from_tokens("2020-11-01", "2021-04-01", "1m", "halfmonth")
    starts = window_starts(spec)
    assert starts[:4] == [date(2020, 11, 1), date(2020, 11, 15),
                          date(2020, 12, 1), date(2020, 12, 15)]


def test_make_windows_half_open_and_thread_scope():
    posts = [
        PostRecord(datetime(2020, 1, 15), "p1", "t1", "u1", True, "neutral"),
        PostRecord(datetime(2020, 2, 1), "p2", "t1", "u2", False, None),
        PostRecord(datetime(2020, 2, 10), "p3", "t2", "u1", True, None),
    ]
    spec = WindowSpec.from_tokens("2020-01-01", "2020-03-01", "1m", "1m")
    ws = make_windows(posts, spec)
    assert [w.label_str for w in ws] == ["2020-01-01", "2020-02-01"]
    assert window_stats(ws[0]) == {"posts": 1, "threads": 1, "users": 1}
    # the February slice sees t1's reply but inherits the corpus sentiment
    feb = ws[1]
    t = feb.table
    assert window_stats(feb) == {"posts": 2, "threads": 2, "users": 2}
    assert np.bincount(t.thread[feb.rows]).tolist() == [1, 1]  # t1, t2
    assert t.thread_label.tolist() == [LABEL_CODES["neutral"], LABEL_CODES[None]]


HEADER = "post_id,thread_id,user_id,timestamp,is_original,sentiment\n"
ROW = "p1,t1,ann,2020-01-01T10:00:00,true,positive\n"


def test_csv_error_lines_are_physical_lines():
    text = HEADER + ROW + "\n\n" + "p2,t1,bob,2020-01-02T10:00:00,maybe,\n"
    with pytest.raises(IngestError, match=r"^line 5: invalid boolean 'maybe'$"):
        parse_posts(io.StringIO(text))
    # a quoted cell spanning two lines moves the next record down by one
    text = (HEADER + 'p1,t1,"ann\nsmith",2020-01-01T10:00:00,true,\n'
            + "p2,t1,bob,2020-01-02T10:00:00,true,happy\n")
    with pytest.raises(IngestError,
                       match=r"^line 4: unknown sentiment token 'happy'$"):
        parse_posts(io.StringIO(text))
    # the error is at the record's first line, not its last
    text = HEADER + ROW + 'p2,t1,"bob\nsmith",2020-01-02T10:00:00,yes please,\n'
    with pytest.raises(IngestError, match=r"^line 3: invalid boolean"):
        parse_posts(io.StringIO(text))


def test_csv_reader_errors_are_ingest_errors():
    long_cell = '"' + "x" * 200_000 + '"'
    text = HEADER + ROW + f"p2,t1,bob,2020-01-02T10:00:00,true,{long_cell}\n"
    with pytest.raises(IngestError,
                       match=r"^line 3: field larger than field limit"):
        parse_posts(io.StringIO(text))
    with pytest.raises(IngestError, match=r"^line 1: field larger"):
        parse_posts(io.StringIO(long_cell + "\n" + ROW))


def test_csv_repeated_column_last_one_wins():
    text = ("post_id,thread_id,user_id,timestamp,is_original,user_id\n"
            "p1,t1,first,2020-01-01T10:00:00,true,last\n")
    assert records(text)[0].user_id == "last"
    # a row too short to reach the last copy leaves the field missing
    text = ("user_id,post_id,thread_id,timestamp,is_original,user_id\n"
            "first,p1,t1,2020-01-01T10:00:00,true\n")
    with pytest.raises(IngestError,
                       match=r"^line 2: missing required field\(s\) \['user_id'\]"):
        parse_posts(io.StringIO(text))


def test_csv_missing_column_and_short_row():
    text = "post_id,thread_id,timestamp,is_original\np1,t1,2020-01-01,true\n"
    with pytest.raises(IngestError,
                       match=r"^line 2: missing required field\(s\) \['user_id'\]"):
        parse_posts(io.StringIO(text))
    with pytest.raises(IngestError, match=r"^line 3: missing required field\(s\) "
                                          r"\['timestamp', 'is_original'\]"):
        parse_posts(io.StringIO(HEADER + ROW + "p2,t1,bob\n"))
    # a short row may still omit the optional sentiment
    posts = records(HEADER + "p1,t1,ann,2020-01-01,true\n")
    assert posts[0].sentiment is None


def test_csv_extra_cells_are_ignored():
    posts = records(HEADER + ROW.rstrip("\n") + ",x,,maybe\n")
    assert posts == [PostRecord(datetime(2020, 1, 1, 10), "p1", "t1", "ann",
                                True, "positive")]


def test_jsonl_value_types():
    def parse(**fields):
        row = {"post_id": "a", "thread_id": "t", "user_id": "u",
               "timestamp": "2021-05-01T00:00:01", **fields}
        # before the originals check, which is_original=0 would fail
        return parsed_records(io.StringIO(json.dumps(row) + "\n"), "jsonl")

    assert parse(is_original=True)[0].is_original is True
    assert parse(is_original=0)[0].is_original is False
    assert parse(is_original="TRUE", sentiment=" Negative ")[0].sentiment == "negative"
    with pytest.raises(IngestError, match=r"^line 1: unknown sentiment token \[1\]"):
        parse(is_original=True, sentiment=[1])
    with pytest.raises(IngestError, match=r"^line 1: invalid boolean \{\}"):
        parse(is_original={})


def test_timestamps_normalise_to_naive_utc_seconds():
    stamps = ["2020-02-03T09:00:00Z", "2020-02-03T11:00:00+02:00",
              "2020-02-03T09:00:00.999999", "2020-02-03 09:00:00"]
    text = HEADER + "".join(f"p{i},t{i},u,{ts},true,\n"
                            for i, ts in enumerate(stamps))
    posts = records(text)
    assert {p.timestamp for p in posts} == {datetime(2020, 2, 3, 9)}
    assert [p.post_id for p in posts] == ["p0", "p1", "p2", "p3"]


def test_reply_before_original_is_accepted():
    posts = [
        PostRecord(datetime(2020, 1, 20), "p1", "t1", "bob", False, "negative"),
        PostRecord(datetime(2020, 2, 5), "p2", "t1", "ann", True, "positive"),
    ]
    table = post_table(posts)
    assert table.thread_creation[0] == epoch_seconds(datetime(2020, 2, 5))
    assert table.thread_label[0] == LABEL_CODES["positive"]
    assert (len(table), len(table.user_ids)) == (2, 2)
    backwards = post_table(posts[::-1])
    for name in ("user", "thread", "time", "label", "is_original",
                 "thread_label", "thread_creation"):
        assert np.array_equal(getattr(backwards, name), getattr(table, name))
    spec = WindowSpec.from_tokens("2020-01-01", "2020-03-01", "1m", "1m")
    jan, feb = make_windows(posts, spec)
    # the January reply is in January's window; the thread is February's
    assert (jan.rows, feb.rows) == (slice(0, 1), slice(1, 2))
    assert jan.table.thread_label[jan.table.thread[0]] == LABEL_CODES["positive"]


def test_only_non_canonical_rows_reach_the_validators(caplog):
    script = RegimeScript((Segment(
        duration_days=20, user_pool=30, threads_per_day=3.0, posts_per_day=40.0,
        thread_zipf=0.5, user_zipf=0.0, thread_sentiment=(0.3, 0.5, 0.2),
        mixing=((0.6, 0.3, 0.1),) * 3),), seed=5)
    buf = io.StringIO()
    write_posts_csv(generate_forum(script), buf)
    header, *rows = buf.getvalue().splitlines(keepends=True)
    expected = records(buf.getvalue())
    # values the validators normalise to the canonical ones
    edits = [lambda f: f[3] + "Z", lambda f: f[4].capitalize(),
             lambda f: f" {f[5]} "]
    for k in (0, 1, 3, 10):
        edited = list(rows)
        for n, i in enumerate(range(0, 37 * k, 37)):
            fields = edited[i].rstrip("\n").split(",")
            fields[3 + n % 3] = edits[n % 3](fields)
            edited[i] = ",".join(fields) + "\n"
        with mock.patch.object(ingest, "_record", wraps=ingest._record) as spy, \
                caplog.at_level(logging.INFO, logger="forumnet.ingest"):
            caplog.clear()
            assert records(header + "".join(edited)) == expected
        assert spy.call_count == k
        assert caplog.messages == [f"ingest: {len(expected)} posts, {k} rows "
                                   "through the per-row validators"]


STAMP = re.compile(r"\d{4}-\d{2}-\d{2}[ T]\d{2}:\d{2}:\d{2}", re.ASCII)


@st.composite
def stamps(draw):
    """Timestamps near the canonical form, some of them one edit away."""
    text = "{:04d}-{:02d}-{:02d}{}{:02d}:{:02d}:{:02d}".format(
        draw(st.sampled_from([0, 1, 4, 100, 1900, 1970, 2000, 2019, 2020,
                              2100, 2400, 9999])),
        draw(st.integers(0, 13)), draw(st.integers(0, 32)),
        draw(st.sampled_from(" T")), draw(st.integers(0, 25)),
        draw(st.integers(0, 61)), draw(st.integers(0, 61)))
    edit = draw(st.sampled_from(["none"] * 4 + ["swap", "drop", "add"]))
    at = draw(st.integers(0, 18))
    char = draw(st.sampled_from("0 9T:-/Xt\uff10\u00e9"))
    if edit == "swap":
        text = text[:at] + char + text[at + 1:]
    elif edit == "drop":
        text = text[:at] + text[at + 1:]
    elif edit == "add":
        text = text[:at] + char + text[at:]
    return text


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(stamps(), st.sampled_from([None, 20200101, ["0"] * 19])),
                min_size=1, max_size=40))
def test_canonical_timestamps_match_fromisoformat(values):
    # canonical: the ASCII pattern, naming a second fromisoformat accepts
    seconds, canonical = ingest._stamp_seconds(values)
    for value, second, ok in zip(values, seconds.tolist(), canonical.tolist()):
        try:
            ts = (datetime.fromisoformat(value)
                  if type(value) is str and STAMP.fullmatch(value) else None)
        except ValueError:
            ts = None
        assert ok == (ts is not None), value
        if ok:
            assert second == epoch_seconds(ts), value
