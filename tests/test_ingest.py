import io
import json
from datetime import date, datetime

import pytest

from forumnet.ingest import (IngestError, PostRecord, WindowSpec, add_months,
                             derive_threads, make_windows, parse_duration,
                             parse_posts, window_starts, window_stats,
                             write_posts_csv)

CSV = """post_id,thread_id,user_id,timestamp,is_original,sentiment
p1,t1,alice,2020-01-01T10:00:00,true,positive
p2,t1,bob,2020-01-01 11:30:00,false,
p3,t2,alice,2020-02-03T09:00:00Z,true,negative
"""


def test_parse_csv():
    posts = parse_posts(io.StringIO(CSV))
    assert [p.post_id for p in posts] == ["p1", "p2", "p3"]
    assert posts[0].sentiment == "positive"
    assert posts[1].sentiment is None
    assert posts[2].timestamp == datetime(2020, 2, 3, 9, 0, 0)


def test_parse_jsonl():
    lines = io.StringIO(
        '{"post_id": "a", "thread_id": "t", "user_id": "u", '
        '"timestamp": "2021-05-01T00:00:01", "is_original": true}\n\n'
    )
    posts = parse_posts(lines, "jsonl")
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
    posts = parse_posts(io.StringIO(CSV))
    buf = io.StringIO()
    write_posts_csv(posts, buf)
    again = parse_posts(io.StringIO(buf.getvalue()))
    assert again == posts


def test_derive_threads():
    posts = parse_posts(io.StringIO(CSV))
    threads = derive_threads(posts)
    assert threads["t1"].post_count == 2
    assert threads["t1"].sentiment == "positive"
    assert threads["t2"].user_count == 1


def test_derive_threads_requires_single_original():
    posts = [
        PostRecord(datetime(2020, 1, 1), "a", "t", "u", False, None),
    ]
    with pytest.raises(IngestError):
        derive_threads(posts)


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
    assert feb.threads["t1"].post_count == 1
    assert feb.threads["t1"].sentiment == "neutral"
    assert feb.threads["t2"].sentiment is None


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


def test_csv_repeated_column_last_one_wins():
    text = ("post_id,thread_id,user_id,timestamp,is_original,user_id\n"
            "p1,t1,first,2020-01-01T10:00:00,true,last\n")
    assert parse_posts(io.StringIO(text))[0].user_id == "last"
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
    posts = parse_posts(io.StringIO(HEADER + "p1,t1,ann,2020-01-01,true\n"))
    assert posts[0].sentiment is None


def test_csv_extra_cells_are_ignored():
    posts = parse_posts(io.StringIO(HEADER + ROW.rstrip("\n") + ",x,,maybe\n"))
    assert posts == [PostRecord(datetime(2020, 1, 1, 10), "p1", "t1", "ann",
                                True, "positive")]


def test_jsonl_value_types():
    def parse(**fields):
        row = {"post_id": "a", "thread_id": "t", "user_id": "u",
               "timestamp": "2021-05-01T00:00:01", **fields}
        return parse_posts(io.StringIO(json.dumps(row) + "\n"), "jsonl")

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
    posts = parse_posts(io.StringIO(text))
    assert {p.timestamp for p in posts} == {datetime(2020, 2, 3, 9)}
    assert [p.post_id for p in posts] == ["p0", "p1", "p2", "p3"]


def test_reply_before_original_is_accepted():
    posts = [
        PostRecord(datetime(2020, 1, 20), "p1", "t1", "bob", False, "negative"),
        PostRecord(datetime(2020, 2, 5), "p2", "t1", "ann", True, "positive"),
    ]
    threads = derive_threads(posts)
    assert threads["t1"].creation == datetime(2020, 2, 5)
    assert threads["t1"].sentiment == "positive"
    assert (threads["t1"].post_count, threads["t1"].user_count) == (2, 2)
    assert derive_threads(posts[::-1]) == threads
    spec = WindowSpec.from_tokens("2020-01-01", "2020-03-01", "1m", "1m")
    jan, feb = make_windows(posts, spec)
    assert jan.threads["t1"].creation == datetime(2020, 2, 5)
    assert jan.threads["t1"].sentiment == "positive"
    assert feb.threads["t1"].post_count == 1
