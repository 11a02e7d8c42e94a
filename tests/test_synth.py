import json
from datetime import date, timedelta

import numpy as np
import pytest

from forumnet.ingest import post_table
from forumnet.synth import RegimeScript, ScriptError, Segment, generate_forum

IDENTITY = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def total_days(script: RegimeScript) -> int:
    return sum(seg.duration_days for seg in script.segments)


def script_to_json(script: RegimeScript) -> str:
    """The JSON text ``RegimeScript.from_json`` reads back."""
    return json.dumps({
        "seed": script.seed,
        "start": script.start.isoformat(),
        "thread_lifetime_days": script.thread_lifetime_days,
        "segments": [
            {
                "duration_days": s.duration_days,
                "user_pool": s.user_pool,
                "threads_per_day": s.threads_per_day,
                "posts_per_day": s.posts_per_day,
                "thread_zipf": s.thread_zipf,
                "user_zipf": s.user_zipf,
                "thread_sentiment": list(s.thread_sentiment),
                "mixing": [list(c) for c in s.mixing],
            }
            for s in script.segments
        ],
    }, indent=2) + "\n"


def seg(**kw):
    base = dict(
        duration_days=10, user_pool=30, threads_per_day=3.0,
        posts_per_day=20.0, thread_zipf=0.5, user_zipf=0.0,
        thread_sentiment=(0.3, 0.5, 0.2), mixing=IDENTITY,
    )
    base.update(kw)
    return Segment(**base)


def test_determinism():
    script = RegimeScript((seg(),), seed=42)
    a = generate_forum(script)
    b = generate_forum(script)
    assert a == b
    c = generate_forum(RegimeScript((seg(),), seed=43))
    assert c != a


def test_output_is_well_formed():
    script = RegimeScript((seg(duration_days=20),), seed=1,
                          start=date(2021, 3, 1))
    posts = generate_forum(script)
    assert posts == sorted(posts, key=lambda p: (p.timestamp, p.post_id))
    assert len({p.post_id for p in posts}) == len(posts)
    assert all(p.timestamp.date() >= date(2021, 3, 1) for p in posts)
    assert all(
        p.timestamp.date() < date(2021, 3, 1) + timedelta(days=20)
        for p in posts
    )
    # every thread has exactly one original, so coding succeeds
    table = post_table(posts)
    assert np.bincount(table.thread).sum() == len(posts)
    assert table.is_original.sum() == len(table.thread_ids)


def test_identity_mixing_keeps_thread_sentiment():
    script = RegimeScript((seg(duration_days=15),), seed=7)
    posts = generate_forum(script)
    by_thread = {}
    for p in posts:
        if p.is_original:
            by_thread[p.thread_id] = p.sentiment
    for p in posts:
        assert p.sentiment == by_thread[p.thread_id]


def test_lifetime_limits_reply_targets():
    script = RegimeScript((seg(duration_days=30, threads_per_day=2.0),),
                          seed=3, thread_lifetime_days=1)
    posts = generate_forum(script)
    opened = {}
    for p in posts:
        if p.is_original:
            opened[p.thread_id] = p.timestamp.date()
    for p in posts:
        if not p.is_original:
            assert (p.timestamp.date() - opened[p.thread_id]).days < 1


def test_segment_validation():
    with pytest.raises(ScriptError):
        seg(duration_days=0)
    with pytest.raises(ScriptError):
        seg(user_pool=0)
    with pytest.raises(ScriptError):
        seg(posts_per_day=0.0)
    with pytest.raises(ScriptError):
        seg(thread_zipf=-0.1)
    with pytest.raises(ScriptError):
        seg(thread_sentiment=(0.5, 0.5, 0.5))
    with pytest.raises(ScriptError):
        seg(mixing=IDENTITY[:2])
    with pytest.raises(ScriptError):
        RegimeScript((), seed=0)
    with pytest.raises(ScriptError):
        RegimeScript((seg(),), seed=0, thread_lifetime_days=0)


def test_json_roundtrip():
    script = RegimeScript((seg(), seg(user_zipf=1.5)), seed=5,
                          start=date(2019, 12, 1), thread_lifetime_days=4)
    back = RegimeScript.from_json(script_to_json(script))
    assert back == script
    assert total_days(back) == 20


def test_from_json_rejects_unknown_keys():
    with pytest.raises(ScriptError):
        RegimeScript.from_json('{"segments": [], "seed": 1, "bogus": 2}')
    with pytest.raises(ScriptError):
        RegimeScript.from_json("{not json")
