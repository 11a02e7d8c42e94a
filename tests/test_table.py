"""Property tests: the post-table stages against the dict-based oracles.

Small random corpora exercise repeated users per thread, single-user
threads, unlabeled threads and originals stamped after replies; their
tiny post counts make equal pair weights, and so ties at the
sparsification threshold, common.  Every comparison is exact.
"""

from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as o
from forumnet.graphs import GraphError, write_edge_list
from forumnet.ingest import (LABEL_CODES, IngestError, PostRecord, WindowSpec,
                             make_windows, post_table)
from forumnet.pipeline import inference_artifacts, windows_table
from forumnet.projection import (_incidence, project_pairs, project_window,
                                 sparsify_pairs)
from forumnet.sentiment import (DiscordanceParams, discordance_window_avg,
                                label_mixing, labeled_threads,
                                sentiment_metrics)

LABELS = (None, "positive", "neutral", "negative")
START = datetime(2019, 12, 20)
SPEC = WindowSpec.from_tokens("2020-01-01", "2020-04-01", "1m", "1m")
PARAMS = st.sampled_from([DiscordanceParams(), DiscordanceParams(2, 2),
                          DiscordanceParams(3, 4)])


@st.composite
def threads(draw, most=8, days=110):
    """Per thread: (id, [(user, day, label)], index of the original)."""
    ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=most,
                        unique=True))
    pool = draw(st.integers(1, 6))
    out = []
    for tid in ids:
        posts = draw(st.lists(
            st.tuples(st.integers(0, pool - 1), st.integers(0, days),
                      st.sampled_from(LABELS)),
            min_size=1, max_size=7))
        out.append((f"t{tid}", posts, draw(st.integers(0, len(posts) - 1))))
    return out


def records(spec, originals=None):
    """Post records in a shuffled order; ``originals`` overrides the number
    of originals per thread id."""
    posts = []
    for tid, plist, orig in spec:
        n_orig = (originals or {}).get(tid, 1)
        for i, (user, day, label) in enumerate(plist):
            # posts share days, so equal timestamps are ordered by post id
            ts = START + timedelta(days=day, hours=i % 2)
            is_orig = (i - orig) % len(plist) < n_orig
            posts.append(PostRecord(ts, f"p{len(posts)}", tid, f"u{user}",
                                    is_orig, label))
    return posts[1::2] + posts[::2]


def both_windows(posts):
    return make_windows(posts, SPEC), o.make_windows(posts, SPEC)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(threads())
def test_table_facts_and_windows_match_oracle(spec):
    posts = records(spec)
    table = post_table(posts)
    for tid, rec in o.derive_threads(posts).items():
        code = table.thread_ids.index(tid)
        assert table.thread_label[code] == LABEL_CODES[rec.sentiment]
        assert table.thread_creation[code] == o.epoch_seconds(rec.creation)
    new, old = both_windows(posts)
    assert windows_table(new) == o.windows_table(old)
    assert [sentiment_metrics(w) for w in new] == [
        o.sentiment_metrics(w) for w in old]


# many threads in few windows: pairs meet in several threads, so a change
# in the order thread terms are summed in moves some weight by an ulp
@settings(max_examples=300, deadline=None, derandomize=True)
@given(threads(most=24, days=45), st.booleans())
def test_networks_match_oracle(spec, weighted):
    for w, ow in zip(*both_windows(records(spec))):
        users, user, thread, count = _incidence(w)
        incidence, ousers, _ = o.build_bipartite(ow)
        # entry order decides the order threads contribute in; thread
        # positions follow the codes, which follow the sorted ids
        assert list(zip(zip(user.tolist(), thread.tolist()),
                        count.tolist())) == list(incidence.items())
        assert [w.table.user_ids[i] for i in users] == ousers
        a, b, weights = project_pairs(users.size, user, thread, count, weighted)
        expected_weights = o.project_users(incidence, weighted)
        assert o.pair_dict(a, b, weights) == expected_weights
        try:
            expected = o.sparsify_threshold(expected_weights)
        except GraphError:
            with pytest.raises(GraphError):
                project_window(w, weighted)
            with pytest.raises(GraphError):
                sparsify_pairs(users.size, a, b, weights)
            continue
        graph, threshold = project_window(w, weighted)
        assert write_edge_list(graph) == write_edge_list(expected["sparsified"])
        assert graph.node_count == expected["sparsified"].node_count
        assert threshold == expected["threshold"]
        threshold, active, a, b, _ = sparsify_pairs(users.size, a, b, weights)
        assert tuple(active.tolist()) == expected["user_index"]
        assert o.pair_dict(a, b, weights) == expected["weights"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(threads(), PARAMS)
def test_discordance_matches_oracle(spec, params):
    for w, ow in zip(*both_windows(records(spec))):
        sequences = o.labeled_sequences(ow.posts).values()
        expected = (o.discordance_window_avg(sequences, params),
                    sum(o.qualifies(seq, params) for seq in sequences))
        assert discordance_window_avg(labeled_threads(w.table, w.rows),
                                      params) == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(threads(), PARAMS)
def test_mixing_and_inference_match_oracle(spec, params):
    posts = records(spec)
    table = post_table(posts)
    groups = labeled_threads(table)
    new, old = both_windows(posts)
    summaries = [sentiment_metrics(w) for w in new]
    try:
        expected = o.corpus_mixing_matrix(posts)
    except ValueError:
        with pytest.raises(ValueError):
            label_mixing(table.thread_label[groups.thread], groups)
        return
    m = label_mixing(table.thread_label[groups.thread], groups)
    assert m.tobytes() == expected.tobytes()
    assert inference_artifacts(table, summaries, params) == o.inference_artifacts(
        posts, [o.sentiment_metrics(w) for w in old], params)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(threads(), st.data())
def test_thread_without_one_original_raises(spec, data):
    ids = [tid for tid, _, _ in spec]
    broken = data.draw(st.dictionaries(st.sampled_from(ids),
                                       st.sampled_from([0, 2]), min_size=1))
    posts = records(spec, broken)
    try:
        o.derive_threads(sorted(posts))
    except IngestError as exc:
        # both name the first offending thread in time order
        with pytest.raises(IngestError, match="^thread t") as err:
            post_table(posts)
        assert str(err.value) == str(exc)
    else:  # a one-post thread cannot have two originals
        post_table(posts)


@pytest.mark.parametrize("originals", [0, 2])
def test_original_count_error_names_thread(originals):
    posts = [PostRecord(datetime(2020, 1, 1), "p1", "ok", "u", True, None)] + [
        PostRecord(datetime(2020, 1, 2 + i), f"q{i}", "bad", "u", i < originals,
                   None) for i in range(3)]
    with pytest.raises(IngestError, match=f"^thread bad: expected exactly 1 "
                                          f"original post, found {originals}$"):
        post_table(posts)


def test_weights_tie_at_threshold():
    # a-b share one thread and b-c another, one post each: every user's
    # strongest tie is 1/2, so the threshold is 1/2 and both edges, at
    # exactly that weight, are kept
    rows = [("t1", "a", True), ("t1", "b", False),
            ("t2", "b", True), ("t2", "c", False)]
    posts = [PostRecord(datetime(2020, 1, i + 1), f"p{i}", t, u, orig, None)
             for i, (t, u, orig) in enumerate(rows)]
    (w,) = make_windows(posts, WindowSpec.from_tokens(
        "2020-01-01", "2020-02-01", "1m", "1m"))
    graph, threshold = project_window(w, weighted=True)
    assert threshold == 0.5
    assert write_edge_list(graph) == "0 1\n1 2\n"
