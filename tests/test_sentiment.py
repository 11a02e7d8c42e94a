import math
import random
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumnet.ingest import PostRecord, WindowSpec, make_windows
from forumnet.sentiment import (SENTIMENT_COMBOS, DiscordanceParams,
                                SentimentSummary, cohen_kappa,
                                discordance_thread, discordance_window_avg,
                                flag_sentiment_changes, infer_discordance,
                                infer_post_sentiment, inferred_ratio_zscores,
                                labeled_sequences, mixing_matrix,
                                sentiment_metrics,
                                summaries_to_csv, zscore_series,
                                zscore_values)

POS, NEU, NEG = "positive", "neutral", "negative"

PAIR_DISTANCE = {
    (POS, POS): 0, (NEU, NEU): 0, (NEG, NEG): 0,
    (POS, NEU): 1, (NEU, POS): 1, (NEG, NEU): 1, (NEU, NEG): 1,
    (POS, NEG): 2, (NEG, POS): 2,
}


def discordance_by_pairs(sentiments, params=DiscordanceParams()):
    """Reference discordance: every pair in every sliding window."""
    seq = list(sentiments)
    n = len(seq)
    if n < params.min_window:
        return 0.0
    per_d = []
    for D in range(params.min_window, min(params.max_window, n) + 1):
        total = 0
        for start in range(n - D + 1):
            window = seq[start:start + D]
            for i in range(D):
                for j in range(i + 1, D):
                    total += PAIR_DISTANCE[(window[i], window[j])]
        most = 2 * (D // 2) * ((D + 1) // 2)
        per_d.append(total / ((n - D + 1) * most))
    return sum(per_d) / len(per_d)


def summary(label, pos, neu, neg):
    combos = {c: 0 for c in SENTIMENT_COMBOS}
    combos[frozenset({POS})] = pos
    combos[frozenset({NEU})] = neu
    combos[frozenset({NEG})] = neg
    return SentimentSummary(
        label,
        {POS: pos, NEU: neu, NEG: neg},
        0,
        {POS: pos, NEU: neu, NEG: neg},
        combos,
    )


def test_zscore_hand_value():
    zs = zscore_values([1.0, 1.0, 1.0, 5.0])
    # mean 2, population std sqrt(3)
    assert zs[-1] == pytest.approx(math.sqrt(3))
    assert zs[0] == pytest.approx(-1 / math.sqrt(3))


def test_zscore_none_and_constant_handling():
    assert zscore_values([None, None]) == [None, None]
    assert zscore_values([2.0, None, 2.0]) == [0.0, None, 0.0]


def test_sentiment_metrics_window():
    posts = [
        PostRecord(datetime(2020, 1, 1), "p1", "t1", "ann", True, POS),
        PostRecord(datetime(2020, 1, 2), "p2", "t1", "bob", False, None),
        PostRecord(datetime(2020, 1, 3), "p3", "t2", "ann", True, NEG),
        PostRecord(datetime(2020, 1, 4), "p4", "t3", "cat", True, None),
    ]
    w = make_windows(posts, WindowSpec.from_tokens(
        "2020-01-01", "2020-02-01", "1m", "1m"))[0]
    s = sentiment_metrics(w)
    assert s.thread_counts == {POS: 1, NEU: 0, NEG: 1}
    assert s.unlabeled_threads == 1
    # posts inherit the thread sentiment; t3 is unlabeled and excluded
    assert s.post_counts == {POS: 2, NEU: 0, NEG: 1}
    assert s.user_combos[frozenset({POS, NEG})] == 1
    assert s.user_only(POS) == 1
    assert s.user_only(NEG) == 0


def test_zscore_series_and_flags():
    sums = [summary(f"w{i}", 10, 0, 10) for i in range(4)]
    sums.append(summary("w4", 50, 0, 10))
    table = zscore_series(sums)
    # pos/neg series [1,1,1,1,5]: mean 1.8, std 1.6 -> final z is 2
    for metric in ("threads", "posts", "users"):
        assert table.zscores[(metric, "pos_neg")][-1] == pytest.approx(2.0)
    flags = flag_sentiment_changes(table)
    assert {(f["window"], f["sentiment"], f["change"]) for f in flags} == {
        ("w4", POS, "increase"),
        ("w4", NEG, "decrease"),
    }
    csv = table.to_csv()
    assert csv.splitlines()[0].startswith("window,")
    assert len(csv.splitlines()) == 6


def test_zscore_series_needs_two():
    with pytest.raises(ValueError):
        zscore_series([summary("w0", 1, 1, 1)])


def test_discordance_hand_values():
    assert discordance_thread([POS, POS, POS, POS]) == 0.0
    assert discordance_thread([POS]) == 0.0
    assert discordance_thread([]) == 0.0
    # opposite pair: one window of size 2 at the attainable maximum
    assert discordance_thread([POS, NEG]) == 1.0
    assert discordance_thread([POS, NEU]) == 0.5
    # n=3: D=2 gives (0+2)/(2*2)=0.5, D=3 gives 4/4=1.0
    assert discordance_thread([POS, POS, NEG]) == pytest.approx(0.75)


def test_discordance_bounds_and_alternating_max():
    rng = random.Random(0)
    for _ in range(500):
        seq = [rng.choice((POS, NEU, NEG)) for _ in range(rng.randint(2, 12))]
        val = discordance_thread(seq)
        assert 0.0 <= val <= 1.0
    # perfectly alternating opposite sentiments achieve the maximum
    assert discordance_thread([POS, NEG] * 4) == 1.0


_params = st.integers(2, 8).flatmap(
    lambda lo: st.builds(DiscordanceParams, st.just(lo), st.integers(lo, 8)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from((POS, NEU, NEG)), max_size=40), _params)
def test_discordance_closed_form_matches_pair_oracle(seq, params):
    assert discordance_thread(seq, params) == discordance_by_pairs(seq, params)


def test_discordance_thread_shorter_than_min_window():
    params = DiscordanceParams(min_window=3, max_window=5)
    assert discordance_thread([POS, NEG], params) == 0.0
    assert discordance_thread([POS, NEG, POS], params) == 1.0
    with pytest.raises(ValueError):
        discordance_thread([POS, "angry"])


def test_discordance_params_validation():
    with pytest.raises(ValueError):
        DiscordanceParams(min_window=1)
    with pytest.raises(ValueError):
        DiscordanceParams(min_window=3, max_window=2)


def test_discordance_window_avg():
    posts = [
        PostRecord(datetime(2020, 1, 1), "p1", "t1", "a", True, POS),
        PostRecord(datetime(2020, 1, 2), "p2", "t1", "b", False, NEG),
        PostRecord(datetime(2020, 1, 3), "p3", "t2", "a", True, POS),
        PostRecord(datetime(2020, 1, 4), "p4", "t2", "b", False, POS),
        PostRecord(datetime(2020, 1, 5), "p5", "t3", "c", True, NEU),
    ]
    w = make_windows(posts, WindowSpec.from_tokens(
        "2020-01-01", "2020-02-01", "1m", "1m"))[0]
    sequences = labeled_sequences(w.posts).values()
    # t1 -> 1.0, t2 -> 0.0, t3 has a single labeled post and is skipped
    assert discordance_window_avg(sequences) == pytest.approx(0.5)
    # with a smallest window of 3, no thread qualifies
    assert discordance_window_avg(sequences, DiscordanceParams(3, 5)) is None
    empty = make_windows(
        [PostRecord(datetime(2020, 1, 1), "p", "t", "u", True, None)],
        WindowSpec.from_tokens("2020-01-01", "2020-02-01", "1m", "1m"))[0]
    assert discordance_window_avg(labeled_sequences(empty.posts).values()) is None


TABLE = np.array([
    [0.517, 0.190, 0.225],
    [0.420, 0.769, 0.473],
    [0.063, 0.041, 0.302],
])


def posts_for(props, total=1000):
    counts = [round(p * total) for p in props]
    return [POS] * counts[0] + [NEU] * counts[1] + [NEG] * counts[2]


def test_mixing_matrix_recovers_proportions():
    samples = [
        (POS, posts_for(TABLE[:, 0])),
        (NEU, posts_for(TABLE[:, 1])),
        (NEG, posts_for(TABLE[:, 2])),
    ]
    m = mixing_matrix(samples)
    assert np.allclose(m, TABLE, atol=1e-12)
    assert np.allclose(m.sum(axis=0), 1.0)
    # macro average across threads of a class, not post-weighted
    two = mixing_matrix([
        (POS, [POS]), (POS, [NEG] * 9),
        (NEU, [NEU]), (NEG, [NEG]),
    ])
    assert two[0, 0] == pytest.approx(0.5)
    assert two[2, 0] == pytest.approx(0.5)


def test_mixing_matrix_validation():
    with pytest.raises(ValueError):
        mixing_matrix([(POS, [POS]), (NEU, [NEU])])  # no negative sample
    with pytest.raises(ValueError):
        mixing_matrix([("angry", [POS])])


def test_infer_post_sentiment_all_neutral():
    s = summary("w0", 0, 40, 0)
    inferred = infer_post_sentiment([s], TABLE)[0]
    assert inferred == pytest.approx((0.190, 0.769, 0.041), abs=1e-9)
    empty = summary("w1", 0, 0, 0)
    assert infer_post_sentiment([empty], TABLE)[0] is None


def test_inferred_ratio_zscores():
    props = [(0.2, 0.6, 0.2), (0.4, 0.4, 0.2), None]
    zs = inferred_ratio_zscores(props)
    assert zs["pos_neg"][2] is None
    raw = [1.0, 2.0]
    mean = 1.5
    std = 0.5
    assert zs["pos_neg"][0] == pytest.approx((raw[0] - mean) / std)


def test_infer_discordance_weighted_mean():
    per_class = {POS: 0.4, NEU: 0.1, NEG: 0.8}
    s = summary("w0", 3, 1, 0)
    out = infer_discordance([s, summary("w1", 0, 0, 0)], per_class)
    assert out[0] == pytest.approx((3 * 0.4 + 1 * 0.1) / 4)
    assert out[1] is None


def test_cohen_kappa_hand_value():
    a = [POS] * 20 + [NEU] * 10 + [NEG] * 10
    b = list(a)
    # two 2-cycles: swap labels across four slots, both marginals unchanged
    b[0], b[20] = b[20], b[0]
    b[1], b[30] = b[30], b[1]
    assert cohen_kappa(a, b) == pytest.approx(0.84)
    assert cohen_kappa(a, a) == 1.0
    with pytest.raises(ValueError):
        cohen_kappa([POS], [])


def test_summaries_to_csv():
    csv = summaries_to_csv([summary("w0", 1, 2, 3)])
    lines = csv.splitlines()
    assert lines[0].split(",")[:5] == [
        "window", "threads_positive", "threads_neutral", "threads_negative",
        "threads_unlabeled",
    ]
    assert lines[1].startswith("w0,1,2,3,0,1,2,3,")
