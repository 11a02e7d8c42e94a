"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The end-to-end criteria (9 and 10) share a 100-seed synthetic corpus run
built once per session; everything else is self-contained.
"""

import calendar
import itertools
import json
import math
import random
import time
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from forumnet.changes import flag_changes
from forumnet.emd import emd, emd_star, make_distribution, quantile_shift_profile
from forumnet.graphs import Graph, build_graph
from forumnet.ingest import WindowSpec, make_windows, window_starts, write_posts_csv
from forumnet.netemd import OrbitSet, netemd_matrix, pca_netemd_matrix
from forumnet.orbits import count_orbits, count_orbits_bruteforce
from forumnet.pipeline import PipelineConfig, run_pipeline
from forumnet.projection import project_pairs, project_window, sparsify_pairs
from forumnet.sentiment import (DiscordanceParams, discordance_scores,
                                flag_sentiment_changes, infer_post_sentiment,
                                label_mixing, sentiment_metrics, zscore_series)
from forumnet.synth import RegimeScript, Segment, generate_forum
from oracles import coded, pair_arrays, pair_dict

POS, NEU, NEG = "positive", "neutral", "negative"


# ---------------------------------------------------------------- criterion 1

def _random_graph(n, p, rng):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def test_criterion_1_orbit_oracle_equivalence(acceptance):
    rng = random.Random(20250823)
    t0 = time.time()
    equal = 0
    for i in range(200):
        n = rng.randint(10, 60)
        g = _random_graph(n, (0.05, 0.15, 0.3, 0.5)[i % 4], rng)
        fast = count_orbits(g)
        slow = count_orbits_bruteforce(g)
        equal += int(np.array_equal(fast.counts, slow.counts))
    elapsed = time.time() - t0
    acceptance(1, "orbit oracle equivalence", equal == 200 and elapsed < 60,
               f"{equal}/200 equal, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_orbit_performance(acceptance):
    rng = np.random.default_rng(7)
    n = 5000
    iu = np.triu_indices(n, 1)
    mask = rng.random(len(iu[0])) < 50 / (n - 1)
    g = build_graph(n, list(zip(iu[0][mask].tolist(), iu[1][mask].tolist())))
    t0 = time.time()
    om = count_orbits(g)
    elapsed = time.time() - t0
    ok = elapsed < 60 and om.counts.shape == (n, 15)
    acceptance(2, "orbit census at n=5000, deg 50", ok, f"{elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 3

def _grid_min(p, q, rounds=4, points=801):
    """Independent grid-search oracle for the EMD* translation infimum."""
    ps = p.scaled(1.0 / p.std) if p.variance > 0 else p
    qs = q.scaled(1.0 / q.std) if q.variance > 0 else q
    a_k, w_k = quantile_shift_profile(ps, qs)
    center = qs.mean - ps.mean
    radius = max(
        (ps.support[-1] - ps.support[0]) + (qs.support[-1] - qs.support[0]), 1.0
    )
    lo, hi = center - radius, center + radius
    best = None
    for _ in range(rounds):
        cs = np.linspace(lo, hi, points)
        vals = np.abs(a_k[None, :] + cs[:, None]) @ w_k
        i = int(np.argmin(vals))
        best = float(vals[i])
        step = (hi - lo) / (points - 1)
        lo, hi = cs[i] - step, cs[i] + step
    return best


def test_criterion_3_metric_properties(acceptance):
    rng = random.Random(31)

    def rand_dist(lo=2, hi=25):
        return make_distribution(
            [rng.gauss(0, 3) for _ in range(rng.randint(lo, hi))]
        )

    sym = nonneg = affine = grid = 0
    for _ in range(1000):
        p, q = rand_dist(), rand_dist()
        d_pq = emd_star(p, q)
        d_qp = emd_star(q, p)
        sym += int(abs(d_pq - d_qp) <= 1e-8)
        nonneg += int(d_pq >= 0)
        a = rng.uniform(0.1, 5.0)
        b = rng.uniform(-10, 10)
        img = type(p)(p.support * a + b, p.masses, p.mean * a + b,
                      p.variance * a * a)
        affine += int(emd_star(p, img) <= 1e-8)
        grid += int(abs(d_pq - _grid_min(p, q)) <= 1e-6)

    g = _random_graph(18, 0.35, rng)
    om = count_orbits(g)
    relabel = 0
    for _ in range(100):
        perm = list(range(18))
        rng.shuffle(perm)
        h = build_graph(18, [(perm[u], perm[v]) for u, v in g.edges])
        relabel += int(netemd_matrix([om, count_orbits(h)]).values[0, 1] == 0.0)

    ok = sym == nonneg == affine == grid == 1000 and relabel == 100
    acceptance(3, "EMD*/NetEmd metric properties", ok,
               f"sym {sym}, nonneg {nonneg}, affine {affine}, "
               f"grid {grid} /1000; relabel {relabel}/100")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_triangle_vs_path_spot_value(acceptance):
    tri = count_orbits(build_graph(3, [(0, 1), (1, 2), (0, 2)]), 2)
    path = count_orbits(build_graph(3, [(0, 1), (1, 2)]), 2)
    got = netemd_matrix([tri, path], OrbitSet((0,))).values[0, 1]
    expect = 1 / math.sqrt(2)
    oracle = _grid_min(make_distribution(tri.column(0)),
                       make_distribution(path.column(0)))
    ok = abs(got - expect) <= 1e-6 and abs(got - oracle) <= 1e-6
    acceptance(4, "triangle-vs-P3 spot value 1/sqrt(2)", ok,
               f"got {got:.9f}")


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_projection_correctness(acceptance):
    rng = random.Random(5)

    plain_ok = 0
    for _ in range(100):
        users, threads = rng.randint(4, 10), rng.randint(3, 8)
        inc = {
            (u, t): rng.randint(1, 3)
            for u in range(users) for t in range(threads)
            if rng.random() < 0.4
        }
        X = np.zeros((users, threads))
        for (u, t), c in inc.items():
            X[u, t] = c
        multi = np.count_nonzero(X, axis=0) >= 2
        P = X[:, multi] @ X[:, multi].T
        weights = pair_dict(*project_pairs(users, *pair_arrays(inc), weighted=False))
        good = all(
            weights.get((u, v), 0.0) == P[u, v]
            for u in range(users) for v in range(u + 1, users)
        )
        plain_ok += int(good)

    hand = pair_dict(*project_pairs(2, *pair_arrays({(0, 0): 2, (1, 0): 1})))
    hand_ok = hand == {(0, 1): 2 / 3}

    thr_ok = 0
    for _ in range(100):
        n = rng.randint(4, 12)
        weights = {
            (u, v): rng.uniform(0.01, 1.0)
            for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        }
        if not weights:
            thr_ok += 1
            continue
        threshold, active, a, b, kept = sparsify_pairs(n, *pair_arrays(weights))
        sparsified = Graph(active.size, frozenset(zip(a[kept].tolist(),
                                                      b[kept].tolist())))
        max_w = {}
        for (u, v), w in weights.items():
            max_w[u] = max(max_w.get(u, 0.0), w)
            max_w[v] = max(max_w.get(v, 0.0), w)
        closed_form = min(max_w.values())
        kept_above = [
            p for p, w in zip(zip(a.tolist(), b.tolist()), weights.values())
            if w >= threshold + 1e-12
        ]
        touched = {x for p in kept_above for x in p}
        thr_ok += int(
            threshold == closed_form
            and all(d > 0 for d in sparsified.degrees())
            and len(touched) < sparsified.node_count
        )

    ok = plain_ok == 100 and hand_ok and thr_ok == 100
    acceptance(5, "projection + sparsification oracles", ok,
               f"plain {plain_ok}/100, hand {hand_ok}, threshold {thr_ok}/100")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_window_anchors(acceptance):
    vaccine = window_starts(
        WindowSpec.from_tokens("2009-07-01", "2014-09-01", "4m", "1m"))
    v_ok = (
        len(vaccine) == 59
        and vaccine[0] == date(2009, 7, 1)
        and vaccine[1] == date(2009, 8, 1)
    )
    covid = window_starts(
        WindowSpec.from_tokens("2020-11-01", "2021-04-01", "1m", "halfmonth"))
    c_ok = covid[:4] == [date(2020, 11, 1), date(2020, 11, 15),
                         date(2020, 12, 1), date(2020, 12, 15)]
    acceptance(6, "windowing anchors", v_ok and c_ok,
               f"vaccine {len(vaccine)} windows from {vaccine[0]}, "
               f"covid starts {[str(d) for d in covid[:2]]}")


# ---------------------------------------------------------------- criterion 7

TABLE = np.array([
    [0.517, 0.190, 0.225],
    [0.420, 0.769, 0.473],
    [0.063, 0.041, 0.302],
])


def test_criterion_7_mixing_matrix_roundtrip(acceptance):
    def posts_for(props, total=1000):
        counts = [round(x * total) for x in props]
        return [POS] * counts[0] + [NEU] * counts[1] + [NEG] * counts[2]

    # one thread of each class, in SENTIMENTS order
    m = label_mixing(np.arange(3), coded([
        posts_for(TABLE[:, 0]),
        posts_for(TABLE[:, 1]),
        posts_for(TABLE[:, 2]),
    ]))
    round_ok = np.array_equal(np.round(m, 3), TABLE)

    class Neutral:
        post_counts = {POS: 0, NEU: 37, NEG: 0}

    inferred = infer_post_sentiment([Neutral()], m)[0]
    infer_ok = (
        inferred is not None
        and max(abs(a - b) for a, b in zip(inferred, (0.190, 0.769, 0.041)))
        <= 1e-9
    )
    acceptance(7, "mixing-matrix round-trip + neutral inference",
               round_ok and infer_ok,
               f"inferred {tuple(round(float(x), 4) for x in inferred)}")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_discordance(acceptance):
    d2 = DiscordanceParams(2, 2)
    block, inter = discordance_scores(
        coded([[NEG] * 3 + [POS] * 3, [NEG, POS] * 3]), d2)
    contrast_ok = block == 0.2 and inter == 1.0

    rng = random.Random(8)
    scores = discordance_scores(coded(
        [rng.choice((POS, NEU, NEG)) for _ in range(rng.randint(2, 15))]
        for _ in range(10_000)))
    bounds_ok = len(scores) == 10_000 and all(0.0 <= v <= 1.0 for v in scores)

    # for every two-label multiset admitting a perfect alternation, the
    # alternating arrangement attains the exhaustive maximum
    alt_ok = True
    for a, b in itertools.combinations((POS, NEU, NEG), 2):
        for n in range(2, 9):
            for ca in range(1, n):
                cb = n - ca
                if abs(ca - cb) > 1:
                    continue
                hi, lo = (a, b) if ca >= cb else (b, a)
                alternating = [hi if i % 2 == 0 else lo for i in range(n)]
                mx = max(discordance_scores(coded(
                    set(itertools.permutations([a] * ca + [b] * cb)))))
                (alt,) = discordance_scores(coded([alternating]))
                alt_ok &= abs(alt - mx) <= 1e-12
    acceptance(8, "discordance contrast/bounds/alternating max",
               contrast_ok and bounds_ok and alt_ok,
               f"block {block}, interleaved {inter}")


# ----------------------------------------------------- criteria 9 and 10

MIX_CALM = ((0.55, 0.25, 0.20), (0.20, 0.65, 0.15), (0.25, 0.45, 0.30))
MIX_HOT = ((0.30, 0.25, 0.45), (0.15, 0.45, 0.40), (0.10, 0.25, 0.65))
TS_CALM = (0.30, 0.50, 0.20)
TS_HOT = (0.05, 0.25, 0.70)
USER_POOL = 900
THREADS_PER_DAY = 20.0
POSTS_PER_DAY = 700.0
USER_ZIPF = 1.5
THREAD_LIFETIME = 3
CALM_ZIPF = 0.2
HOT_ZIPF = 1.6
HOT_MONTHS = {8, 9}        # Aug + Sep 2020 = windows 7, 8 (0-based)
N_SEEDS = 100
WINDOWS = WindowSpec.from_tokens("2020-01-01", "2021-01-01", "1m", "1m")


def _regime_script(seed):
    def segment(month_index, days):
        hot = month_index in HOT_MONTHS
        return Segment(
            days, USER_POOL, THREADS_PER_DAY, POSTS_PER_DAY,
            HOT_ZIPF if hot else CALM_ZIPF, USER_ZIPF,
            TS_HOT if hot else TS_CALM, MIX_HOT if hot else MIX_CALM,
        )

    # December 2019 burn-in so January is not thread-starved
    segments = [segment(0, 31)] + [
        segment(m, calendar.monthrange(2020, m)[1]) for m in range(1, 13)
    ]
    return RegimeScript(tuple(segments), seed, date(2019, 12, 1),
                        thread_lifetime_days=THREAD_LIFETIME)


@pytest.fixture(scope="module")
def regime_runs():
    t0 = time.time()
    runs = []
    for seed in range(N_SEEDS):
        posts = generate_forum(_regime_script(seed))
        ws = make_windows(posts, WINDOWS)
        mats = [count_orbits(project_window(w, True)[0]) for w in ws]
        labels = [w.label_str for w in ws]
        dn = netemd_matrix(mats, labels=labels)
        dp = pca_netemd_matrix(mats, explained_variance=0.90, labels=labels)
        net_flags = {
            (f.from_label, f.to_label, f.jump) for f in flag_changes(dn)
        }
        pca_flags = {
            (f.from_label, f.to_label, f.jump) for f in flag_changes(dp)
        }
        sflags = flag_sentiment_changes(
            zscore_series([sentiment_metrics(w) for w in ws]))
        runs.append({
            "net_flags": net_flags,
            "pca_flags": pca_flags,
            "sentiment_windows": {f["window"] for f in sflags},
            # boundary distance and pre-shift consecutive median per orbit
            "orbit": {
                o: (
                    float(dn.per_orbit[o, 6, 7]),
                    float(np.median([dn.per_orbit[o, k, k + 1]
                                     for k in range(6)])),
                )
                for o in (3, 14)
            },
        })
    return {"runs": runs, "elapsed": time.time() - t0}


def test_criterion_9_regime_detection(acceptance, regime_runs):
    runs = regime_runs["runs"]
    boundary = ("2020-07-01", "2020-08-01", 1)
    a = sum(boundary in r["net_flags"] for r in runs)
    b = sum("2020-08-01" in r["sentiment_windows"] for r in runs)
    margins = {}
    for o in (3, 14):
        at_shift = np.mean([r["orbit"][o][0] for r in runs])
        pre_med = np.mean([r["orbit"][o][1] for r in runs])
        margins[o] = at_shift - pre_med
    c = all(m > 0 for m in margins.values())
    elapsed = regime_runs["elapsed"]
    ok = a >= 95 and b >= 90 and c and elapsed < 600
    acceptance(9, "synthetic regime detection", ok,
               f"a {a}/100, b {b}/100, orbit margins "
               f"o3 {margins[3]:+.4f} o14 {margins[14]:+.4f}, "
               f"{elapsed:.0f}s")


def test_criterion_10_pca_overlap(acceptance, regime_runs):
    runs = regime_runs["runs"]
    shared = sum(len(r["pca_flags"] & r["net_flags"]) for r in runs)
    total = sum(len(r["pca_flags"]) for r in runs)
    overlap = shared / total
    acceptance(10, "pca-netemd flag overlap", overlap >= 0.90,
               f"{shared}/{total} = {overlap:.3f}")


# --------------------------------------------------------------- criterion 11

def test_criterion_11_determinism(acceptance, tmp_path):
    seg = Segment(91, 60, 4.0, 70.0, 0.8, 0.0, TS_CALM, MIX_CALM)
    posts = generate_forum(RegimeScript((seg,), 17, date(2020, 1, 1)))
    src = tmp_path / "posts.csv"
    with open(src, "w", newline="") as fh:
        write_posts_csv(posts, fh)

    def run(outdir, workers=None):
        manifest = run_pipeline(PipelineConfig(
            input_path=str(src), output_dir=str(outdir),
            window_start="2020-01-01", window_end="2020-04-01",
            workers=workers,
        ))
        # manifest.json embeds the output directory, so compare the
        # artifact bytes and the artifact list instead
        return {
            name: (Path(outdir) / name).read_bytes()
            for name in manifest["artifacts"]
        }

    first = run(tmp_path / "a", workers=1)
    second = run(tmp_path / "b", workers=1)
    third = run(tmp_path / "c", workers=4)
    identical = first == second == third
    acceptance(11, "byte-identical deterministic pipeline", identical,
               f"{len(first)} artifacts compared across reruns and "
               "worker counts")
