import json
from datetime import date, datetime
from pathlib import Path

import pytest

from forumnet.pipeline import (PipelineConfig, PipelineError,
                               discordance_table, run_pipeline)
from forumnet.sentiment import DiscordanceParams
from forumnet.synth import RegimeScript, Segment, generate_forum
from forumnet.ingest import PostRecord, WindowSpec, make_windows, write_posts_csv

MIX = ((0.6, 0.3, 0.1), (0.2, 0.6, 0.2), (0.1, 0.3, 0.6))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    seg = Segment(
        duration_days=91, user_pool=60, threads_per_day=4.0,
        posts_per_day=70.0, thread_zipf=0.8, user_zipf=0.0,
        thread_sentiment=(0.3, 0.5, 0.2), mixing=MIX,
    )
    posts = generate_forum(RegimeScript((seg,), seed=11, start=date(2020, 1, 1)))
    path = tmp_path_factory.mktemp("corpus") / "posts.csv"
    with open(path, "w", newline="") as fh:
        write_posts_csv(posts, fh)
    return str(path)


def config(corpus, outdir, **kw):
    base = dict(
        input_path=corpus, output_dir=str(outdir),
        window_start="2020-01-01", window_end="2020-04-01",
    )
    base.update(kw)
    return PipelineConfig(**base)


def read_artifacts(outdir, manifest):
    return {
        name: (Path(outdir) / name).read_bytes()
        for name in manifest["artifacts"]
    }


def test_run_produces_expected_artifacts(corpus, tmp_path):
    out = tmp_path / "run"
    manifest = run_pipeline(config(corpus, out))
    names = manifest["artifacts"]
    for required in ("windows.csv", "distances.csv", "heatmap.svg",
                     "change_flags.json", "sentiment_summaries.csv",
                     "sentiment_zscores.csv", "sentiment_flags.json",
                     "discordance.csv", "mixing_matrix.csv", "inferred.csv"):
        assert required in names
    assert "distances_orbit14.csv" in names
    assert manifest["windows"] == ["2020-01-01", "2020-02-01", "2020-03-01"]
    assert manifest["skipped_windows"] == []
    on_disk = json.loads((out / "manifest.json").read_text())
    assert on_disk["artifacts"] == names


def test_rerun_is_byte_identical(corpus, tmp_path):
    m1 = run_pipeline(config(corpus, tmp_path / "a"))
    m2 = run_pipeline(config(corpus, tmp_path / "b"))
    assert read_artifacts(tmp_path / "a", m1) == read_artifacts(tmp_path / "b", m2)


def test_worker_count_does_not_change_output(corpus, tmp_path):
    m1 = run_pipeline(config(corpus, tmp_path / "w1", workers=1))
    m2 = run_pipeline(config(corpus, tmp_path / "w2", workers=3))
    assert (tmp_path / "w1" / "distances.csv").read_bytes() == \
        (tmp_path / "w2" / "distances.csv").read_bytes()
    assert m1["artifacts"] == m2["artifacts"]


def test_pca_mode(corpus, tmp_path):
    manifest = run_pipeline(config(corpus, tmp_path / "pca",
                                   comparison="pca-netemd", sentiment=False))
    assert "distances.csv" in manifest["artifacts"]
    # per-orbit breakdowns only exist for the plain comparison
    assert not any(n.startswith("distances_orbit") for n in manifest["artifacts"])
    assert "sentiment_flags.json" not in manifest["artifacts"]


def test_unusable_window_is_skipped(tmp_path):
    rows = ["post_id,thread_id,user_id,timestamp,is_original,sentiment"]
    pid = 0
    for month in (1, 2, 3):
        for t in range(3):
            for user in ("a", "b", "c"):
                rows.append(f"p{pid},m{month}t{t},{user},"
                            f"2020-{month:02d}-05T0{t}:00:00,"
                            f"{'true' if user == 'a' else 'false'},neutral")
                pid += 1
    # April: a single lonely post, so the projection has no edges
    rows.append(f"p{pid},solo,a,2020-04-05T00:00:00,true,neutral")
    path = tmp_path / "posts.csv"
    path.write_text("\n".join(rows) + "\n")
    manifest = run_pipeline(PipelineConfig(
        input_path=str(path), output_dir=str(tmp_path / "out"),
        window_start="2020-01-01", window_end="2020-05-01",
    ))
    assert [s["window"] for s in manifest["skipped_windows"]] == ["2020-04-01"]
    assert len(manifest["windows"]) == 4


def test_two_post_thread_with_larger_min_window(tmp_path):
    sents = ("positive", "neutral", "negative")
    rows = ["post_id,thread_id,user_id,timestamp,is_original,sentiment"]
    for month in (1, 2, 3):
        for t in range(3):
            for k, user in enumerate("abc"):
                rows.append(f"m{month}t{t}{user},m{month}t{t},{user},"
                            f"2020-{month:02d}-05T0{t}:0{k}:00,"
                            f"{'true' if k == 0 else 'false'},{sents[(t + k) % 3]}")
    # a thread with two labeled posts, shorter than a 3-post window
    rows += ["short1,short,a,2020-01-20T00:00:00,true,positive",
             "short2,short,b,2020-01-21T00:00:00,false,negative"]
    path = tmp_path / "posts.csv"
    path.write_text("\n".join(rows) + "\n")
    manifest = run_pipeline(PipelineConfig(
        input_path=str(path), output_dir=str(tmp_path / "out"),
        window_start="2020-01-01", window_end="2020-04-01", discordance_min=3,
    ))
    assert {"mixing_matrix.csv", "inferred.csv"} <= set(manifest["artifacts"])
    lines = (tmp_path / "out" / "discordance.csv").read_text().splitlines()
    assert [line.split(",")[2] for line in lines[1:]] == ["3", "3", "3"]


def test_discordance_threads_are_those_averaged():
    def post(day, pid, tid, original, sentiment):
        return PostRecord(datetime(2020, 1, day), pid, tid, "u" + pid,
                          original, sentiment)

    posts = [
        # labeled original, unlabeled reply: one labeled post, not counted
        post(1, "a1", "a", True, "positive"), post(2, "a2", "a", False, None),
        # unlabeled originals, two labeled replies: counted and averaged
        post(3, "b1", "b", True, None), post(4, "b2", "b", False, "positive"),
        post(5, "b3", "b", False, "negative"),
        post(6, "c1", "c", True, None), post(7, "c2", "c", False, "neutral"),
        post(8, "c3", "c", False, "neutral"),
    ]
    windows = make_windows(posts, WindowSpec.from_tokens(
        "2020-01-01", "2020-02-01", "1m", "1m"))
    assert discordance_table(windows, DiscordanceParams()) == (
        "label,avg_discordance,n_threads\n2020-01-01,0.5,2\n")


def test_ingest_errors(tmp_path):
    cfg = PipelineConfig(
        input_path=str(tmp_path / "missing.csv"), output_dir=str(tmp_path),
        window_start="2020-01-01", window_end="2020-04-01",
    )
    with pytest.raises(PipelineError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "ingest"


def test_too_few_windows(corpus, tmp_path):
    cfg = config(corpus, tmp_path, window_end="2020-02-01")
    with pytest.raises(PipelineError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "windows"


def test_config_validation(corpus, tmp_path):
    with pytest.raises(ValueError):
        config(corpus, tmp_path, input_format="tsv")
    with pytest.raises(ValueError):
        config(corpus, tmp_path, projection="inner")
    with pytest.raises(ValueError):
        config(corpus, tmp_path, comparison="umap")
    with pytest.raises(ValueError):
        config(corpus, tmp_path, explained_variance=0.0)
    with pytest.raises(ValueError):
        config(corpus, tmp_path, orbit_max_size=5)
    with pytest.raises(ValueError):
        config(corpus, tmp_path, jumps=())
    with pytest.raises(ValueError):  # jump wider than span leaves gaps
        config(corpus, tmp_path, window_span="1m", window_jump="2m")


def test_config_rejects_bad_discordance_windows(corpus, tmp_path):
    for lo, hi in ((1, 5), (0, 2), (4, 3)):
        with pytest.raises(ValueError, match="discordance window sizes"):
            config(corpus, tmp_path, discordance_min=lo, discordance_max=hi)
    # checked even when the sentiment stage is off
    with pytest.raises(ValueError, match="discordance window sizes"):
        config(corpus, tmp_path, sentiment=False, discordance_min=1)
    # every field is checked before a stage runs: no integer-valued strings,
    # floats or bools where integers are expected
    bad = [
        dict(heatmap_label_every=0), dict(heatmap_label_every=True),
        dict(jumps=(1.5,)), dict(jumps=2), dict(jumps=(True,)),
        dict(jumps=(1, 1)), dict(jumps=[2, 1, 2]), dict(window_jump="0m"),
        dict(window_span="0m", window_jump="halfmonth"),
        dict(discordance_min="2"), dict(discordance_max=5.0),
        dict(orbit_max_size=4.0), dict(orbit_max_size=True),
        dict(sentiment="yes"), dict(sentiment=1), dict(workers="4"),
        dict(explained_variance="0.9"), dict(window_start=2020),
        dict(output_dir=None),
    ]
    for kw in bad:
        with pytest.raises(ValueError):
            config(corpus, tmp_path, **kw)


def test_config_from_json(corpus, tmp_path):
    text = json.dumps({
        "input_path": corpus, "output_dir": str(tmp_path),
        "window_start": "2020-01-01", "window_end": "2020-04-01",
        "jumps": [1],
    })
    cfg = PipelineConfig.from_json(text, output_dir=str(tmp_path / "o"))
    assert cfg.jumps == (1,)
    assert cfg.output_dir == str(tmp_path / "o")
    with pytest.raises(ValueError):
        PipelineConfig.from_json('{"bogus": 1}')
    with pytest.raises(ValueError):
        PipelineConfig.from_json("[]")
    with pytest.raises(ValueError):
        PipelineConfig.from_json("{bad")
