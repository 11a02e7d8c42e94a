import json
from pathlib import Path

import pytest

from forumnet.cli import main

SCRIPT = {
    "seed": 9,
    "start": "2020-01-01",
    "segments": [{
        "duration_days": 91, "user_pool": 50, "threads_per_day": 4.0,
        "posts_per_day": 60.0, "thread_zipf": 0.8, "user_zipf": 0.0,
        "thread_sentiment": [0.3, 0.5, 0.2],
        "mixing": [[0.6, 0.3, 0.1], [0.2, 0.6, 0.2], [0.1, 0.3, 0.6]],
    }],
}


@pytest.fixture(scope="module")
def posts_csv(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    script = d / "script.json"
    script.write_text(json.dumps(SCRIPT))
    out = d / "posts.csv"
    assert main(["synth", "--script", str(script), "--out", str(out)]) == 0
    return str(out)


def test_synth_and_ingest_roundtrip(posts_csv, capsys):
    assert main(["ingest", "--input", posts_csv]) == 0
    echoed = capsys.readouterr().out
    assert echoed == Path(posts_csv).read_text()


def test_windows_command(posts_csv, capsys):
    rc = main(["windows", "--input", posts_csv,
               "--start", "2020-01-01", "--end", "2020-04-01"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "window,posts,threads,users"
    assert len(lines) == 4


def test_project_orbits_compare_detect_report(posts_csv, tmp_path, capsys):
    nets = tmp_path / "nets"
    rc = main(["project", "--input", posts_csv, "--start", "2020-01-01",
               "--end", "2020-04-01", "--outdir", str(nets)])
    assert rc == 0
    edge_files = sorted(nets.glob("network_*.edges"))
    assert len(edge_files) == 3

    orbit_files = []
    for ef in edge_files:
        of = tmp_path / (ef.stem + ".csv")
        assert main(["orbits", "--edges", str(ef), "--out", str(of)]) == 0
        orbit_files.append(str(of))

    dist = tmp_path / "distances.csv"
    assert main(["compare", "--orbits", *orbit_files, "--labels",
                 "jan", "feb", "mar", "--out", str(dist)]) == 0
    assert dist.read_text().startswith(",jan,feb,mar")

    flags = tmp_path / "flags.json"
    assert main(["detect", "--distances", str(dist),
                 "--out", str(flags)]) == 0
    json.loads(flags.read_text())

    assert main(["report", "--distances", str(dist)]) == 0
    assert capsys.readouterr().out.startswith('<?xml version="1.0"')


def test_compare_pca_mode(posts_csv, tmp_path, capsys):
    nets = tmp_path / "nets"
    main(["project", "--input", posts_csv, "--start", "2020-01-01",
          "--end", "2020-04-01", "--outdir", str(nets)])
    ofiles = []
    for ef in sorted(nets.glob("network_*.edges")):
        of = tmp_path / (ef.stem + ".csv")
        main(["orbits", "--edges", str(ef), "--out", str(of)])
        ofiles.append(str(of))
    assert main(["compare", "--orbits", *ofiles, "--mode", "pca-netemd"]) == 0
    assert capsys.readouterr().out.startswith(",network_")


def test_sentiment_and_discordance(posts_csv, tmp_path, capsys):
    sdir = tmp_path / "sent"
    rc = main(["sentiment", "--input", posts_csv, "--start", "2020-01-01",
               "--end", "2020-04-01", "--outdir", str(sdir)])
    assert rc == 0
    assert (sdir / "sentiment_zscores.csv").exists()
    rc = main(["discordance", "--input", posts_csv, "--start", "2020-01-01",
               "--end", "2020-04-01"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("label,avg_discordance")


def test_infer_command(posts_csv, tmp_path):
    idir = tmp_path / "infer"
    rc = main(["infer", "--input", posts_csv, "--start", "2020-01-01",
               "--end", "2020-04-01", "--outdir", str(idir)])
    assert rc == 0
    assert (idir / "mixing_matrix.csv").exists()
    assert (idir / "inferred.csv").exists()


def test_infer_runs_no_structural_stage(posts_csv, tmp_path):
    # two windows are too few for the network comparison, not for inference
    idir = tmp_path / "infer"
    rc = main(["infer", "--input", posts_csv, "--start", "2020-01-01",
               "--end", "2020-03-01", "--outdir", str(idir)])
    assert rc == 0
    assert sorted(p.name for p in idir.iterdir()) == [
        "inferred.csv", "mixing_matrix.csv"]
    assert len((idir / "inferred.csv").read_text().splitlines()) == 3


def test_discordance_skips_threads_shorter_than_min_window(tmp_path, capsys):
    posts = tmp_path / "posts.csv"
    posts.write_text(
        "post_id,thread_id,user_id,timestamp,is_original,sentiment\n"
        "p1,t1,a,2020-01-05T00:00:00,true,positive\n"
        "p2,t1,b,2020-01-06T00:00:00,false,negative\n")
    args = ["discordance", "--input", str(posts), "--start", "2020-01-01",
            "--end", "2020-02-01"]
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines()[1] == "2020-01-01,1,1"
    assert main(args + ["--min-window", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "2020-01-01,,0"


def test_run_command(posts_csv, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "input_path": posts_csv, "output_dir": str(tmp_path / "unused"),
        "window_start": "2020-01-01", "window_end": "2020-04-01",
    }))
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg), "--out-dir", str(out)])
    assert rc == 0
    assert (out / "manifest.json").exists()


def test_run_rejects_bad_discordance_windows(posts_csv, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "input_path": posts_csv, "output_dir": str(out),
        "window_start": "2020-01-01", "window_end": "2020-04-01",
        "discordance_min": 1,
    }))
    assert main(["run", "--config", str(cfg)]) == 1
    assert "discordance window sizes" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    for bad in ({"heatmap_label_every": 0}, {"jumps": [1.5]}, {"jumps": 2},
                {"jumps": [1, 1]}, {"window_jump": "0m"},
                {"discordance_min": "2"}, {"sentiment": "yes"}):
        cfg.write_text(json.dumps({
            "input_path": posts_csv, "output_dir": str(out),
            "window_start": "2020-01-01", "window_end": "2020-04-01", **bad,
        }))
        assert main(["run", "--config", str(cfg)]) == 1, bad
        assert "error:" in capsys.readouterr().err
        assert list(out.iterdir()) == [], bad


def test_validation_error_exits_one(posts_csv, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["synth", "--script", str(bad)]) == 1
    assert main(["windows", "--input", posts_csv, "--start", "2020-04-01",
                 "--end", "2020-01-01"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    dup = tmp_path / "dup.csv"
    lines = Path(posts_csv).read_text().splitlines(keepends=True)
    dup.write_text("".join(lines + lines[1:2]))
    assert main(["ingest", "--input", str(dup)]) == 1
    assert "duplicate post_id" in capsys.readouterr().err
    scalar = tmp_path / "scalar.jsonl"
    scalar.write_text("5\n")
    assert main(["ingest", "--input", str(scalar), "--format", "jsonl"]) == 1
    assert "line 1: expected a JSON object" in capsys.readouterr().err
    blank = tmp_path / "blank.csv"  # errors name physical lines
    blank.write_text("".join(lines[:2]) + "\n\nx1,x1,u,2020-01-02 10:00:00,maybe,\n")
    assert main(["ingest", "--input", str(blank)]) == 1
    assert "error: line 5: invalid boolean 'maybe'" in capsys.readouterr().err
    huge = tmp_path / "huge.csv"  # a csv reader error is an ingest error
    huge.write_text("".join(lines[:2]) + 'x1,x1,u,2020-01-02 10:00:00,true,"'
                    + "x" * 200_000 + '"\n')
    assert main(["ingest", "--input", str(huge)]) == 1
    assert "error: line 3: field larger than field limit" in capsys.readouterr().err
    orphan = tmp_path / "orphan.csv"  # a reply whose thread has no original
    orphan.write_text("".join(lines) + "x1,x1,u,2020-01-02 10:00:00,false,\n")
    assert main(["ingest", "--input", str(orphan)]) == 1
    assert ("error: thread x1: expected exactly 1 original post, found 0"
            in capsys.readouterr().err)
    dist = tmp_path / "dist.csv"
    dist.write_text(",a,b,c\na,0,1,2\nb,1,0,4\nc,2,4,0\n")
    for jumps in (["0"], ["1", "-1"]):
        assert main(["detect", "--distances", str(dist), "--jumps", *jumps]) == 1
        assert "error: jumps must be positive integers" in capsys.readouterr().err
    assert main(["detect", "--distances", str(dist), "--jumps", "1", "1"]) == 1
    assert "error: jumps must be distinct, got [1, 1]" in capsys.readouterr().err
    for span, jump in (("1m", "0m"), ("0m", "halfmonth")):  # no zero-month step
        assert main(["windows", "--input", posts_csv, "--start", "2020-01-01",
                     "--end", "2020-03-01", "--span", span, "--jump", jump]) == 1
        assert "error: invalid duration '0m'" in capsys.readouterr().err


def test_compare_reports_missing_orbit(tmp_path, capsys):
    edges = tmp_path / "tri.edges"
    edges.write_text("0 1\n1 2\n0 2\n")
    orbit_files = []
    for name in ("small", "big"):
        of = tmp_path / f"{name}.csv"
        size = ["--max-size", "2"] if name == "small" else []
        assert main(["orbits", "--edges", str(edges), "--out", str(of), *size]) == 0
        orbit_files.append(str(of))
    assert main(["compare", "--orbits", *orbit_files]) == 1
    assert "error: small: orbit 1 not present" in capsys.readouterr().err
    assert main(["compare", "--orbits", *orbit_files, "--max-size", "2"]) == 0


def test_runtime_error_exits_two(tmp_path, capsys):
    assert main(["ingest", "--input", str(tmp_path / "nope.csv")]) == 2
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "input_path": str(tmp_path / "nope.csv"),
        "output_dir": str(tmp_path / "o"),
        "window_start": "2020-01-01", "window_end": "2020-04-01",
    }))
    assert main(["run", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err
