"""Integration tests for the command-line interface."""

import pytest

from repro.__main__ import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig2a" in out
    assert "Table 2" in out
    assert out.count("\n") == 23


def test_run_single_experiment(capsys):
    assert main(["run", "table2", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "28-PT survey" in out or "Comparison of 28" in out
    assert "paper vs measured" in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "fig99"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err


def test_run_respects_seed_and_scale(capsys):
    assert main(["run", "fig10a", "--seed", "3", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "2022-09" in out


def test_run_multi_seed_fanout(capsys):
    assert main(["run", "table2", "--scale", "tiny",
                 "--seeds", "1", "2", "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "-- seed 1 --" in out
    assert "-- seed 2 --" in out
    assert "mean over seeds [1, 2]" in out


def test_run_rejects_bad_workers(capsys):
    assert main(["run", "table2", "--workers", "0"]) == 2
    assert "--workers" in capsys.readouterr().err


def test_run_rejects_analysis_engine_flag(capsys):
    """There is one analysis engine; the old selector flag is gone."""
    with pytest.raises(SystemExit) as exc:
        main(["run", "table2", "--scale", "tiny",
              "--analysis-engine", "python"])
    assert exc.value.code == 2
    assert "--analysis-engine" in capsys.readouterr().err


def test_compare_command(capsys):
    assert main(["compare", "tor", "obfs4", "--sites", "4",
                 "--repetitions", "1"]) == 0
    out = capsys.readouterr().out
    assert "tor" in out and "obfs4" in out
    assert "s" in out


def test_compare_rejects_unknown_transport(capsys):
    assert main(["compare", "tor", "nosuchpt"]) == 2
    err = capsys.readouterr().err
    assert "unknown transport(s): nosuchpt" in err
    assert "known: " in err and "obfs4" in err


def test_compare_rejects_nonpositive_sites(capsys):
    for sites in ("0", "-3"):
        assert main(["compare", "tor", "--sites", sites]) == 2
        assert "--sites must be >= 1" in capsys.readouterr().err


def test_compare_rejects_nonpositive_repetitions(capsys):
    assert main(["compare", "tor", "--repetitions", "0"]) == 2
    assert "--repetitions must be >= 1" in capsys.readouterr().err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_out_dir_exports_sharded_store(tmp_path, capsys):
    assert main(["run", "fig2a", "--scale", "tiny",
                 "--out-dir", str(tmp_path / "exports"),
                 "--chunk-size", "8"]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "shard(s)" in out

    from repro.measure.store import ShardedResultStore
    store = ShardedResultStore.open(tmp_path / "exports" / "fig2a")
    assert len(store) > 0
    assert len(store.shard_paths) >= 2      # chunk size 8 forces shards
    assert store.pts()                      # reductions work off disk


def test_run_out_dir_notes_experiments_without_records(tmp_path, capsys):
    assert main(["run", "fig10a", "--scale", "tiny",
                 "--out-dir", str(tmp_path / "exports")]) == 0
    assert "no result records to export" in capsys.readouterr().out


def test_run_spool_requires_out_dir_and_seeds(capsys):
    assert main(["run", "table2", "--seeds", "1", "--spool"]) == 2
    assert "--out-dir" in capsys.readouterr().err
    assert main(["run", "table2", "--spool",
                 "--out-dir", "/tmp/nowhere"]) == 2
    assert "--seeds" in capsys.readouterr().err


def test_run_spool_fanout(tmp_path, capsys):
    assert main(["run", "fig10a", "--scale", "tiny",
                 "--seeds", "1", "2", "--workers", "1",
                 "--out-dir", str(tmp_path / "exports"), "--spool"]) == 0
    out = capsys.readouterr().out
    assert "-- seed 1 --" in out and "-- seed 2 --" in out
    assert "spooled worker shards" in out
    assert (tmp_path / "exports" / "fig10a-spool").is_dir()


def test_run_rejects_bad_chunk_size(capsys):
    assert main(["run", "table2", "--chunk-size", "0"]) == 2
    assert "--chunk-size" in capsys.readouterr().err


def test_run_out_dir_with_seeds_exports_per_seed(tmp_path, capsys):
    """--out-dir must never be a silent no-op in the --seeds branch."""
    assert main(["run", "fig2a", "--scale", "tiny", "--seeds", "1", "2",
                 "--out-dir", str(tmp_path / "exports")]) == 0
    out = capsys.readouterr().out
    assert out.count("wrote") == 2
    assert (tmp_path / "exports" / "fig2a-seed1").is_dir()
    assert (tmp_path / "exports" / "fig2a-seed2").is_dir()


def test_run_out_dir_reuse_is_a_clean_error(tmp_path, capsys):
    """Re-pointing --out-dir at existing shards exits 2, no traceback."""
    out_dir = str(tmp_path / "exports")
    assert main(["run", "fig2a", "--scale", "tiny",
                 "--out-dir", out_dir]) == 0
    capsys.readouterr()
    assert main(["run", "fig2a", "--scale", "tiny",
                 "--out-dir", out_dir]) == 2
    err = capsys.readouterr().err
    assert "already contains shards" in err


def test_run_out_dir_duplicate_seeds_rejected_up_front(tmp_path, capsys):
    """Two identical seeds would export to one directory: pre-flight
    failure, before any simulation runs."""
    assert main(["run", "fig2a", "--scale", "tiny", "--seeds", "1", "1",
                 "--out-dir", str(tmp_path / "exports")]) == 2
    err = capsys.readouterr().err
    assert "duplicate" in err
    assert not (tmp_path / "exports").exists()   # nothing ran


def test_run_resume_requires_spool(capsys):
    assert main(["run", "table2", "--seeds", "1", "--resume"]) == 2
    assert "--spool" in capsys.readouterr().err


def test_run_rejects_bad_retries(capsys):
    assert main(["run", "table2", "--retries", "-1"]) == 2
    assert "--retries" in capsys.readouterr().err


def test_run_rejects_bad_unit_timeout(capsys):
    assert main(["run", "table2", "--unit-timeout", "0"]) == 2
    assert "--unit-timeout" in capsys.readouterr().err


def test_run_spool_reuse_without_resume_points_at_resume(tmp_path, capsys):
    args = ["run", "fig10a", "--scale", "tiny", "--seeds", "1",
            "--out-dir", str(tmp_path / "exports"), "--spool"]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args) == 2
    assert "resume" in capsys.readouterr().err


def test_run_spool_resume_is_idempotent(tmp_path, capsys):
    """Resuming a fully completed campaign re-runs nothing, exits 0,
    and reports the same mean-over-seeds block."""
    args = ["run", "fig10a", "--scale", "tiny", "--seeds", "1", "2",
            "--out-dir", str(tmp_path / "exports"), "--spool"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args + ["--resume"]) == 0
    second = capsys.readouterr().out
    assert "mean over seeds [1, 2]" in second
    assert second == first
