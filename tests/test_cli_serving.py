"""CLI tests for the serving subcommands and hardened error handling."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestWarmupCommand:
    def test_warmup_compiles_and_reports(self, tmp_path, capsys):
        assert main(["warmup", "--dataset", "mas",
                     "--artifacts", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "mas" in out
        assert "qfg vertices" in out
        assert (tmp_path / "mas" / "LATEST").is_file()

    def test_warmup_explicit_version(self, tmp_path, capsys):
        assert main(["warmup", "--dataset", "mas", "--artifacts",
                     str(tmp_path), "--version", "v1"]) == 0
        assert (tmp_path / "mas" / "v1" / "manifest.json").is_file()
        assert "v1" in capsys.readouterr().out


class TestServeConfig:
    def test_serve_flags_map_onto_a_one_tenant_gateway(self, tmp_path):
        from repro.cli import _serve_gateway_config, build_parser

        args = build_parser().parse_args([
            "serve", "--dataset", "yelp", "--learn-batch", "8",
            "--journal", str(tmp_path / "journal"),
            "--control-plane", str(tmp_path / "cp.db"),
        ])
        config = _serve_gateway_config(args)
        assert list(config.tenants) == ["yelp"]
        assert config.journal_dir == str(tmp_path / "journal")
        assert config.control_plane_path == str(tmp_path / "cp.db")
        engine = config.tenants["yelp"].engine
        assert engine.journal_dir is None
        assert engine.control_plane_path is None
        assert engine.dataset == "yelp"
        assert engine.learn_batch_size == 8
        assert config.tenants["yelp"].max_in_flight == 64


class TestHardenedErrors:
    def test_unknown_dataset_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["warmup", "--dataset", "enron", "--artifacts", "/tmp/x"])
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_artifacts_is_one_line_error(self, tmp_path, capsys):
        code = main(["serve", "--dataset", "mas",
                     "--artifacts", str(tmp_path / "empty"), "--port", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "repro warmup" in err
        assert "Traceback" not in err

    def test_version_without_artifacts_rejected(self, capsys):
        code = main(["serve", "--dataset", "mas", "--version", "abc123",
                     "--port", "0"])
        assert code == 2
        assert "--artifacts" in capsys.readouterr().err

    def test_stale_version_is_one_line_error(self, tmp_path, capsys):
        main(["warmup", "--dataset", "mas", "--artifacts", str(tmp_path)])
        capsys.readouterr()
        code = main(["serve", "--dataset", "mas", "--artifacts",
                     str(tmp_path), "--version", "gone", "--port", "0"])
        assert code == 2
        assert "not found" in capsys.readouterr().err


class TestTraceConfigGating:
    def test_trace_exits_2_when_tracing_disabled(self, tmp_path, capsys):
        config = tmp_path / "engine.json"
        config.write_text('{"dataset": "mas", "tracing": false}')
        code = main(["trace", "--config", str(config),
                     "--nlq", "return the papers after 2000"])
        assert code == 2
        err = capsys.readouterr().err
        assert "tracing is disabled" in err
        assert '"tracing": true' in err  # the fix is named, not implied

    def test_trace_runs_when_config_enables_tracing(self, tmp_path, capsys):
        config = tmp_path / "engine.json"
        config.write_text('{"dataset": "mas", "tracing": true}')
        code = main(["trace", "--config", str(config),
                     "--nlq", "return the papers after 2000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SQL:" in out and "trace " in out


class TestLogsQueryCommand:
    @pytest.fixture()
    def journal(self, tmp_path):
        from repro.api import Engine, EngineConfig

        jdir = tmp_path / "journal"
        with Engine.from_config(
            EngineConfig(dataset="mas", journal_dir=str(jdir))
        ) as engine:
            engine.translate("return the papers after 2000")
            engine.translate("return all the authors")
        return jdir

    def test_query_prints_sql_and_rows(self, journal, capsys):
        code = main(["logs", "query", "--journal", str(journal),
                     "--nlq", "number of requests"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SELECT COUNT(t1.nlq) FROM requests t1" in out
        assert "2" in out

    def test_sql_only_prints_the_bare_statement(self, journal, capsys):
        code = main(["logs", "query", "--journal", str(journal),
                     "--nlq", "number of requests", "--sql-only"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out == "SELECT COUNT(t1.nlq) FROM requests t1"

    def test_unanswerable_question_is_exit_1(self, journal, capsys):
        code = main(["logs", "query", "--journal", str(journal),
                     "--nlq", "what is the airspeed of an unladen swallow"])
        assert code in (1, 2)
        assert capsys.readouterr().err.strip()

    def test_empty_journal_is_exit_2(self, tmp_path, capsys):
        code = main(["logs", "query", "--journal", str(tmp_path / "empty"),
                     "--nlq", "number of requests"])
        assert code == 2
        assert "no records" in capsys.readouterr().err
