"""Tests for the command-line interface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.telemetry.store import load_dataset

SCALE = ["--scale", "0.002", "--seed", "3"]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_export_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["export"])

    def test_defaults(self):
        args = build_parser().parse_args(["rules"])
        assert args.seed == 7
        assert args.train_month == 0
        assert args.tau == 0.001

    @pytest.mark.parametrize("argv, expected", [
        (["bench", "--bench", "dataset_io", "--bench", "serve"],
         ["dataset_io", "serve"]),
        (["report", "--experiment", "table1", "fig5", "--experiment", "fig6"],
         ["table1", "fig5", "fig6"]),
        (["evaluate", "--tau", "0.0", "--tau", "0.01"], [0.0, 0.01]),
    ])
    def test_repeated_list_flag_keeps_every_value(self, argv, expected):
        args = build_parser().parse_args(argv)
        assert getattr(args, argv[1].lstrip("-")) == expected

    def test_bare_evaluate_tau_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["evaluate", "--tau"])
        assert exit_info.value.code == 2
        assert "--tau" in capsys.readouterr().err

    def test_evaluate_tau_defaults_to_none(self):
        assert build_parser().parse_args(["evaluate"]).tau is None

    @pytest.mark.parametrize("argv, flag", [
        (["validate", "--p-floor", "-1"], "--p-floor"),
        (["validate", "--quantile", "1.5"], "--quantile"),
        (["validate", "--quantile", "-0.5"], "--quantile"),
        (["rules", "--train-month", "-1"], "--train-month"),
        (["rules", "--train-month", "7"], "--train-month"),
        (["evaluate", "--tau", "-1"], "--tau"),
        (["validate", "--no-cache"], "--no-cache"),
    ], ids=["p-floor-negative", "quantile-above-one", "quantile-negative",
            "train-month-negative", "train-month-past-july",
            "tau-negative", "validate-no-cache"])
    def test_out_of_range_value_rejected(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert flag in error


class TestExportImport:
    def test_exports_corpus_and_labels(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(["export", *SCALE, "--out", str(out)]) == 0
        dataset = load_dataset(out)
        assert len(dataset) > 500
        labels = [
            json.loads(line)
            for line in (out / "labels.jsonl").read_text().splitlines()
        ]
        assert len(labels) == len(dataset.files)
        assert {entry["label"] for entry in labels} >= {"unknown", "malicious"}

    def test_round_trip_verified(self, tmp_path, capsys):
        out = tmp_path / "store"
        assert main(["export", *SCALE, "--out", str(out), "--compress"]) == 0
        export_output = capsys.readouterr().out
        assert "content digest:" in export_output
        assert (out / "manifest.json").exists()
        assert main(["import", str(out)]) == 0
        import_output = capsys.readouterr().out
        assert "[OK vs manifest]" in import_output

    def test_import_rejects_corruption(self, tmp_path, capsys):
        out = tmp_path / "store"
        assert main(["export", *SCALE, "--out", str(out)]) == 0
        capsys.readouterr()
        events = out / "events-00000.jsonl"
        lines = events.read_text(encoding="utf-8").splitlines()
        events.write_text("\n".join(lines[:-5]) + "\n", encoding="utf-8")
        assert main(["import", str(out)]) == 1
        assert "import failed" in capsys.readouterr().err

    def test_import_lenient_quarantines(self, tmp_path, capsys):
        out = tmp_path / "store"
        assert main(["export", *SCALE, "--out", str(out)]) == 0
        capsys.readouterr()
        events = out / "events-00000.jsonl"
        lines = events.read_text(encoding="utf-8").splitlines()
        events.write_text("\n".join(lines[:-5]) + "\n", encoding="utf-8")
        assert main(["import", str(out), "--lenient"]) == 0
        output = capsys.readouterr().out
        assert "quarantined rows: 5" in output
        assert "[MISMATCH vs manifest]" in output

    def test_import_missing_store_fails(self, tmp_path, capsys):
        assert main(["import", str(tmp_path / "nowhere")]) == 1
        assert "import failed" in capsys.readouterr().err


class TestReport:
    def test_single_experiment(self, capsys):
        assert main(["report", *SCALE, "--experiment", "table2"]) == 0
        output = capsys.readouterr().out
        assert "Table II" in output

    def test_alexa_experiment(self, capsys):
        assert main(["report", *SCALE, "--experiment", "fig6"]) == 0
        assert "Alexa" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["report", *SCALE, "--experiment", "table99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_all_rejects_experiment_selection(self, capsys):
        assert main(["report", *SCALE, "--all",
                     "--experiment", "table2"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_all_builds_frame_exactly_once(self, capsys):
        from repro.analysis.frame import clear_frame_cache
        from repro.obs import metrics as obs_metrics

        clear_frame_cache()
        builds = obs_metrics.counter("analysis.frame_build")
        before = builds.value
        assert main(["report", *SCALE, "--all"]) == 0
        output = capsys.readouterr().out
        # Every experiment rendered, off one shared frame build.
        assert "Table I " in output or "Table I:" in output
        assert "unknown files" in output.lower()
        assert builds.value == before + 1

    def test_all_prints_paper_order(self, capsys):
        assert main(["report", *SCALE, "--all"]) == 0
        output = capsys.readouterr().out
        for earlier, later in (
            ("Table I:", "Table II:"),
            ("Table II:", "Table X:"),
            ("Table XIV:", "Figure 1:"),
            ("Figure 6:", "Section II-C:"),
        ):
            assert output.index(earlier) < output.index(later)

    def test_type_resolution_shares_match_the_attribute(self, capsys):
        from repro import WorldConfig, build_session
        from repro.reporting import fmt_pct

        assert main(
            ["report", *SCALE, "--experiment", "type_resolution"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Section II-C: Type resolution"
        printed = {
            line.split(":")[0]: line.split()[1] for line in lines[1:5]
        }
        fractions = build_session(
            WorldConfig(seed=3, scale=0.002)
        ).labeled.type_resolution_fractions
        assert printed == {
            name: fmt_pct(100 * share) for name, share in fractions.items()
        }


class TestRules:
    def test_prints_rules(self, capsys):
        assert main(["rules", *SCALE, "--train-month", "0"]) == 0
        output = capsys.readouterr().out
        assert "IF (" in output
        assert "-> file is" in output

    def test_min_coverage_reduces_rules(self, capsys):
        main(["rules", *SCALE, "--min-coverage", "1"])
        loose = capsys.readouterr().out.count("IF (")
        main(["rules", *SCALE, "--min-coverage", "5"])
        strict = capsys.readouterr().out.count("IF (")
        assert strict <= loose


class TestAvtype:
    def test_jsonl_round_trip(self, tmp_path, capsys):
        source = tmp_path / "detections.jsonl"
        source.write_text(
            '{"sha1": "aa", "detections": '
            '{"Symantec": "Ransom.Cryptolocker"}}\n'
            '{"sha1": "bb", "detections": {"McAfee": "Artemis!00"}}\n'
        )
        assert main(["avtype", str(source)]) == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert json.loads(out_lines[0])["type"] == "ransomware"
        assert json.loads(out_lines[1])["type"] == "undefined"

    def test_malformed_json_rejected(self, tmp_path, capsys):
        source = tmp_path / "bad.jsonl"
        source.write_text("{not json}\n")
        assert main(["avtype", str(source)]) == 2
        assert "malformed" in capsys.readouterr().err


class TestReportCsv:
    def test_csv_export_flag(self, tmp_path, capsys):
        csv_dir = tmp_path / "figures"
        assert main(
            ["report", *SCALE, "--experiment", "table2",
             "--csv-dir", str(csv_dir)]
        ) == 0
        assert (csv_dir / "fig5_infection_timing.csv").exists()


class TestEvaluate:
    def test_writes_tables(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(
            ["evaluate", *SCALE, "--tau", "0.001", "--out", str(out)]
        ) == 0
        output = capsys.readouterr().out
        assert "Table XVI" in output and "Table XVII" in output
        assert (out / "table_xvi.txt").exists()
        assert (out / "table_xvii.txt").exists()


class TestRun:
    def test_trace_and_metrics_exports(self, tmp_path, capsys):
        metrics_out = tmp_path / "obs" / "metrics.json"
        # --no-cache so the span tree shows real stage work even when an
        # earlier test already memoized this session in-process.
        assert main(
            ["run", *SCALE, "--no-cache", "--trace",
             "--metrics-out", str(metrics_out)]
        ) == 0
        output = capsys.readouterr().out
        assert "rules learned:" in output
        assert "month pairs:" in output
        # The printed span tree covers every pipeline stage, including
        # the monthly evaluation fan-out.
        for stage in ("pipeline.build_session", "synth.generate_world",
                      "telemetry.collect", "labeling.label_dataset",
                      "core.learn_rules", "core.full_evaluation",
                      "core.evaluate_month_pair"):
            assert stage in output
        # Metrics snapshot + run manifest written side by side.
        snapshot = json.loads(metrics_out.read_text())
        assert snapshot["counters"]["rules.learned"] >= 1
        manifest = json.loads(
            (tmp_path / "obs" / "metrics.manifest.json").read_text()
        )
        assert manifest["command"] == "run"
        assert manifest["config"]["seed"] == 3
        assert manifest["config_digest"]
        assert manifest["wall_seconds"] > 0
        assert manifest["spans"]
        assert manifest["metrics"]["counters"]

    def test_prometheus_export(self, tmp_path, capsys):
        metrics_out = tmp_path / "metrics.prom"
        assert main(["run", *SCALE, "--metrics-out", str(metrics_out)]) == 0
        text = metrics_out.read_text()
        assert "# TYPE" in text
        assert "labeler_files_labeled_total" in text

    def test_profiled_run_traces_every_shard_and_month_pair(
        self, tmp_path, capsys
    ):
        # One span tree holds both generation shards and all six month
        # pairs, with resource accounting, under the sampling profiler.
        collapsed = tmp_path / "run.collapsed"
        assert main(
            ["profile", "--out", str(collapsed),
             "run", *SCALE, "--no-cache", "--trace", "--resources",
             "--shards", "2"]
        ) == 0
        captured = capsys.readouterr()
        tree = captured.out.split("# trace", 1)[1]
        roots = [line.split()[0] for line in tree.splitlines()
                 if line and not line.startswith(" ")]
        assert roots == ["pipeline.build_session", "core.learn_rules",
                         "core.full_evaluation"]
        shard_lines = [line for line in tree.splitlines()
                       if "synth.shard " in line]
        pair_lines = [line for line in tree.splitlines()
                      if "core.evaluate_month_pair" in line]
        assert [re.search(r"shard=(\d+)", line).group(1)
                for line in shard_lines] == ["0", "1"]
        assert len(pair_lines) == 6
        assert "rss_peak_kb=" in tree
        assert collapsed.read_text().strip()
        assert "# profile (top self-time)" in captured.err

    def test_run_imports_no_process_pool(self):
        # Every stage runs in-process: a whole run never imports the
        # process-pool modules.
        code = (
            "import sys\n"
            "from repro.cli import main\n"
            "status = main(['run', '--scale', '0.002', '--no-cache'])\n"
            "print(status, 'multiprocessing' in sys.modules,\n"
            "      'concurrent.futures' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 False False"


class TestStats:
    def test_prints_span_tree_and_metrics(self, capsys):
        assert main(["stats", *SCALE, "--no-cache"]) == 0
        output = capsys.readouterr().out
        assert "# metrics" in output
        assert "# trace" in output
        assert "pipeline.build_session" in output
        assert "collector.events_reported" in output


class TestServe:
    def test_fault_injected_stream_matches_batch(self, tmp_path, capsys):
        assert main(
            ["serve", *SCALE, "--out", str(tmp_path / "store"),
             "--agents", "3", "--batch-max", "256", "--poison-every", "500"]
        ) == 0
        output = capsys.readouterr().out
        assert "equivalence: OK" in output
        assert "p99_ingest_latency=" in output
        assert int(re.search(r"poisoned=(\d+)", output).group(1)) > 0

    def test_resume_after_crash_matches_batch(self, tmp_path, capsys):
        command = ["serve", *SCALE, "--out", str(tmp_path / "store"),
                   "--inline", "--batch-max", "200"]
        assert main([*command, "--crash-after-parts", "2"]) == 1
        capsys.readouterr()
        assert main([*command, "--resume"]) == 0
        output = capsys.readouterr().out
        assert "equivalence: OK" in output
        assert int(re.search(r"resumed_from=(\d+)", output).group(1)) >= 1

    @pytest.mark.parametrize("damage", ["damaged", "missing"])
    def test_resume_over_bad_part_fails_cleanly(self, tmp_path, capsys,
                                                damage):
        """A checkpointed part that no longer verifies ends the resume
        with one ``serve failed`` line, not a traceback."""
        out = tmp_path / "store"
        command = ["serve", *SCALE, "--out", str(out), "--inline"]
        assert main([*command, "--crash-after-parts", "2"]) == 1
        capsys.readouterr()
        part = out / "events-00000.jsonl"
        if damage == "damaged":
            with part.open("ab") as handle:
                handle.write(b"x")
        else:
            part.unlink()
        assert main([*command, "--resume"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("serve failed: ")
        assert ("events-00000.jsonl:" if damage == "damaged"
                else "events-00000.jsonl: listed part is missing") in err[-1]

    def test_fresh_store_drops_old_export_labels(self, tmp_path, capsys):
        """Labels describe the export's corpus, so a new store over it
        removes them; a new export writes its own."""
        out = tmp_path / "store"
        assert main(["export", *SCALE, "--out", str(out)]) == 0
        labels = (out / "labels.jsonl").read_bytes()
        assert main(["serve", *SCALE, "--inline", "--out", str(out)]) == 0
        assert not (out / "labels.jsonl").exists()
        assert main(["export", *SCALE, "--out", str(out)]) == 0
        assert (out / "labels.jsonl").read_bytes() == labels

    def test_no_cache_rebuilds_the_session(self, tmp_path, capsys):
        from repro.obs import metrics as obs_metrics

        hits = obs_metrics.counter("pipeline.session_cache_hits")
        before = hits.value
        for store in ("first", "second"):
            assert main(
                ["serve", *SCALE, "--no-cache", "--inline",
                 "--out", str(tmp_path / store)]
            ) == 0
        assert "equivalence: OK" in capsys.readouterr().out
        assert hits.value == before
