"""Integration tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_estimate_defaults(self):
        args = build_parser().parse_args(["estimate"])
        assert args.command == "estimate"
        assert args.model == "megatron-145b"
        assert args.batch == 2048

    def test_experiment_names_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_sweep_eval_mode_defaults_to_compiled(self, monkeypatch,
                                                  capsys):
        # The sweep command has no evaluation-path option: it leaves
        # run_sweep on its "compiled" default.
        from repro.search import resilience

        calls = []
        real_run_sweep = resilience.run_sweep

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real_run_sweep(*args, **kwargs)

        monkeypatch.setattr(resilience, "run_sweep", spy)
        assert not hasattr(build_parser().parse_args(["sweep"]),
                           "eval_mode")
        assert main(["sweep", "--nodes", "2", "--model", "mingpt-85m",
                     "--batch", "256", "--top", "3"]) == 0
        assert len(calls) == 1
        assert "evaluation_path" not in calls[0]


class TestCommands:
    def test_estimate_prints_breakdown(self, capsys):
        exit_code = main(["estimate", "--nodes", "4", "--tp", "8",
                          "--dp", "4", "--batch", "512"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "training time breakdown" in out
        assert "mapping: TP=8x1" in out

    def test_estimate_diagnoses_bad_mappings(self, capsys):
        # TP=64 does not divide Megatron-145B's 96 heads
        exit_code = main(["estimate", "--nodes", "16", "--tp", "64",
                          "--dp", "2", "--batch", "512"])
        assert exit_code == 1
        out = capsys.readouterr().out
        assert "attention heads" in out

    def test_estimate_with_tokens(self, capsys):
        main(["estimate", "--nodes", "4", "--tp", "8", "--dp", "4",
              "--batch", "512", "--tokens", "1e9"])
        assert "days" in capsys.readouterr().out

    def test_sweep_prints_table(self, capsys):
        exit_code = main(["sweep", "--nodes", "2",
                          "--model", "mingpt-85m", "--batch", "256",
                          "--top", "5"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "mapping" in out
        assert "batch time" in out

    def test_sweep_rejects_unknown_eval_mode(self, capsys):
        # --eval-mode is gone; argparse rejects it like any unknown flag.
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--nodes", "2", "--model", "mingpt-85m",
                  "--batch", "256", "--eval-mode", "compiled"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --eval-mode" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--jobs", "-2"], "workers must be >= 0, got -2"),
        (["--timeout", "-5"], "timeout must be a finite number of "
                              "seconds > 0, got -5.0"),
        (["--timeout", "nan"], "timeout must be a finite number of "
                               "seconds > 0, got nan"),
        (["--timeout", "0"], "timeout must be a finite number of "
                             "seconds > 0, got 0.0"),
        (["--retries", "-1"], "retries must be >= 0, got -1"),
    ])
    def test_sweep_rejects_invalid_supervision(self, flags, message,
                                               capsys):
        exit_code = main(["sweep", "--nodes", "2",
                          "--model", "mingpt-85m", "--batch", "256",
                          "--top", "3"] + flags)
        assert exit_code == 2
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [f"error: {message}"]
        assert captured.out == ""

    def test_sweep_rejects_top_zero(self, capsys):
        exit_code = main(["sweep", "--nodes", "2",
                          "--model", "megatron-1.7b", "--batch", "256",
                          "--top", "0"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [
            "error: max_results must be at least 1, got 0"]

    def test_experiment_fig3(self, capsys):
        exit_code = main(["experiment", "fig3"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "DPx64, PPx2 inter" in out
        assert "DPx64, TPx2 inter" in out

    def test_experiment_fig11(self, capsys):
        exit_code = main(["experiment", "fig11"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "reference" in out
        assert "Opt.3" in out

    def test_recommend(self, capsys):
        exit_code = main(["recommend", "--nodes", "8"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "mapping:" in out
        assert "TP" in out

    def test_sensitivity(self, capsys):
        exit_code = main(["sensitivity", "--nodes", "4", "--tp", "8",
                          "--dp", "4", "--batch", "512"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "compute_frequency" in out
        assert "elasticity" in out

    def test_cost(self, capsys):
        exit_code = main(["cost", "--nodes", "4", "--tp", "8",
                          "--dp", "4", "--batch", "512",
                          "--tokens", "1e9"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "GPU-hours" in out
        assert "CO2" in out

    def test_experiment_fig2c(self, capsys):
        exit_code = main(["experiment", "fig2c"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "TFLOP/s/GPU" in out
        assert "microbatch" in out

    def test_experiment_fig2a(self, capsys):
        exit_code = main(["experiment", "fig2a"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "GPUs" in out and "error" in out

    def test_experiment_case_study_sweep(self, capsys):
        exit_code = main(["experiment", "fig6"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "inter split" in out
        assert "batch 16384" in out

    def test_export_writes_csvs(self, capsys, tmp_path):
        exit_code = main(["export", "--outdir", str(tmp_path),
                          "--skip-sweeps"])
        assert exit_code == 0
        names = {path.name for path in tmp_path.glob("*.csv")}
        assert {"fig2a.csv", "fig2b.csv", "fig2c.csv", "table2.csv",
                "table3.csv", "fig10.csv", "fig11.csv"} <= names
        # spot-check one file's header
        header = (tmp_path / "table2.csv").read_text().splitlines()[0]
        assert header.startswith("model,tp,pp,dp")
        # and the markdown summary
        report = (tmp_path / "report.md").read_text()
        assert report.startswith("# AMPeD reproduction summary")
        assert "Table II" in report and "Fig. 11" in report

    def test_validate_runs_all_reports(self, capsys):
        exit_code = main(["validate"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Table III" in out
        assert "Fig. 2a" in out
        assert "Fig. 2b" in out
