import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from poakit import cli as cli_mod, detect as detect_mod, io as pio, metrics as mx
from poakit.cli import cli
from poakit.forecast import EnsembleForecast, write_forecast_records

SYNTH_CFG = {
    "length": 600,
    "variables": [
        {"kind": "sine", "amplitude": 1.0, "period": 50.0},
        {"kind": "ar1", "coef": 0.85, "noise_std": 0.08},
    ],
    "anomalies": [
        {"start": 300, "length": 20, "kind": "level_shift", "magnitude": 2.0},
        {"start": 450, "length": 15, "kind": "spike", "magnitude": 2.0},
    ],
    "precursor": {"lead": 15, "length": 15, "drift_magnitude": 0.8, "noise_inflation": 2.0},
    "obs_noise_std": 0.05,
    "seed": 11,
}

MEMBERS = "persistence,moving_average:5,ar_ols:2,exp_smoothing:0.5"

# sha256 of the pipeline fixture's scores.csv, recorded before the scoring
# kernels moved from wrapper types to plain arrays; the score path must keep
# writing these exact bytes.
SCORES_SHA256 = "570bf68b0f962eafa46bca8bda909e2d0cf0f26e5bdb49c9b6e79b6b936fd8a9"

# sha256 of the tables the CLI writes itself (scoreboard, sweep, report
# timeline) in the pipeline fixture, recorded before they went through
# io.write_csv; the bytes must not change.
TABLE_SHA256 = {
    "fc/scoreboard.csv": "163a65d1a30a04dad2c0397fd91db10412eadafabc3c916a33eb688a444d3b52",
    "run/k_sweep.csv": "885222d762458b6193e32b42a17dcb918710d2eaacbd4300151cfaaa6e73ab45",
    "run/plot_timeline.csv": "4aa1831fdf39b0ebd1bb2ae87d4915c07c245fc56fba3cbfc7138864f82d379e",
}

# sha256 of the pipeline fixture's evaluate outputs, recorded before TaPR was
# scored through PTaPR's side scorer and the label split moved into detect.
EVALUATION_SHA256 = {
    "run/evaluation.json": "f20a9f99c9b319355f4318d2ea213254f57f1b5b18be2ea4420aa2bee0f11039",
    "run/theta_curve.csv": "aead66c27a0382829f663b8c7f58da97ec39ff0bd95efdf6fcc29ea9929282a1",
}

README = Path(__file__).resolve().parent.parent / "README.md"


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def readme_walkthrough() -> list[list[str]]:
    """The README walkthrough's commands: continuations joined, comments dropped."""
    section = README.read_text().split("## Pipeline walkthrough", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        for part in line.split("&&"):
            args = shlex.split(part, comments=True)
            if args:
                commands.append(args)
    return commands


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the full CLI pipeline once on a small synthetic dataset."""
    root = tmp_path_factory.mktemp("pipeline")
    runner = CliRunner()
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(SYNTH_CFG))

    steps = [
        ["synth", str(root / "data"), "--config", str(cfg_path)],
        ["split", str(root / "data/train.csv"), str(root / "parts"), "--train-frac", "0.7"],
        [
            "forecast", str(root / "parts/train.csv"), str(root / "parts/valid.csv"),
            str(root / "fc"), "--test", str(root / "data/test.csv"),
            "--members", MEMBERS, "--top-k", "3", "--input-len", "30", "--horizon", "8",
        ],
        [
            "score", str(root / "fc/test_forecasts.csv"),
            str(root / "fc/valid_forecasts.csv"), str(root / "run/scores.csv"),
        ],
        [
            "detect", str(root / "run/scores.csv"), str(root / "data/labels.csv"),
            str(root / "run/detection.csv"), "--grid-n", "32", "--delta", "8",
        ],
        [
            "evaluate", str(root / "run/detection.csv"), str(root / "data/labels.csv"),
            str(root / "run"), "--delta", "8",
        ],
    ]
    (root / "run").mkdir()
    for args in steps:
        result = runner.invoke(cli, args)
        assert result.exit_code == 0, f"{args}: {result.output}"
    return root


class TestPipeline:
    def test_outputs_exist(self, pipeline):
        for rel in (
            "data/train.csv", "data/test.csv", "data/labels.csv",
            "data/precursor_truth.csv", "data/manifest.json",
            "parts/train.csv", "parts/valid.csv",
            "fc/scoreboard.csv", "fc/valid_forecasts.csv", "fc/test_forecasts.csv",
            "run/scores.csv", "run/detection.csv", "run/detection.csv.meta.json",
            "run/evaluation.json", "run/theta_curve.csv",
        ):
            assert (pipeline / rel).exists(), rel

    def test_scoreboard_selects_top_k(self, pipeline):
        lines = (pipeline / "fc/scoreboard.csv").read_text().splitlines()
        assert lines[0] == "member_id,mse,mae,selected"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4
        assert sum(int(r[3]) for r in rows) == 3
        assert sha256(pipeline / "fc/scoreboard.csv") == TABLE_SHA256["fc/scoreboard.csv"]

    def test_scores_golden_bytes(self, pipeline):
        data = (pipeline / "run/scores.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == SCORES_SHA256

    def test_evaluation_golden_bytes(self, pipeline):
        for rel, digest in EVALUATION_SHA256.items():
            assert sha256(pipeline / rel) == digest, rel

    def test_scores_cover_tail_of_series(self, pipeline):
        scores = pio.read_scores(pipeline / "run/scores.csv")
        assert len(scores) == SYNTH_CFG["length"]
        # stride-1 windows with input 30: first scored timestamp is 30
        assert not scores.defined[:30].any()
        assert scores.defined[30:].all()

    def test_evaluation_matches_library(self, pipeline):
        detection = pio.read_detection(pipeline / "run/detection.csv")
        labels = pio.read_labels_csv(pipeline / "data/labels.csv")
        payload = json.loads((pipeline / "run/evaluation.json").read_text())
        params = mx.MetricParams(theta=0.0, delta=8)
        segments = detect_mod.split_precursor_prediction(detection, labels.flags, 8)
        sweep = mx.ptapr_theta_sweep(segments, params, np.linspace(0, 1, 101))
        report = mx.ptapr_report(segments, params)
        ptapr = payload["ptapr"]
        assert payload["params"]["delta"] == 8
        assert ptapr["f1_0"] == pytest.approx(sweep.f1_at_0, abs=1e-8)
        assert ptapr["f1_1"] == pytest.approx(sweep.f1_at_1, abs=1e-8)
        assert ptapr["auc"] == pytest.approx(sweep.auc, abs=1e-8)
        assert ptapr["at_theta"]["f1"] == pytest.approx(report.f1, abs=1e-8)
        assert ptapr["at_theta"]["recall_components"]["detection"] == pytest.approx(
            report.recall.detection, abs=1e-8
        )
        assert len(ptapr["curve"]["theta"]) == len(sweep.thetas)
        assert len(ptapr["diagnostics"]["anomaly_coverage"]) == len(segments.anomalies)
        suite = mx.pa_k_suite(detection.flags, labels.flags)
        assert payload["pak"]["f1_pa"] == pytest.approx(suite.f1_pa, abs=1e-8)

    def test_report_consolidates(self, pipeline):
        runner = CliRunner()
        shutil.copy(pipeline / "data/labels.csv", pipeline / "run/labels.csv")
        result = runner.invoke(cli, ["report", str(pipeline / "run")])
        assert result.exit_code == 0, result.output
        assert (pipeline / "run/report.json").exists()
        assert (pipeline / "run/plot_timeline.csv").exists()
        assert (pipeline / "run/plot_theta_curve.csv").exists()
        lines = (pipeline / "run/plot_timeline.csv").read_text().splitlines()
        assert lines[0] == "timestamp,score,flag,label"
        assert len(lines) == SYNTH_CFG["length"] + 1
        assert sha256(pipeline / "run/plot_timeline.csv") == TABLE_SHA256["run/plot_timeline.csv"]

    def test_sweep_k(self, pipeline):
        runner = CliRunner()
        out = pipeline / "run/k_sweep.csv"
        result = runner.invoke(
            cli,
            [
                "sweep", str(pipeline / "run/detection.csv"),
                str(pipeline / "data/labels.csv"), str(out),
                "--param", "k", "--values", "0.1,0.01,0.001", "--delta", "8",
            ],
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0] == "k,f1_0,f1_1,auc"
        assert len(lines) == 4
        assert sha256(out) == TABLE_SHA256["run/k_sweep.csv"]

    def test_file_outputs_create_parent_dir(self, pipeline, tmp_path):
        runner = CliRunner()
        labels = str(pipeline / "data/labels.csv")
        steps = [
            ["score", str(pipeline / "fc/test_forecasts.csv"),
             str(pipeline / "fc/valid_forecasts.csv"), str(tmp_path / "a/scores.csv")],
            ["detect", str(pipeline / "run/scores.csv"), labels,
             str(tmp_path / "b/detection.csv"), "--grid-n", "8", "--delta", "8"],
            ["sweep", str(pipeline / "run/detection.csv"), labels,
             str(tmp_path / "c/k_sweep.csv"), "--param", "k", "--values", "0.1",
             "--delta", "8"],
        ]
        for args in steps:
            result = runner.invoke(cli, args)
            assert result.exit_code == 0, f"{args}: {result.output}"
            assert Path(args[3]).is_file()


class TestMetricStages:
    """evaluate and sweep on the pipeline fixture: inputs they must refuse,
    and the work one evaluation does."""

    @staticmethod
    def invoke(pipeline, tmp_path, command, *extra, labels=None):
        out = tmp_path / ("sweep.csv" if command == "sweep" else "evaluation")
        return CliRunner().invoke(cli, [
            command, str(pipeline / "run/detection.csv"),
            str(labels or pipeline / "data/labels.csv"), str(out), "--delta", "8", *extra,
        ])

    @staticmethod
    def assert_rejected(result, message):
        assert result.exit_code == 2, result.output
        assert "error[validation]" in result.output
        assert message in result.output

    @pytest.mark.parametrize("command,extra", [
        ("evaluate", []), ("sweep", ["--param", "k", "--values", "0.1"]),
    ])
    def test_short_labels_rejected(self, pipeline, tmp_path, command, extra):
        # sweep used to score 500 label rows against the 600-row detection
        short = tmp_path / "labels.csv"
        short.write_text("".join((pipeline / "data/labels.csv").read_text().splitlines(True)[:501]))
        result = self.invoke(pipeline, tmp_path, command, *extra, labels=short)
        self.assert_rejected(result, "labels length 500 != detection length 600")

    def test_sweep_rejects_fractional_epsilon(self, pipeline, tmp_path):
        # int(2.7) used to run epsilon = 2 under the row label 2.7
        args = (pipeline, tmp_path, "sweep", "--param", "epsilon", "--values")
        self.assert_rejected(self.invoke(*args, "2,2.7"),
                             "epsilon values must be integers, got '2,2.7'")
        result = self.invoke(*args, "2,3.0")
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("command,extra", [
        ("evaluate", []), ("sweep", ["--param", "k", "--values", "0.1"]),
    ])
    @pytest.mark.parametrize("n", ["-1", "0"])
    def test_theta_grid_must_be_positive(self, pipeline, tmp_path, command, extra, n):
        result = self.invoke(pipeline, tmp_path, command, *extra, "--theta-grid", n)
        self.assert_rejected(result, f"--theta-grid must be >= 1, got {n}")

    @pytest.mark.parametrize("command,extra,message", [
        ("evaluate", ["--k", "inf"], "k must be finite, got inf"),
        ("evaluate", ["--alpha", "nan", "--beta", "0.5", "--gamma", "0.5"],
         "alpha must be finite, got nan"),
        ("evaluate", ["--theta", "nan"], "theta must be finite, got nan"),
        ("sweep", ["--param", "k", "--values", "nan"], "k must be finite, got nan"),
        ("sweep", ["--param", "k", "--values", "0.1", "--gamma", "-inf"],
         "gamma must be finite, got -inf"),
    ], ids=["evaluate-k", "evaluate-alpha", "evaluate-theta", "sweep-values", "sweep-gamma"])
    def test_non_finite_metric_param_rejected(self, pipeline, tmp_path, command, extra, message):
        # --k inf used to exit 0 with NaN rewards; the others exited 2 with
        # "ptar must be in [0, 1], got nan"
        self.assert_rejected(self.invoke(pipeline, tmp_path, command, *extra), message)

    def test_detect_rejects_non_finite_metric_param(self, pipeline, tmp_path):
        result = CliRunner().invoke(cli, [
            "detect", str(pipeline / "run/scores.csv"), str(pipeline / "data/labels.csv"),
            str(tmp_path / "detection.csv"), "--delta", "8", "--k", "inf",
        ])
        self.assert_rejected(result, "k must be finite, got inf")

    def test_evaluation_builds_credit_four_times(self, pipeline, monkeypatch):
        """ptapr_report, the PTaPR sweep, tapr and the TaPR sweep each build
        the credit once; early_prf reads the report."""
        detection = pio.read_detection(pipeline / "run/detection.csv")
        labels = pio.read_labels_csv(pipeline / "data/labels.csv")
        calls = []
        real = mx._diagnostics
        monkeypatch.setattr(mx, "_diagnostics", lambda *a: calls.append(a) or real(*a))
        cli_mod._evaluation_payload(detection, labels, mx.MetricParams(delta=8),
                                    {"ptapr", "tapr", "pak"}, 101)
        assert len(calls) == 4


class TestReadmeWalkthrough:
    def test_walkthrough_runs_verbatim(self, tmp_path, monkeypatch):
        """The README's commands and paths, on the small config, in a fresh directory."""
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps(SYNTH_CFG))
        commands = readme_walkthrough()
        assert [args[1] if args[0] == "poakit" else args[0] for args in commands] == [
            "synth", "split", "forecast", "score", "detect", "evaluate", "sweep",
            "cp", "report",
        ]
        runner = CliRunner()
        for args in commands:
            if args[0] == "cp":
                shutil.copy(args[1], args[2])
                continue
            args = args[1:]
            if args[0] == "synth":
                args += ["--config", "cfg.json"]
            result = runner.invoke(cli, args)
            assert result.exit_code == 0, f"{args}: {result.output}"
        for rel in ("run/scores.csv", "run/k_sweep.csv", "run/report.json"):
            assert Path("out", rel).is_file(), rel


class TestStride:
    def test_strided_forecast_scores_every_row(self, pipeline, tmp_path):
        """The final origin is always forecast, so a strided run scores all T rows."""
        runner = CliRunner()
        labels = str(pipeline / "data/labels.csv")
        steps = [
            ["forecast", str(pipeline / "parts/train.csv"), str(pipeline / "parts/valid.csv"),
             str(tmp_path / "fc"), "--test", str(pipeline / "data/test.csv"),
             "--members", MEMBERS, "--top-k", "3", "--input-len", "30", "--horizon", "8",
             "--stride", "8"],
            ["score", str(tmp_path / "fc/test_forecasts.csv"),
             str(tmp_path / "fc/valid_forecasts.csv"), str(tmp_path / "scores.csv")],
            ["detect", str(tmp_path / "scores.csv"), labels, str(tmp_path / "det.csv"),
             "--grid-n", "8", "--delta", "8"],
        ]
        for args in steps:
            result = runner.invoke(cli, args)
            assert result.exit_code == 0, f"{args}: {result.output}"
        assert len(pio.read_scores(tmp_path / "scores.csv")) == SYNTH_CFG["length"]


class TestDeterminism:
    def test_synth_reproducible_bytes(self, tmp_path):
        runner = CliRunner()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SYNTH_CFG))
        for out in ("a", "b"):
            result = runner.invoke(
                cli, ["synth", str(tmp_path / out), "--config", str(cfg_path)]
            )
            assert result.exit_code == 0
        assert (tmp_path / "a/test.csv").read_bytes() == (tmp_path / "b/test.csv").read_bytes()
        assert (tmp_path / "a/train.csv").read_bytes() == (tmp_path / "b/train.csv").read_bytes()

    def test_seed_env_override(self, tmp_path, monkeypatch):
        runner = CliRunner()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SYNTH_CFG))
        monkeypatch.setenv("POAKIT_SEED", "999")
        result = runner.invoke(cli, ["synth", str(tmp_path / "env"), "--config", str(cfg_path)])
        assert result.exit_code == 0
        manifest = json.loads((tmp_path / "env/manifest.json").read_text())
        assert manifest["seed"] == 999


class TestOptionalFlags:
    def test_detect_search_pair_matches_default_on_same_files(self, pipeline, tmp_path):
        runner = CliRunner()
        out = tmp_path / "det2.csv"
        result = runner.invoke(
            cli,
            [
                "detect", str(pipeline / "run/scores.csv"),
                str(pipeline / "data/labels.csv"), str(out),
                "--grid-n", "32", "--delta", "8",
                "--search-scores", str(pipeline / "run/scores.csv"),
                "--search-labels", str(pipeline / "data/labels.csv"),
            ],
        )
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == (pipeline / "run/detection.csv").read_bytes()

    def test_detect_search_flags_must_pair(self, pipeline, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            cli,
            [
                "detect", str(pipeline / "run/scores.csv"),
                str(pipeline / "data/labels.csv"), str(tmp_path / "d.csv"),
                "--search-scores", str(pipeline / "run/scores.csv"),
            ],
        )
        assert result.exit_code == 2
        assert "go together" in result.output

    def test_forecast_standardize_changes_scale(self, tmp_path):
        runner = CliRunner()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SYNTH_CFG))
        assert runner.invoke(cli, ["synth", str(tmp_path / "d"), "--config", str(cfg_path)]).exit_code == 0
        assert runner.invoke(
            cli, ["split", str(tmp_path / "d/train.csv"), str(tmp_path / "p")]
        ).exit_code == 0
        for flag, name in (("--no-standardize", "raw"), ("--standardize", "std")):
            result = runner.invoke(
                cli,
                [
                    "forecast", str(tmp_path / "p/train.csv"), str(tmp_path / "p/valid.csv"),
                    str(tmp_path / name), "--members", MEMBERS, "--top-k", "3",
                    "--input-len", "30", "--horizon", "8", flag,
                ],
            )
            assert result.exit_code == 0, result.output
        raw = (tmp_path / "raw/valid_forecasts.csv").read_bytes()
        std = (tmp_path / "std/valid_forecasts.csv").read_bytes()
        assert raw != std
        manifest = json.loads((tmp_path / "std/manifest.json").read_text())
        assert manifest["config"]["standardize"] is True


class TestErrorHandling:
    def test_missing_file_is_usage_error(self):
        runner = CliRunner()
        result = runner.invoke(cli, ["split", "/nonexistent.csv", "/tmp/x"])
        assert result.exit_code == 2

    def test_validation_error_exit_code(self, tmp_path):
        runner = CliRunner()
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,x\n0,1.0\n0,2.0\n")
        result = runner.invoke(cli, ["split", str(bad), str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "error[validation]" in result.output

    def test_length_mismatch_is_validation_error(self, tmp_path):
        runner = CliRunner()
        scores = tmp_path / "scores.csv"
        scores.write_text("timestamp,score,lead_time\n0,1.0,1\n1,2.0,1\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("timestamp,label\n0,0\n")
        result = runner.invoke(
            cli, ["detect", str(scores), str(labels), str(tmp_path / "det.csv")]
        )
        assert result.exit_code == 2
        assert "error[validation]" in result.output

    def test_bad_metric_name(self, tmp_path):
        runner = CliRunner()
        scores = tmp_path / "scores.csv"
        scores.write_text("timestamp,score,lead_time\n0,1.0,1\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("timestamp,label\n0,1\n")
        result = runner.invoke(
            cli,
            ["detect", str(scores), str(labels), str(tmp_path / "d.csv"),
             "--metric", "nonsense"],
        )
        assert result.exit_code == 2

    def test_unknown_evaluate_metric(self, tmp_path):
        runner = CliRunner()
        det = tmp_path / "det.csv"
        det.write_text("timestamp,flag,lead_time\n0,1,1\n")
        (tmp_path / "det.csv.meta.json").write_text('{"threshold": 0.5}')
        labels = tmp_path / "labels.csv"
        labels.write_text("timestamp,label\n0,1\n")
        result = runner.invoke(
            cli, ["evaluate", str(det), str(labels), str(tmp_path / "out"),
                  "--metrics", "bogus"],
        )
        assert result.exit_code == 2
        assert "unknown metrics: ['bogus']" in result.output

    def test_detection_without_sidecar_is_validation_error(self, tmp_path):
        runner = CliRunner()
        det = tmp_path / "det.csv"
        det.write_text("timestamp,flag,lead_time\n0,1,1\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("timestamp,label\n0,1\n")
        result = runner.invoke(cli, ["evaluate", str(det), str(labels), str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "error[validation]" in result.output
        assert "missing sidecar det.csv.meta.json" in result.output

    @pytest.mark.parametrize(
        "command", [["evaluate"], ["sweep", "--param", "k", "--values", "0.1"]],
        ids=["evaluate", "sweep"],
    )
    def test_bad_lead_time_is_validation_error(self, tmp_path, command):
        det = tmp_path / "det.csv"
        det.write_text("timestamp,flag,lead_time\n0,1,abc\n")
        (tmp_path / "det.csv.meta.json").write_text('{"threshold": 0.5}')
        labels = tmp_path / "labels.csv"
        labels.write_text("timestamp,label\n0,1\n")
        result = CliRunner().invoke(
            cli, [command[0], str(det), str(labels), str(tmp_path / "out"), *command[1:]]
        )
        assert result.exit_code == 2, result.output
        assert "error[validation]" in result.output
        assert "row 2 lead_time is not a number: 'abc'" in result.output

    def test_out_of_range_flag_is_validation_error(self, tmp_path):
        # a flag of 300 used to escape as numpy's OverflowError, exit 1
        det = tmp_path / "det.csv"
        det.write_text("timestamp,flag,lead_time\n0,0,\n1,300,1\n2,1,1\n")
        (tmp_path / "det.csv.meta.json").write_text('{"threshold": 0.5}')
        labels = tmp_path / "labels.csv"
        labels.write_text("timestamp,label\n0,0\n1,1\n2,1\n")
        result = CliRunner().invoke(cli, ["evaluate", str(det), str(labels), str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert "error[validation]" in result.output
        assert "det.csv: row 3 flag must be 0 or 1" in result.output

    @pytest.mark.parametrize("short", ["labels.csv", "detection.csv"])
    def test_report_rejects_length_mismatch(self, tmp_path, short):
        rows = {name: 1 if name == short else 3 for name in ("labels.csv", "detection.csv")}
        (tmp_path / "scores.csv").write_text(
            "timestamp,score,lead_time\n0,1.0,1\n1,2.0,1\n2,3.0,1\n")
        (tmp_path / "labels.csv").write_text(
            "timestamp,label\n" + "".join(f"{i},1\n" for i in range(rows["labels.csv"])))
        (tmp_path / "detection.csv").write_text(
            "timestamp,flag,lead_time\n"
            + "".join(f"{i},1,1\n" for i in range(rows["detection.csv"])))
        (tmp_path / "detection.csv.meta.json").write_text('{"threshold": 0.5}')
        result = CliRunner().invoke(cli, ["report", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "error[validation]" in result.output
        assert "run files differ in length" in result.output
        assert not (tmp_path / "plot_timeline.csv").exists()

    def test_lead_time_without_score_is_validation_error(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("timestamp,score,lead_time\n0,,5\n1,1.0,1\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("timestamp,label\n0,0\n1,1\n")
        result = CliRunner().invoke(
            cli, ["detect", str(scores), str(labels), str(tmp_path / "det.csv")]
        )
        assert result.exit_code == 2, result.output
        assert "error[validation]" in result.output
        assert "lead_time must be defined exactly where score is" in result.output

    @pytest.mark.parametrize("lead", ["inf", "1.5", "-3"])
    def test_bad_lead_time_is_validation_error(self, tmp_path, lead):
        # `inf` died in write_detection's int() and left a header-only
        # detection.csv; `1.5` was written as 1 and `-3` as -3
        scores = tmp_path / "scores.csv"
        scores.write_text(f"timestamp,score,lead_time\n0,0.5,{lead}\n1,0.2,1\n2,0.1,2\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("timestamp,label\n0,0\n1,1\n2,0\n")
        result = CliRunner().invoke(
            cli, ["detect", str(scores), str(labels), str(tmp_path / "det.csv"), "--grid-n", "4"])
        assert result.exit_code == 2, result.output
        assert result.output == (f"error[validation]: {scores}: row 2 "
                                 "lead_time must be a whole number >= 1\n")
        assert not (tmp_path / "det.csv").exists()

    @pytest.mark.parametrize("members,member_id,top_k", [
        ("persistence,persistence,ar_ols:4", "persistence", "2"),
        ("persistence,persistence,ar_ols:4", "persistence", "3"),
        ("ar_ols:4,exp_smoothing:0.3,ar_ols:04", "ar_ols_4", "2"),
    ])
    def test_repeated_member_rejected_before_any_write(self, pipeline, tmp_path, members,
                                                       member_id, top_k):
        out = tmp_path / "fc"
        result = CliRunner().invoke(cli, [
            "forecast", str(pipeline / "parts/train.csv"), str(pipeline / "parts/valid.csv"),
            str(out), "--members", members, "--top-k", top_k,
            "--input-len", "30", "--horizon", "8",
        ])
        assert result.exit_code == 2, result.output
        assert result.output == (
            f"error[validation]: --members names member {member_id!r} twice\n")
        assert not out.exists()

    @pytest.mark.parametrize("scaling", ["--no-standardize", "--standardize"])
    def test_short_test_series_rejected_before_any_write(self, pipeline, tmp_path, scaling):
        # the test series used to be read after scoreboard.csv and
        # valid_forecasts.csv were written, and left them behind
        short = tmp_path / "short.csv"
        short.write_text("".join((pipeline / "data/test.csv").read_text().splitlines(True)[:21]))
        out = tmp_path / "fc"
        result = CliRunner().invoke(cli, [
            "forecast", str(pipeline / "parts/train.csv"), str(pipeline / "parts/valid.csv"),
            str(out), "--test", str(short), "--members", MEMBERS, "--top-k", "3",
            "--input-len", "30", "--horizon", "8", scaling,
        ])
        assert result.exit_code == 2, result.output
        assert result.output == (
            "error[validation]: insufficient length: need at least 30 rows (input), got 20\n")
        assert not out.exists()


class TestRunDirectoryIndependence:
    def test_outputs_do_not_depend_on_the_run_directory(self, pipeline, tmp_path):
        # detect used to store the scores path as typed, report the run directory
        outputs = []
        for name in ("r", "a_longer_run_directory"):
            run = tmp_path / name
            run.mkdir()
            for src in ("run/scores.csv", "data/labels.csv"):
                shutil.copy(pipeline / src, run)
            for args in (["detect", run / "scores.csv", run / "labels.csv",
                          run / "detection.csv", "--grid-n", "32", "--delta", "8"],
                         ["report", run]):
                result = CliRunner().invoke(cli, list(map(str, args)))
                assert result.exit_code == 0, result.output
            outputs.append([(run / f).read_bytes() for f in (
                "detection.csv.meta.json", "report.json", "report_manifest.json")])
        assert outputs[0] == outputs[1]
        meta = json.loads(outputs[0][0])
        assert meta["searched_on"] == "scores.csv"


class TestRecordPipe:
    SRC = Path(__file__).resolve().parent.parent / "src"

    def test_bad_record_from_a_pipe_exits_2(self, tmp_path):
        # the CSV reader used to re-open the file to name a bad record, and
        # waited forever on a pipe whose writer had gone
        fifo = tmp_path / "test.csv"
        os.mkfifo(fifo)
        valid = tmp_path / "valid.csv"
        write_forecast_records(valid, ensembles(seed=1))

        def feed():
            try:
                with open(fifo, "w", newline="") as fh:
                    fh.write("window_id,origin,member_id,step,variable,value\r\n"
                             "0,20,m0,1,0,abc\r\n")
            except BrokenPipeError:
                pass

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            done = subprocess.run(
                [sys.executable, "-m", "poakit.cli", "score", str(fifo), str(valid),
                 str(tmp_path / "scores.csv")],
                env={**os.environ, "PYTHONPATH": str(self.SRC)},
                capture_output=True, text=True, timeout=10)
        finally:
            if writer.is_alive():  # the reader never came: let the writer's open return
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(5)
        assert not writer.is_alive()
        assert done.returncode == 2, done.stderr
        assert done.stderr == (
            "error[validation]: line 2: bad forecast record "
            "(could not convert string to float: 'abc')\n")


class TestStageImports:
    """OpenSSL (``_hashlib``) is loaded only by the stages that hash files, and
    the forecast, synth and uncertainty layers only by the stages that call
    them."""

    SRC = Path(__file__).resolve().parent.parent / "src"
    LAYERS = {"poakit.forecast", "poakit.synth", "poakit.uncertainty"}

    def loaded(self, *args) -> set[str]:
        """Modules whose code has run in a fresh process after ``args``; a
        lazily imported module whose code has not run yet is not plain
        ``types.ModuleType``."""
        code = ("import json, sys, types\n"
                "from poakit.cli import cli\n"
                "if sys.argv[1:]:\n"
                "    cli.main(sys.argv[1:], standalone_mode=False)\n"
                "print(json.dumps([name for name, module in sys.modules.items()\n"
                "                  if type(module) is types.ModuleType]))\n")
        done = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                              env={**os.environ, "PYTHONPATH": str(self.SRC)},
                              capture_output=True, text=True, check=True)
        return set(json.loads(done.stdout.splitlines()[-1]))

    def test_import_and_score_and_detect_skip_hashlib(self, pipeline, tmp_path):
        assert "_hashlib" not in self.loaded()
        assert "_hashlib" not in self.loaded(
            "score", pipeline / "fc/test_forecasts.csv", pipeline / "fc/valid_forecasts.csv",
            tmp_path / "scores.csv")
        assert "_hashlib" not in self.loaded(
            "detect", tmp_path / "scores.csv", pipeline / "data/labels.csv",
            tmp_path / "detection.csv", "--grid-n", "8", "--delta", "8")

    def test_manifests_keep_their_hashes(self, pipeline, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(pipeline / "run", run)
        shutil.copy(pipeline / "data/labels.csv", run / "labels.csv")
        assert "_hashlib" in self.loaded("report", run)
        for manifest in (pipeline / "fc/manifest.json", run / "report_manifest.json"):
            files = json.loads(manifest.read_text())["files"]
            assert files
            for name, entry in files.items():
                assert entry["sha256"] == sha256(manifest.parent / name), name

    def test_only_forecasting_stages_load_the_forecast_layers(self, pipeline, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(pipeline / "run", run)
        shutil.copy(pipeline / "data/labels.csv", run / "labels.csv")
        detection, labels = run / "detection.csv", run / "labels.csv"
        assert not self.loaded() & self.LAYERS
        for args in (
            ["detect", run / "scores.csv", labels, tmp_path / "det.csv",
             "--grid-n", "8", "--delta", "8"],
            ["evaluate", detection, labels, tmp_path / "eval", "--delta", "8"],
            ["sweep", detection, labels, tmp_path / "sweep.csv", "--param", "k",
             "--values", "0.1,0.01", "--delta", "8"],
            ["report", run],
        ):
            assert not self.loaded(*args) & self.LAYERS, args[0]
        assert {"poakit.forecast", "poakit.uncertainty"} <= self.loaded(
            "score", pipeline / "fc/test_forecasts.csv", pipeline / "fc/valid_forecasts.csv",
            tmp_path / "scores.csv")

    def test_import_poakit_loads_no_numpy(self):
        assert _python("import sys, poakit\nprint('numpy' in sys.modules)") == "False"

    def test_public_names_are_core_objects(self):
        import poakit
        from poakit import core

        for name in poakit.__all__:
            if name != "__version__":
                assert getattr(poakit, name) is getattr(core, name), name
        assert poakit.__version__ == "0.1.0"
        with pytest.raises(AttributeError, match="has no attribute 'NoSuchName'"):
            getattr(poakit, "NoSuchName")

    def test_help_defaults_are_the_layer_defaults(self):
        from poakit import forecast as fc, uncertainty as unc

        defaults = {param.name: param.default for command in cli.commands.values()
                    for param in command.params}
        assert cli_mod.DEFAULT_MEMBERS == ",".join(
            spec.spec_string for spec in fc.default_member_specs())
        assert defaults["members"] == cli_mod.DEFAULT_MEMBERS
        assert defaults["eps_sigma"] == unc.DEFAULT_EPS_SIGMA


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _python(code: str, **env) -> str:
    """stdout of ``code`` in a fresh interpreter with none of BLAS_VARS set
    but those in ``env``."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    done = subprocess.run([sys.executable, "-c", code],
                          env={**base, "PYTHONPATH": str(TestStageImports.SRC), **env},
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


THREADS = "import os\nprint(len(os.listdir('/proc/self/task')))\n"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
class TestBlasThreads:
    """The CLI runs OpenBLAS with one thread unless the user set a count."""

    def test_cli_process_has_one_thread(self):
        assert _python("import poakit.cli\n" + THREADS) == "1"
        assert _python("import os, poakit.cli\n"
                       "print(os.environ['OPENBLAS_NUM_THREADS'])") == "1"

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs")
    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_user_thread_count_is_respected(self, var):
        # the threads plain numpy starts under the same setting
        numpy_alone = _python("import numpy\n" + THREADS, **{var: "2"})
        assert _python("import poakit.cli\n" + THREADS, **{var: "2"}) == numpy_alone
        assert _python("import os, poakit.cli\n"
                       f"print([k for k in {BLAS_VARS} if k in os.environ])",
                       **{var: "2"}) == str([var])

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs")
    @pytest.mark.parametrize("rows", [700, 35_000])
    def test_ar_ols_bits_do_not_depend_on_threads(self, rows):
        code = ("import hashlib, numpy as np\n"
                "from poakit import core, forecast as fc\n"
                f"n = {rows}\n"
                "rng = np.random.default_rng(3)\n"
                "t = np.arange(n)[:, None]\n"
                "x = np.sin(2 * np.pi * t / [24, 50, 7]) + np.cumsum(rng.normal(0, 0.1, (n, 3)), 0)\n"
                "model = fc.fit(fc.ForecasterSpec.parse('ar_ols:4'), core.TimeSeries(t[:, 0], x))\n"
                "print(hashlib.sha256(model.coefficients.tobytes()).hexdigest())\n")
        assert (_python(code, OPENBLAS_NUM_THREADS="1")
                == _python(code, OPENBLAS_NUM_THREADS="2"))


# Every subcommand's option names: adding or removing a knob is an edit here.
OPTION_NAMES = {
    "synth": ["--config", "--seed"],
    "split": ["--train-frac"],
    "forecast": ["--test", "--members", "--top-k", "--criterion", "--input-len", "--horizon",
                 "--stride", "--standardize", "--no-standardize"],
    "score": ["--length", "--agg", "--collate", "--normalize", "--no-normalize", "--eps-sigma"],
    "detect": ["--grid-n", "--metric", "--search-scores", "--search-labels",
               "--alpha", "--beta", "--gamma", "--delta", "--epsilon", "--k"],
    "evaluate": ["--metrics", "--theta", "--theta-grid",
                 "--alpha", "--beta", "--gamma", "--delta", "--epsilon", "--k", "--tapr-alpha"],
    "sweep": ["--param", "--values", "--theta-grid",
              "--alpha", "--beta", "--gamma", "--delta", "--epsilon", "--k"],
    "report": [],
}


class TestOptionNames:
    def test_option_names_pinned(self):
        got = {
            name: [opt for param in command.params if isinstance(param, click.Option)
                   for opt in param.opts + param.secondary_opts]
            for name, command in cli.commands.items()
        }
        assert got == OPTION_NAMES


def ensembles(shape=(3, 4, 2), windows=4, origin=20, scale=1.0, seed=0):
    """``windows`` stride-1 ensembles of M x L_y x c random forecasts."""
    rng = np.random.default_rng(seed)
    ids = tuple(f"m{i}" for i in range(shape[0]))
    return [EnsembleForecast(w, origin + w, scale * rng.normal(size=shape), ids)
            for w in range(windows)]


class TestScoreRejections:
    """``score`` refuses inputs it cannot turn into an honest timeline."""

    def run_score(self, tmp_path, test_ens, valid_ens, *extra, ext="csv"):
        test_path, valid_path = tmp_path / f"test.{ext}", tmp_path / f"valid.{ext}"
        write_forecast_records(test_path, test_ens)
        write_forecast_records(valid_path, valid_ens)
        return CliRunner().invoke(
            cli, ["score", str(test_path), str(valid_path), str(tmp_path / "scores.csv"), *extra]
        )

    def assert_rejected(self, result, message):
        assert result.exit_code == 2, result.output
        assert "error[validation]" in result.output
        assert message in result.output

    def test_accepts_well_formed_files(self, tmp_path):
        result = self.run_score(tmp_path, ensembles(), ensembles(seed=1))
        assert result.exit_code == 0, result.output

    def test_validation_horizon_mismatch(self, tmp_path):
        result = self.run_score(tmp_path, ensembles(), ensembles(shape=(3, 3, 2), seed=1))
        self.assert_rejected(result, "does not match tensor cells")

    def test_single_member_ensemble(self, tmp_path):
        result = self.run_score(tmp_path, ensembles(shape=(1, 4, 2)), ensembles(seed=1))
        self.assert_rejected(result, "too small for variance")

    def test_single_validation_window(self, tmp_path):
        result = self.run_score(tmp_path, ensembles(), ensembles(windows=1, seed=1))
        self.assert_rejected(result, "need >= 2 windows")

    def test_variance_overflow(self, tmp_path):
        with np.errstate(over="ignore"):
            result = self.run_score(tmp_path, ensembles(scale=1e200), ensembles(seed=1))
        self.assert_rejected(result, "raw uncertainty values must be finite and >= 0")

    @pytest.mark.parametrize("length", ["-1", "0", "23"])
    def test_length_not_past_last_origin(self, tmp_path, length):
        # origins 20..23: -1 used to crash, 0 to write an empty timeline, and
        # 23 to drop the last window without a word
        result = self.run_score(tmp_path, ensembles(), ensembles(seed=1), "--length", length)
        self.assert_rejected(
            result, f"series length {length} must exceed the largest window origin 23")
        assert not (tmp_path / "scores.csv").exists()

    def test_length_just_past_last_origin(self, tmp_path):
        result = self.run_score(tmp_path, ensembles(), ensembles(seed=1), "--length", "24")
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("ext", ["csv", "ndjson"])
    def test_absurd_step_is_a_validation_error(self, tmp_path, ext):
        # one record of window 0 moves from step 1 to step 10^12: the grid it
        # implies is far larger than any file could fill
        path = tmp_path / f"test.{ext}"
        write_forecast_records(path, ensembles(windows=2))
        lines = path.read_text().splitlines()
        if ext == "csv":
            fields = lines[1].split(",")
            lines[1] = ",".join(fields[:3] + ["1000000000000"] + fields[4:])
        else:
            record = json.loads(lines[0])
            record["step"] = 10**12
            lines[0] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        write_forecast_records(tmp_path / "valid.csv", ensembles(seed=1))
        result = CliRunner().invoke(cli, ["score", str(path), str(tmp_path / "valid.csv"),
                                          str(tmp_path / "scores.csv")])
        assert result.exit_code == 2, result.output
        assert result.output == (
            "error[validation]: window 0: expected 6000000000000 cells (3 members x "
            "1000000000000 steps x 2 variables), got 24; first missing: "
            "[('m0', 1, 0), ('m0', 5, 0), ('m0', 5, 1)]\n")

    def test_negative_window_origin(self, tmp_path):
        # origins -3 and -2 would write to indices -2 and -1: the end of the timeline
        result = self.run_score(tmp_path, ensembles(windows=2, origin=-3), ensembles(seed=1),
                                "--length", "10", ext="ndjson")
        self.assert_rejected(result, "window origins must be >= 0, got -3")
        assert not (tmp_path / "scores.csv").exists()


class TestSynthConfigFields:
    @pytest.mark.parametrize("config,message", [
        ([1, 2], "synth config must be a JSON object, got list"),
        ({"length": 100, "variables": [1]},
         "each synth config 'variables' entry must be a JSON object, got int"),
        ({"length": 100, "anomalies": [1]},
         "each synth config 'anomalies' entry must be a JSON object, got int"),
        ({"length": 100, "anomalies": 5}, "synth config 'anomalies' must be a list, got int"),
        ({"length": 100, "precursor": [15]},
         "synth config 'precursor' must be a JSON object, got list"),
    ], ids=["top-level", "variable", "anomaly", "anomalies", "precursor"])
    def test_non_object_config_rejected(self, tmp_path, config, message):
        # each used to end in an AttributeError or TypeError traceback
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        result = CliRunner().invoke(cli, ["synth", str(tmp_path / "d"), "--config", str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert "error[validation]" in result.output
        assert message in result.output
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda cfg: cfg["anomalies"][0].update(start=300.7), "'start': not an integer: 300.7"),
        (lambda cfg: cfg.update(seed=3.9), "'seed': not an integer: 3.9"),
        (lambda cfg: cfg["anomalies"][0].update(magnitude=True), "'magnitude': not a number: True"),
    ], ids=["start", "seed", "magnitude"])
    def test_truncating_field_rejected(self, tmp_path, edit, message):
        # these used to run as start 300, seed 3 and magnitude 1.0
        cfg = json.loads(json.dumps(SYNTH_CFG))
        edit(cfg)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(cli, ["synth", str(tmp_path / "d"), "--config", str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert "error[validation]" in result.output
        assert message in result.output
        assert not (tmp_path / "d").exists()
