import hashlib
import json
import os
import shlex
import shutil
import stat
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from poakit import cli as cli_mod, detect as detect_mod, io as pio, metrics as mx
from poakit.cli import cli
from poakit.core import FLOAT_FMT, Segment
from poakit.forecast import ForecastCube, ingest_external_forecasts, write_forecast_records
from reference_metrics import ref_prf

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
        assert not list(pipeline.rglob(".poakit-*"))  # no staging directory is left

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
        report = mx.ptapr_report(segments, params)
        sweep = mx.ptapr_theta_sweep(report, np.linspace(0, 1, 101))
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

    @pytest.mark.parametrize("value", [2**63 - 1, 2**53 + 1])
    def test_sweep_reads_an_integer_epsilon_exactly(self, pipeline, tmp_path, monkeypatch,
                                                    value):
        # read through float, 2**63 - 1 was refused as "epsilon must be < 2**63,
        # got 9223372036854775808" and 2**53 + 1 ran as 2**53
        epsilons = []
        sweep = mx.ptapr_theta_sweep
        monkeypatch.setattr(mx, "ptapr_theta_sweep", lambda report, thetas: (
            epsilons.append(report.params.epsilon) or sweep(report, thetas)))
        result = self.invoke(pipeline, tmp_path, "sweep", "--param", "epsilon",
                             "--values", f"7,{value}")
        assert result.exit_code == 0, result.output
        assert epsilons == [7, value]

    @pytest.mark.parametrize("values,labels", [
        ("1000000001,1000000002", ["1000000001", "1000000002"]),
        ("9007199254740992,9007199254740993", ["9007199254740992", "9007199254740993"]),
        ("2,3.0", ["2", "3"]),
    ], ids=["1e9", "2**53", "integral-float"])
    def test_sweep_labels_each_row_with_the_epsilon_it_ran(self, pipeline, tmp_path, values,
                                                          labels):
        # written with .9g, the first two pairs shared the labels 1e+09 and 9.00719925e+15
        result = self.invoke(pipeline, tmp_path, "sweep", "--param", "epsilon",
                             "--values", values)
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == labels

    def test_overflowing_k_scores_without_a_warning(self, pipeline, tmp_path):
        # k (lead - epsilon)^2 past 1.8e308 printed numpy's overflow warning in
        # the early reward, then exited 0; exp(-inf) is the reward's limit 0.0
        detect = ["detect", str(pipeline / "run/scores.csv"), str(pipeline / "data/labels.csv"),
                  str(tmp_path / "detection.csv"), "--delta", "8", "--k", "1e308"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mx.early_reward(Segment(20, 5), Segment(10, 10), 1, 1e308) == 0.0
            results = [
                CliRunner().invoke(cli, detect),
                self.invoke(pipeline, tmp_path, "evaluate", "--k", "1e308"),
                self.invoke(pipeline, tmp_path, "sweep", "--param", "k",
                            "--values", "0.001,1e308"),
            ]
        for result in results:
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

    @pytest.mark.parametrize("option,value,message", [
        ("--k", "-1", "k must be > 0"),
        ("--alpha", "nan", "alpha must be finite, got nan"),
        ("--delta", "-5", "delta must be >= 0"),
        ("--epsilon", "0", "epsilon must be >= 1"),
    ], ids=["k", "alpha", "delta", "epsilon"])
    def test_point_f1_detect_checks_metric_params(self, pipeline, tmp_path, option, value,
                                                   message):
        # the point-F1 search never built the parameters, so each exited 0
        out = tmp_path / "detection.csv"
        result = CliRunner().invoke(cli, [
            "detect", str(pipeline / "run/scores.csv"), str(pipeline / "data/labels.csv"),
            str(out), "--metric", "point-f1", option, value,
        ])
        assert result.exit_code == 2, result.output
        assert result.output == f"error[validation]: {message}\n"
        assert not out.exists()

    def test_point_f1_detect_picks_the_best_grid_threshold(self, pipeline, tmp_path):
        # the sidecar holds the winning candidate at 9 significant digits
        out = tmp_path / "detection.csv"
        result = CliRunner().invoke(cli, [
            "detect", str(pipeline / "run/scores.csv"), str(pipeline / "data/labels.csv"),
            str(out), "--grid-n", "32", "--metric", "point-f1",
        ])
        assert result.exit_code == 0, result.output
        scores = pio.read_scores(pipeline / "run/scores.csv").scores.tolist()
        labels = pio.read_labels_csv(pipeline / "data/labels.csv").flags.tolist()
        grid = detect_mod.default_grid(pio.read_scores(pipeline / "run/scores.csv"), 32).tolist()
        meta = json.loads((tmp_path / "detection.csv.meta.json").read_text())

        def flags_at(tau):
            return [int(score >= tau) for score in scores]  # a NaN score is never flagged

        def printed(value):
            return float(format(value, FLOAT_FMT))

        [threshold] = [tau for tau in grid if printed(tau) == meta["threshold"]]
        f1 = ref_prf(flags_at(threshold), labels)[2]
        assert meta["f1"] == printed(f1)
        assert max((ref_prf(flags_at(tau), labels)[2], tau) for tau in grid) == (f1, threshold)
        assert pio.read_detection(out).flags.tolist() == flags_at(threshold)

    @pytest.mark.parametrize("command,extra", [
        ("evaluate", ["--delta", str(2**63 - 1)]),
        ("evaluate", ["--epsilon", str(2**63 - 1)]),
        ("evaluate", ["--epsilon", "3100000000"]),
        ("evaluate", ["--epsilon", "3100000000", "--k", "1e-30"]),
        ("sweep", ["--param", "epsilon", "--values", "4000000000"]),
        ("sweep", ["--param", "k", "--values", "0.1", "--delta", str(2**63 - 1)]),
    ], ids=["evaluate-delta", "evaluate-largest-epsilon", "evaluate-epsilon",
            "evaluate-epsilon-tiny-k", "sweep-epsilon", "sweep-delta"])
    def test_int64_delta_and_epsilon_are_scored(self, pipeline, tmp_path, command, extra):
        # the largest delta was refused with a wrapped bound; an epsilon past
        # 3.04e9 wrapped the early reward's int64 square, which ended in a
        # traceback or, with a tiny k, in a ptar above 1
        result = self.invoke(pipeline, tmp_path, command, *extra)
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("command,extra,name,value", [
        ("evaluate", ["--delta", str(2**63)], "delta", 2**63),
        ("evaluate", ["--epsilon", str(10**20)], "epsilon", 10**20),
        ("evaluate", ["--delta", str(10**400)], "delta", 10**400),
        ("evaluate", ["--epsilon", str(10**400)], "epsilon", 10**400),
        ("sweep", ["--param", "k", "--values", "0.1", "--delta", str(10**20)], "delta", 10**20),
        ("sweep", ["--param", "epsilon", "--values", "4,1e20"], "epsilon", 10**20),
    ], ids=["evaluate-delta", "evaluate-epsilon", "evaluate-delta-400-digits",
            "evaluate-epsilon-400-digits", "sweep-delta", "sweep-values"])
    def test_integer_past_int64_refused_by_name(self, pipeline, tmp_path, command, extra, name,
                                                value):
        # each ended in an OverflowError traceback, from int64 arithmetic or
        # from math.isfinite
        result = self.invoke(pipeline, tmp_path, command, *extra)
        assert result.exit_code == 2, result.output
        assert result.output == f"error[validation]: {name} must be < 2**63, got {value}\n"

    @pytest.mark.parametrize("metrics", ["", ","])
    def test_evaluate_needs_a_metric(self, pipeline, tmp_path, metrics):
        # used to exit 0 with an evaluation.json that held only the params
        result = self.invoke(pipeline, tmp_path, "evaluate", "--metrics", metrics)
        assert result.exit_code == 2, result.output
        assert result.output == "error[validation]: no metrics given\n"
        assert not (tmp_path / "evaluation").exists()

    def test_evaluation_builds_credit_twice(self, pipeline, monkeypatch):
        """ptapr_report and tapr each build the credit once; early_prf and
        both theta sweeps read the reports."""
        detection = pio.read_detection(pipeline / "run/detection.csv")
        labels = pio.read_labels_csv(pipeline / "data/labels.csv")
        calls = []
        real = mx._diagnostics
        monkeypatch.setattr(mx, "_diagnostics", lambda *a: calls.append(a) or real(*a))
        cli_mod._evaluation_payload(detection, labels, mx.MetricParams(delta=8),
                                    {"ptapr", "tapr", "pak"}, 101)
        assert len(calls) == 2

    def test_search_and_evaluation_build_no_segment(self, pipeline, monkeypatch):
        """The ptapr-f1@0 search, the evaluation payload and the theta sweep
        read SegmentSet's arrays only: none of them builds a Segment."""
        scores = pio.read_scores(pipeline / "run/scores.csv")
        detection = pio.read_detection(pipeline / "run/detection.csv")
        labels = pio.read_labels_csv(pipeline / "data/labels.csv")
        params = mx.MetricParams(delta=8)
        built = []
        real = Segment.__post_init__
        monkeypatch.setattr(Segment, "__post_init__", lambda seg: built.append(seg) or real(seg))
        evaluate = cli_mod._parse_detect_metric("ptapr-f1@0", labels, params)
        detect_mod.best_f1_threshold(scores, labels, evaluate,
                                     detect_mod.default_grid(scores, 256))
        cli_mod._evaluation_payload(detection, labels, params, {"ptapr", "tapr", "pak"}, 101)
        segments = detect_mod.split_precursor_prediction(detection, labels.flags, params.delta)
        mx.ptapr_theta_sweep(mx.ptapr_report(segments, params), np.linspace(0, 1, 101))
        assert built == []
        # the count sees a read-back, which builds one Segment per anomaly
        assert len(list(segments.anomalies)) == len(built) == len(segments.anomaly_starts) > 0


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


class TestForecastStage:
    """`forecast` predicts each split once per member, and ranks the members
    on the validation cube it writes."""

    def run(self, pipeline, tmp_path, top_k="3"):
        result = CliRunner().invoke(cli, [
            "forecast", str(pipeline / "parts/train.csv"), str(pipeline / "parts/valid.csv"),
            str(tmp_path / "fc"), "--test", str(pipeline / "data/test.csv"),
            "--members", MEMBERS, "--top-k", top_k, "--input-len", "30", "--horizon", "8",
        ])
        assert result.exit_code == 0, result.output
        return tmp_path / "fc"

    @pytest.mark.parametrize("top_k", ["2", "3", "4"])
    def test_each_member_predicts_each_split_once(self, pipeline, tmp_path, monkeypatch,
                                                   top_k):
        from poakit import forecast as fc

        windows: dict[str, int] = {}
        real = fc.predict_batch

        def counted(model, inputs, horizon):
            windows[model.member_id] = windows.get(model.member_id, 0) + len(inputs)
            return real(model, inputs, horizon)

        monkeypatch.setattr(fc, "predict_batch", counted)
        out = self.run(pipeline, tmp_path, top_k)
        n_valid = len(pio.read_series_csv(pipeline / "parts/valid.csv")) - 30 - 8 + 1
        n_test = len(pio.read_series_csv(pipeline / "data/test.csv")) - 30 + 1
        selected = {row.split(",")[0] for row in
                    (out / "scoreboard.csv").read_text().splitlines()[1:]
                    if row.endswith(",1")}
        assert len(selected) == int(top_k)
        assert windows == {spec.replace(":", "_"): n_valid + n_test * (
            spec.replace(":", "_") in selected) for spec in MEMBERS.split(",")}

    def test_members_are_ranked_on_the_cube_written(self, pipeline, tmp_path, monkeypatch):
        from poakit import forecast as fc

        ranked, written = [], {}
        real_evaluate, real_write = fc.evaluate_members, fc.write_forecast_records

        def evaluate(predictions, targets):
            ranked.append({m: np.array(p) for m, p in predictions.items()})
            return real_evaluate(predictions, targets)

        def write(path, cube):
            written[Path(path).name] = cube
            return real_write(path, cube)

        monkeypatch.setattr(fc, "evaluate_members", evaluate)
        monkeypatch.setattr(fc, "write_forecast_records", write)
        self.run(pipeline, tmp_path)
        (scored,) = ranked
        cube = written["valid_forecasts.csv"]
        assert len(scored) == len(MEMBERS.split(",")) and len(cube.member_ids) == 3
        for j, member_id in enumerate(cube.member_ids):
            got, want = scored[member_id], cube.predictions[:, j]
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), member_id


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

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    def test_negative_seed_rejected(self, tmp_path, monkeypatch, source):
        # each used to exit 1 with numpy's "expected non-negative integer" traceback
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**SYNTH_CFG, "seed": -3 if source == "config" else 11}))
        monkeypatch.delenv("POAKIT_SEED", raising=False)
        if source == "env":
            monkeypatch.setenv("POAKIT_SEED", "-5")
        flag = ["--seed", "-1"] if source == "flag" else []
        out = tmp_path / "neg"
        result = CliRunner().invoke(cli, ["synth", str(out), "--config", str(cfg_path), *flag])
        seed = {"flag": -1, "env": -5, "config": -3}[source]
        assert result.exit_code == 2, result.output
        assert result.output == f"error[validation]: seed must be >= 0, got {seed}\n"
        assert not out.exists()


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

    def test_detect_search_pair_lengths_must_match(self, pipeline, tmp_path):
        # the threshold search refuses the pair, naming both lengths
        short = tmp_path / "labels.csv"
        short.write_text("".join((pipeline / "data/labels.csv").read_text().splitlines(True)[:501]))
        result = CliRunner().invoke(cli, [
            "detect", str(pipeline / "run/scores.csv"), str(pipeline / "data/labels.csv"),
            str(tmp_path / "d.csv"), "--delta", "8",
            "--search-scores", str(pipeline / "run/scores.csv"), "--search-labels", str(short),
        ])
        assert result.exit_code == 2, result.output
        assert result.output == "error[validation]: labels length 500 != scores length 600\n"

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

    def test_member_spec_with_extra_parameters_rejected(self, pipeline, tmp_path):
        # ar_ols:4:7 used to run as ar_ols_4 and be recorded in the manifest as given
        out = tmp_path / "fc"
        result = CliRunner().invoke(cli, [
            "forecast", str(pipeline / "parts/train.csv"), str(pipeline / "parts/valid.csv"),
            str(out), "--members", "persistence,ar_ols:4:7", "--input-len", "30",
        ])
        assert result.exit_code == 2, result.output
        assert result.output == ("error[validation]: cannot parse forecaster spec "
                                 "'ar_ols:4:7': expected ar_ols:order\n")
        assert not out.exists()

    def test_member_spec_with_missing_parameters_rejected(self, pipeline, tmp_path):
        # ar_ols without its order used to be reported as 'list index out of range'
        out = tmp_path / "fc"
        result = CliRunner().invoke(cli, [
            "forecast", str(pipeline / "parts/train.csv"), str(pipeline / "parts/valid.csv"),
            str(out), "--members", "persistence,ar_ols", "--input-len", "30",
        ])
        assert result.exit_code == 2, result.output
        assert result.output == ("error[validation]: cannot parse forecaster spec "
                                 "'ar_ols': expected ar_ols:order\n")
        assert not out.exists()

    @pytest.mark.parametrize("args,message", [
        (["synth", "--seed", "1_0", "{out}"], "'1_0' is not a valid integer."),
        (["synth", "--seed", "\u0661", "{out}"], "'\u0661' is not a valid integer."),
        (["split", "--train-frac", "0_7", "{p}/data/train.csv", "{out}"],
         "'0_7' is not a valid float."),
        (["forecast", "--input-len", "\u0661\u0660\u0660", "{p}/parts/train.csv",
          "{p}/parts/valid.csv", "{out}"], "'\u0661\u0660\u0660' is not a valid integer."),
        (["detect", "--k", "1_0", "{p}/run/scores.csv", "{p}/data/labels.csv", "{out}"],
         "'1_0' is not a valid float."),
        (["evaluate", "--theta-grid", "1_01", "{p}/run/detection.csv", "{p}/data/labels.csv",
          "{out}"], "'1_01' is not a valid integer."),
    ], ids=["synth-seed-separator", "synth-seed-arabic-indic", "split-train-frac",
            "forecast-input-len", "detect-k", "evaluate-theta-grid"])
    def test_numeric_options_follow_the_csv_grammar(self, pipeline, tmp_path, args, message):
        # int()/float() read these as seed 10, seed 1, train_frac 7.0, input length
        # 100, k 10 and a 101-point theta grid
        out = tmp_path / "out"
        result = CliRunner().invoke(cli, [a.format(p=pipeline, out=out) for a in args])
        assert result.exit_code == 2, result.output
        assert result.output.endswith(f"Invalid value for '{args[1]}': {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("env,args,message", [
        ("1_0", ["synth", "{out}"], "POAKIT_SEED must be an integer, got '1_0'"),
        ("\u0661", ["synth", "{out}"], "POAKIT_SEED must be an integer, got '\u0661'"),
        (None, ["sweep", "{p}/run/detection.csv", "{p}/data/labels.csv", "{out}",
                "--param", "epsilon", "--values", "1_0,7"], "cannot parse --values '1_0,7'"),
        (None, ["detect", "{p}/run/scores.csv", "{p}/data/labels.csv", "{out}",
                "--metric", "ptapr-f1@\u0660"], "bad theta in metric 'ptapr-f1@\u0660'"),
    ], ids=["seed-separator", "seed-arabic-indic", "sweep-values", "detect-theta"])
    def test_text_numbers_follow_the_csv_grammar(self, pipeline, tmp_path, monkeypatch,
                                                 env, args, message):
        # int()/float() read these as seed 10, seed 1, epsilon 10 and theta 0
        monkeypatch.delenv("POAKIT_SEED", raising=False)
        if env is not None:
            monkeypatch.setenv("POAKIT_SEED", env)
        out = tmp_path / "out"
        result = CliRunner().invoke(cli, [a.format(p=pipeline, out=out) for a in args])
        assert result.exit_code == 2, result.output
        assert result.output == f"error[validation]: {message}\n"
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

    @pytest.mark.parametrize("scaling", ["--no-standardize", "--standardize"])
    @pytest.mark.parametrize("split", ["valid", "test"])
    def test_series_with_other_variables_rejected(self, pipeline, tmp_path, scaling, split):
        # with its two columns swapped, a series was forecast with the other
        # variable's coefficients and exited 0
        source = pipeline / ("parts/valid.csv" if split == "valid" else "data/test.csv")
        swapped = tmp_path / "swapped.csv"
        swapped.write_text("".join(
            ",".join([ts, v1, v0]) + "\n"
            for ts, v0, v1 in (line.split(",") for line in source.read_text().splitlines())))
        paths = {"valid": swapped if split == "valid" else pipeline / "parts/valid.csv",
                 "test": swapped if split == "test" else pipeline / "data/test.csv"}
        out = tmp_path / "fc"
        result = CliRunner().invoke(cli, [
            "forecast", str(pipeline / "parts/train.csv"), str(paths["valid"]), str(out),
            "--test", str(paths["test"]), "--members", MEMBERS, "--top-k", "3",
            "--input-len", "30", "--horizon", "8", scaling,
        ])
        assert result.exit_code == 2, result.output
        assert result.output == (
            f"error[validation]: {swapped}: variables ('v1', 'v0') differ from "
            f"{pipeline / 'parts/train.csv'}'s ('v0', 'v1')\n")
        assert not out.exists()

    @pytest.mark.parametrize("args,files,message", [
        (["forecast", "{p}/parts/train.csv", "{p}/parts/valid.csv", "{t}/fc", "--members", ","],
         {}, "no forecaster members given"),
        (["forecast", "{p}/parts/train.csv", "{p}/parts/valid.csv", "{t}/fc",
          "--members", "seasonal_naive:24", "--input-len", "10"],
         {}, "seasonal_naive_24: input window shorter than period 24"),
        (["forecast", "{p}/parts/train.csv", "{p}/parts/valid.csv", "{t}/fc",
          "--members", "moving_average:12", "--input-len", "5"],
         {}, "moving_average_12: input window shorter than width 12"),
        (["forecast", "{p}/parts/train.csv", "{p}/parts/valid.csv", "{t}/fc",
          "--members", "ar_ols:4", "--input-len", "3"],
         {}, "ar_ols_4: input window shorter than order 4"),
        (["forecast", "{p}/parts/train.csv", "{p}/parts/valid.csv", "{t}/fc",
          "--members", "holt_linear:0.3:0.1", "--input-len", "1"],
         {}, "holt_linear_0.3_0.1: needs input length >= 2"),
        (["sweep", "{p}/run/detection.csv", "{p}/data/labels.csv", "{t}/sweep.csv",
          "--param", "k", "--values", ","], {}, "no sweep values given"),
        (["report", "{t}"], {}, "{t}: no pipeline outputs found to report on"),
        (["evaluate", "{p}/run/detection.csv", "{t}/labels.csv", "{t}/ev"],
         {"labels.csv": "timestamp,label\n"}, "{t}/labels.csv: no data rows"),
        (["detect", "{t}/scores.csv", "{p}/data/labels.csv", "{t}/detection.csv"],
         {"scores.csv": "timestamp,score,lead_time\n"}, "{t}/scores.csv: no data rows"),
        (["split", "{t}/series.csv", "{t}/parts"], {"series.csv": "timestamp,v0\n0,1.5\n"},
         "split at 0 leaves an empty side (T=1, train_frac=0.7)"),
        (["evaluate", "{t}/det.csv", "{t}/labels.csv", "{t}/ev"],
         {"det.csv": "timestamp,flag,lead_time\n0,1,1\n", "labels.csv": "timestamp,label\n0,1\n",
          "det.csv.meta.json": f'{{"threshold": {10**400}}}'},
         f"{{t}}/det.csv.meta.json: no numeric 'threshold' (got {10**400})"),
        (["score", "{t}/test.csv", "{p}/fc/valid_forecasts.csv", "{t}/scores.csv"],
         {"test.csv": "window_id,origin,member_id,step,variable\n0,0,m0,1,0\n"},
         "{t}/test.csv: header missing columns ['value']"),
    ], ids=["no-members", "seasonal-naive-input", "moving-average-input", "ar-ols-input",
            "holt-linear-input", "no-sweep-values", "report-empty-directory",
            "header-only-labels", "header-only-scores", "one-row-split", "huge-threshold",
            "no-value-column"])
    def test_refusal_is_one_line_and_writes_nothing(self, pipeline, tmp_path, args, files,
                                                    message):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        result = CliRunner().invoke(cli, [a.format(p=pipeline, t=tmp_path) for a in args])
        assert result.exit_code == 2, result.output
        assert result.output == f"error[validation]: {message.format(t=tmp_path)}\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(files)

    @pytest.mark.parametrize("stage", ["detect", "evaluate", "sweep", "score", "synth"])
    def test_count_no_array_holds_is_a_memory_error(self, pipeline, tmp_path, stage):
        # 2**61 8-byte values pass the address space, and numpy's ValueError
        # ("array is too big") ended each stage in a traceback; 2**59 was
        # already error[memory]
        n = str(2**61)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**SYNTH_CFG, "length": 2**61}))
        run, out = pipeline / "run", tmp_path / "out"
        labels = str(pipeline / "data/labels.csv")
        args = {
            "detect": ["detect", str(run / "scores.csv"), labels, str(out), "--grid-n", n],
            "evaluate": ["evaluate", str(run / "detection.csv"), labels, str(out),
                         "--theta-grid", n],
            "sweep": ["sweep", str(run / "detection.csv"), labels, str(out),
                      "--param", "k", "--values", "0.1", "--theta-grid", n],
            "score": ["score", str(pipeline / "fc/test_forecasts.csv"),
                      str(pipeline / "fc/valid_forecasts.csv"), str(out), "--length", n],
            "synth": ["synth", str(out), "--config", str(config)],
        }[stage]
        result = CliRunner().invoke(cli, args)
        assert result.exit_code == 3, result.output
        assert result.output.startswith("error[memory]: Unable to allocate ")
        assert result.output.count("\n") == 1
        assert not out.exists()


class TestForecastNumericErrors:
    """A forecast stage that overflows exits 4 with one error[numeric] line that
    names what overflowed, and no numpy warning."""

    # holt_linear's first trend, x1 - x0, is -3.2e308: every forecast overflows
    # (--top-k 3 keeps it among the members that forecast the test split)
    ALTERNATING = 1.6e308 * (-1.0) ** np.arange(200)
    OVERFLOW_MEMBERS = "persistence,holt_linear:0.3:0.1,exp_smoothing:0.3"

    @staticmethod
    def _series(path, values):
        path.write_text("timestamp,v0\n" + "".join(f"{i},{float(v)!r}\n"
                                                   for i, v in enumerate(values)))
        return str(path)

    @staticmethod
    def _forecast(*args):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return CliRunner().invoke(cli, ["forecast", *args])

    def test_overflowed_ranking_names_member_and_metric(self, tmp_path):
        # every member used to score inf, and the top-k fell back to id order
        rng = np.random.default_rng(0)
        train = self._series(tmp_path / "train.csv", 1e307 * (1 + 0.5 * rng.standard_normal(300)))
        valid = self._series(tmp_path / "valid.csv", 1e307 * (1 + 0.5 * rng.standard_normal(200)))
        out = tmp_path / "fc"
        result = self._forecast(train, valid, str(out), "--input-len", "30", "--horizon", "8",
                                "--top-k", "2")
        assert result.exit_code == 4, result.output
        assert result.output == "error[numeric]: member 'ar_ols_4': mse is not finite (inf)\n"
        assert not out.exists()

    @pytest.mark.parametrize("split", ["valid", "test"])
    def test_non_finite_forecast_names_member_and_split(self, tmp_path, split):
        # the error used to be error[validation]: non-finite prediction in window 0
        rng = np.random.default_rng(0)
        small = self._series(tmp_path / "small.csv", rng.standard_normal(200))
        huge = self._series(tmp_path / "huge.csv", self.ALTERNATING)
        splits = [small, huge] if split == "valid" else [small, small, "--test", huge]
        result = self._forecast(*splits, str(tmp_path / "fc"), "--input-len", "30", "--top-k", "3",
                                "--members", self.OVERFLOW_MEMBERS)
        assert result.exit_code == 4, result.output
        assert result.output == (f"error[numeric]: {huge}: non-finite prediction in window 0, "
                                 "member 'holt_linear_0.3_0.1'\n")

    def test_moving_average_of_a_huge_series_is_finite(self, tmp_path):
        # the window sums used to overflow: exit 4, "non-finite prediction in
        # window 0, member 'moving_average_12'", though every mean is 1.6e308
        rng = np.random.default_rng(0)
        small = self._series(tmp_path / "small.csv", rng.standard_normal(200))
        huge = self._series(tmp_path / "huge.csv", np.full(200, 1.6e308))
        out = tmp_path / "fc"
        result = self._forecast(small, small, str(out), "--test", huge, "--input-len", "30",
                                "--top-k", "3",
                                "--members", "persistence,moving_average:12,exp_smoothing:0.3")
        assert result.exit_code == 0, result.output
        cube = ingest_external_forecasts(out / "test_forecasts.csv")
        assert np.isfinite(cube.predictions).all()
        assert (cube.predictions[:, cube.member_ids.index("moving_average_12")] == 1.6e308).all()


class TestFailedStageLeavesItsOutputs:
    """A stage that fails leaves every output as it found it: no file in a
    fresh directory, and earlier files, manifest included, byte for byte."""

    @pytest.fixture
    def series(self, tmp_path):
        rng = np.random.default_rng(0)
        return (TestForecastNumericErrors._series(tmp_path / "normal.csv",
                                                  rng.standard_normal(200)),
                TestForecastNumericErrors._series(tmp_path / "huge.csv",
                                                  TestForecastNumericErrors.ALTERNATING))

    def forecast(self, out, normal, test, members=TestForecastNumericErrors.OVERFLOW_MEMBERS):
        return TestForecastNumericErrors._forecast(
            normal, normal, str(out), "--test", test, "--input-len", "30", "--top-k", "3",
            "--members", members)

    @staticmethod
    def snapshot(directory) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in Path(directory).iterdir()}

    @staticmethod
    def invoke_beside_fifo(fifo, args):
        """Run ``args`` with ``fifo`` open for reading, so that a stage that
        writes through the FIFO fails its checks instead of blocking."""
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            return CliRunner().invoke(cli, args)
        finally:
            os.close(reader)

    def test_fresh_directory_gets_no_file(self, tmp_path, series):
        # scoreboard.csv and valid_forecasts.csv used to be left behind
        normal, huge = series
        result = self.forecast(tmp_path / "fc", normal, huge)
        assert result.exit_code == 4, result.output
        assert result.output.startswith("error[numeric]: ")
        assert not (tmp_path / "fc").exists()
        assert not list(tmp_path.rglob(".poakit-*"))

    def test_rerun_keeps_the_earlier_run(self, tmp_path, series):
        # the failed run used to replace scoreboard.csv and valid_forecasts.csv
        # beside the old test_forecasts.csv, so manifest.json named two files
        # whose sha256 no longer matched
        normal, huge = series
        out = tmp_path / "fc"
        assert self.forecast(out, normal, normal).exit_code == 0
        before = self.snapshot(out)
        assert set(before) == {"manifest.json", "scoreboard.csv", "valid_forecasts.csv",
                               "test_forecasts.csv"}
        result = self.forecast(out, normal, huge,
                               "persistence,holt_linear:0.5:0.1,exp_smoothing:0.3")
        assert result.exit_code == 4, result.output
        assert result.output == (f"error[numeric]: {huge}: non-finite prediction in window 0, "
                                 "member 'holt_linear_0.5_0.1'\n")
        assert self.snapshot(out) == before
        for name, entry in json.loads(before["manifest.json"])["files"].items():
            assert entry["sha256"] == sha256(out / name), name
        assert not list(tmp_path.rglob(".poakit-*"))

    @pytest.mark.parametrize("kind", ["fifo", "symlink"])
    def test_output_that_is_not_a_regular_file_is_refused(self, pipeline, tmp_path, kind):
        # score used to write through it; publishing would replace it
        out = tmp_path / "scores.csv"
        args = ["score", str(pipeline / "fc/test_forecasts.csv"),
                str(pipeline / "fc/valid_forecasts.csv"), str(out)]
        if kind == "fifo":
            result = self.invoke_beside_fifo(out, args)
        else:
            (tmp_path / "elsewhere.csv").write_text("old\n")
            out.symlink_to(tmp_path / "elsewhere.csv")
            result = CliRunner().invoke(cli, args)
        assert result.exit_code == 2, result.output
        assert result.output == (
            f"error[validation]: {out}: output exists and is not a regular file\n")
        if kind == "fifo":
            assert stat.S_ISFIFO(os.lstat(out).st_mode)
        else:
            assert out.is_symlink() and (tmp_path / "elsewhere.csv").read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["scores.csv"] + (["elsewhere.csv"] if kind == "symlink" else []))

    def test_out_path_naming_a_directory_is_refused(self, pipeline, tmp_path):
        # a staged file must not be published under the name without the slash
        out = f"{tmp_path / 'scores'}{os.sep}"
        result = CliRunner().invoke(cli, [
            "score", str(pipeline / "fc/test_forecasts.csv"),
            str(pipeline / "fc/valid_forecasts.csv"), out])
        assert result.exit_code == 3, result.output
        assert result.output == f"error[io]: {out}: not a file path\n"
        assert not list(tmp_path.iterdir())

    def test_refused_output_publishes_none_of_the_others(self, pipeline, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        (run / "evaluation.json").write_text("old\n")
        result = self.invoke_beside_fifo(run / "theta_curve.csv", [
            "evaluate", str(pipeline / "run/detection.csv"), str(pipeline / "data/labels.csv"),
            str(run), "--delta", "8"])
        assert result.exit_code == 2, result.output
        assert result.output == (f"error[validation]: {run / 'theta_curve.csv'}: "
                                 "output exists and is not a regular file\n")
        assert (run / "evaluation.json").read_text() == "old\n"
        assert sorted(p.name for p in run.iterdir()) == ["evaluation.json", "theta_curve.csv"]

    def test_memory_error_without_text(self, pipeline, tmp_path, monkeypatch):
        def exhausted(path):
            raise MemoryError()

        monkeypatch.setattr(pio, "read_series_csv", exhausted)
        out = tmp_path / "parts"
        result = CliRunner().invoke(cli, ["split", str(pipeline / "data/train.csv"), str(out)])
        assert result.exit_code == 3, result.output
        assert result.output == "error[memory]: out of memory\n"
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

    def score_from_pipe(self, tmp_path, text):
        """``poakit score`` in a fresh process, its test records fed through a FIFO."""
        fifo = tmp_path / "test.csv"
        os.mkfifo(fifo)
        valid = tmp_path / "valid.csv"
        write_forecast_records(valid, ensembles(seed=1))

        def feed():
            try:
                with open(fifo, "w", newline="") as fh:
                    fh.write(text)
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
        assert not (tmp_path / "scores.csv").exists()
        return fifo, done

    def test_bad_record_from_a_pipe_exits_2(self, tmp_path):
        # the CSV reader used to re-open the file to name a bad record, and
        # waited forever on a pipe whose writer had gone
        fifo, done = self.score_from_pipe(
            tmp_path, "window_id,origin,member_id,step,variable,value\r\n0,20,m0,1,0,abc\r\n")
        assert done.returncode == 2, done.stderr
        assert done.stderr == (
            f"error[validation]: {fifo}: line 2: bad forecast record "
            "(could not convert string to float: 'abc')\n")

    def test_absurd_step_from_a_pipe_is_a_memory_error(self, tmp_path):
        # a pipe has no size to bound the grid by: the 4 x 3 x 10^12 x 2 grid
        # record 1 names (175 TiB) used to end in numpy's traceback, exit 1
        records = tmp_path / "records.csv"
        write_forecast_records(records, ensembles())
        lines = records.read_bytes().decode().split("\r\n")
        fields = lines[1].split(",")
        lines[1] = ",".join(fields[:3] + ["1000000000000"] + fields[4:])
        fifo, done = self.score_from_pipe(tmp_path, "\r\n".join(lines))
        assert done.returncode == 3, done.stderr
        assert done.stderr.startswith(f"error[memory]: {fifo}: ")
        assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n")


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

    def test_evaluate_and_sweep_skip_numpy_ma(self, pipeline, tmp_path):
        # np.unique loads numpy.ma, which the theta and K grids never needed
        labels = pipeline / "data/labels.csv"
        for args in (
            ["evaluate", pipeline / "run/detection.csv", labels, tmp_path / "eval",
             "--delta", "8"],
            ["sweep", pipeline / "run/detection.csv", labels, tmp_path / "sweep.csv",
             "--param", "k", "--values", "0.1,0.01", "--delta", "8"],
        ):
            assert "numpy.ma" not in self.loaded(*args), args[0]

    def test_manifests_keep_their_hashes(self, pipeline, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(pipeline / "run", run)
        shutil.copy(pipeline / "data/labels.csv", run / "labels.csv")
        assert "_hashlib" in self.loaded("report", run)
        for manifest in (pipeline / "data/manifest.json", pipeline / "fc/manifest.json",
                         run / "report_manifest.json"):
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
        assert [fc.ForecasterSpec.parse(text) for text in cli_mod.DEFAULT_MEMBERS.split(",")
                ] == fc.default_member_specs()
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
    """A cube of ``windows`` stride-1 windows of M x L_y x c random forecasts."""
    rng = np.random.default_rng(seed)
    return ForecastCube(scale * rng.normal(size=(windows, *shape)), range(windows),
                        range(origin, origin + windows), tuple(f"m{i}" for i in range(shape[0])))


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

    def test_validation_members_must_match(self, tmp_path):
        # a forecast re-run with other members used to leave a validation file
        # whose statistics z-scored the test members of the run before
        def cube(members, seed):
            return ForecastCube(np.random.default_rng(seed).normal(size=(4, 2, 4, 2)),
                                range(4), range(20, 24), members)

        result = self.run_score(tmp_path, cube(("exp_smoothing_0.3", "moving_average_12"), 0),
                                cube(("exp_smoothing_0.3", "moving_average_6"), 1))
        assert result.exit_code == 2, result.output
        assert result.output == (
            "error[validation]: validation members ['exp_smoothing_0.3', 'moving_average_6'] "
            "differ from test members ['exp_smoothing_0.3', 'moving_average_12']\n")
        assert not (tmp_path / "scores.csv").exists()

    def test_validation_horizon_mismatch(self, tmp_path):
        result = self.run_score(tmp_path, ensembles(), ensembles(shape=(3, 3, 2), seed=1))
        self.assert_rejected(result, "does not match tensor cells")

    def test_single_member_ensemble(self, tmp_path):
        result = self.run_score(tmp_path, ensembles(shape=(1, 4, 2)), ensembles(seed=1))
        self.assert_rejected(result, "too small for variance")

    def test_single_validation_window(self, tmp_path):
        result = self.run_score(tmp_path, ensembles(), ensembles(windows=1, seed=1))
        self.assert_rejected(result, "need >= 2 windows")

    def assert_overflow(self, result, message):
        assert result.exit_code == 4, result.output
        assert result.output == f"error[numeric]: {message} overflows float64\n"

    @pytest.mark.filterwarnings("error")  # numpy's overflow warning must not print
    def test_variance_overflow(self, tmp_path):
        result = self.run_score(tmp_path, ensembles(scale=1e200), ensembles(seed=1))
        self.assert_overflow(result, f"{tmp_path / 'test.csv'}: window 0: "
                                     "the ensemble variance at step 1, variable 0")
        assert not (tmp_path / "scores.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_validation_spread_overflow(self, tmp_path):
        # one validation value of 1e100 gives a finite variance near 1e200, and
        # the spread of the variances squares it: its sigma used to read inf,
        # and every test z-score of that cell -0.0, with exit 0
        preds = np.random.default_rng(1).normal(size=(4, 3, 4, 2))
        preds[2, 0, 1, 1] = 1e100
        valid = ForecastCube(preds, range(4), range(20, 24), ("m0", "m1", "m2"))
        result = self.run_score(tmp_path, ensembles(), valid)
        self.assert_overflow(result, f"{tmp_path / 'valid.csv'}: "
                                     "the variance spread at step 2, variable 1")
        assert not (tmp_path / "scores.csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_z_score_overflow(self, tmp_path):
        # members +-9e153 and 0 give a finite variance of 8.1e307; over a
        # validation sigma below 0.4 its z-score passes float64's largest value
        preds = np.random.default_rng(0).normal(size=(4, 3, 4, 2))
        preds[1, :2, 2, 0] = 9e153, -9e153
        preds[1, 2, 2, 0] = 0.0
        test = ForecastCube(preds, range(4), range(20, 24), ("m0", "m1", "m2"))
        result = self.run_score(tmp_path, test, ensembles(scale=0.1, seed=1))
        self.assert_overflow(result, f"{tmp_path / 'test.csv'}: window 1: the score at step 3")
        assert not (tmp_path / "scores.csv").exists()

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
        # implies is far larger than the file could fill, so that record is refused
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
            f"error[validation]: {path}: record 1: cell window=0 member='m0' step=1000000000000 "
            "variable=0 would make the grid 1 windows x 1 members x 1000000000000 steps x "
            f"1 variables, more cells than the {path.stat().st_size // 10} records this file "
            "has room for\n")

    @pytest.mark.parametrize("edit, message", [
        ("duplicate", "record 97: duplicate cell window=0 member='m0' step=1 variable=0 "
                      "(first seen at record 1)"),
        ("nan", "non-finite prediction in window 2, member 'm0'"),
    ])
    def test_record_error_names_its_file(self, tmp_path, edit, message):
        # score reads two record files: the message says which one is bad
        result = self.run_score(tmp_path, ensembles(), ensembles(seed=1), ext="ndjson")
        assert result.exit_code == 0, result.output
        valid = tmp_path / "valid.ndjson"
        lines = valid.read_text().splitlines()
        if edit == "duplicate":
            lines.append(lines[0])
        else:
            record = json.loads(lines[50])  # window 2
            record["value"] = float("nan")
            lines[50] = json.dumps(record)
        valid.write_text("\n".join(lines) + "\n")
        result = CliRunner().invoke(cli, ["score", str(tmp_path / "test.ndjson"), str(valid),
                                          str(tmp_path / "scores.csv")])
        assert result.exit_code == 2, result.output
        assert result.output == f"error[validation]: {valid}: {message}\n"

    @pytest.mark.parametrize("do_normalize", ["--normalize", "--no-normalize"])
    @pytest.mark.parametrize("eps_sigma", ["inf", "nan", "0", "-1"])
    def test_eps_sigma_must_be_finite_and_positive(self, tmp_path, eps_sigma, do_normalize):
        # inf used to exit 0 with every score 0, nan to fail on the first score
        # with a misleading message, and -1 to pass unchecked under --no-normalize
        result = self.run_score(tmp_path, ensembles(), ensembles(seed=1),
                                "--eps-sigma", eps_sigma, do_normalize)
        self.assert_rejected(result, f"eps_sigma must be finite and > 0, got {float(eps_sigma)}")
        assert not (tmp_path / "scores.csv").exists()

    def test_negative_window_origin(self, tmp_path):
        # origins -3 and -2 would write to indices -2 and -1: the end of the timeline
        result = self.run_score(tmp_path, ensembles(windows=2, origin=-3), ensembles(seed=1),
                                "--length", "10", ext="ndjson")
        self.assert_rejected(result, "window origins must be >= 0, got -3")
        assert not (tmp_path / "scores.csv").exists()


class TestSynthConfigFields:
    @pytest.mark.parametrize("config,message", [
        ([1, 2], "cfg.json: must be a JSON object, got list"),
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

    @pytest.mark.parametrize("parents,key,value,message", [
        ((), "obs_noise_sd", 0.5, "unknown synth config key 'obs_noise_sd'"),
        (("variables", 0), "amplitud", 9, "unknown synth config key 'amplitud'"),
        (("anomalies", 0), "lenght", 5, "unknown synth config key 'lenght'"),
        (("precursor",), "lenght", 5, "unknown synth config key 'lenght'"),
        (("variables", 1), "coef", 1.5, "ar1 coefficient must lie in (-1, 1) for stationarity"),
        (("variables", 1), "noise_std", -1, "ar1 noise_std must be >= 0"),
        (("anomalies", 0), "start", -1, "anomaly needs start >= 0 and length >= 1"),
        (("precursor",), "lead", 0, "precursor lead and length must be >= 1"),
        (("precursor",), "noise_inflation", 0.5, "noise_inflation must be >= 1"),
        ((), "length", 0, "length must be >= 1"),
        ((), "variables", [], "need at least one variable"),
        ((), "obs_noise_std", -1, "obs_noise_std must be >= 0"),
    ], ids=["unknown-top-level", "unknown-variable", "unknown-anomaly", "unknown-precursor",
            "coef", "noise_std", "start", "lead", "noise_inflation", "length", "variables",
            "obs_noise_std"])
    def test_field_refused_by_name(self, tmp_path, parents, key, value, message):
        # a misspelt optional key was ignored, and its field silently took its default
        cfg = json.loads(json.dumps(SYNTH_CFG))
        node = cfg
        for part in parents:
            node = node[part]
        node[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(cli, ["synth", str(tmp_path / "d"), "--config", str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert result.output == f"error[validation]: {message}\n"
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("path,value", [
        (("variables", 0, "phase"), "inf"),
        (("variables", 0, "amplitude"), "nan"),
        (("obs_noise_std",), "nan"),
        (("precursor", "drift_magnitude"), "inf"),
        (("variables", 0, "period"), "inf"),
        (("variables", 1, "coef"), "-inf"),
        (("anomalies", 0, "magnitude"), float("inf")),  # written as the JSON Infinity
    ], ids=["phase", "amplitude", "obs_noise_std", "drift_magnitude", "period", "coef",
            "json-infinity"])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_float_rejected(self, tmp_path, path, value):
        # the first four used to end in "non-finite value in row N", which names
        # no field, most after a numpy RuntimeWarning; period inf wrote a flat sine
        cfg = json.loads(json.dumps(SYNTH_CFG))
        *parents, key = path
        node = cfg
        for part in parents:
            node = node[part]
        node[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(cli, ["synth", str(tmp_path / "d"), "--config", str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert result.output == (
            f"error[validation]: synth config {key!r}: must be finite, got {float(value)}\n")
        assert not (tmp_path / "d").exists()


class TestUnreadableInputs:
    """A file that is not UTF-8, or JSON that is malformed or has the wrong
    shape, is a one-line validation error naming the file; each of these used
    to end in a traceback (exit 1)."""

    @staticmethod
    def assert_rejected(result, message):
        assert result.exit_code == 2, result.output
        assert result.output.count("\n") == 1 and result.output.startswith("error[validation]: ")
        assert message in result.output, result.output

    def test_table(self, tmp_path):
        scores, labels = tmp_path / "scores.csv", tmp_path / "labels.csv"
        scores.write_bytes(b"timestamp,score,lead_time\n0,0.5,1\n1,0.\xff,1\n")
        labels.write_text("timestamp,label\n0,0\n1,1\n")
        result = CliRunner().invoke(cli, ["detect", str(scores), str(labels),
                                          str(tmp_path / "d.csv")])
        self.assert_rejected(result, "scores.csv: not UTF-8 text: byte 0xff")

    @pytest.mark.parametrize("ext", ["csv", "ndjson"])
    @pytest.mark.parametrize("last", [False, True], ids=["first-record", "last-record"])
    def test_forecast_records(self, tmp_path, ext, last):
        # the last record lies past the first block read: numpy's parser meets the byte
        test_path, valid_path = tmp_path / f"test.{ext}", tmp_path / f"valid.{ext}"
        write_forecast_records(test_path, ensembles(windows=200))
        write_forecast_records(valid_path, ensembles(seed=1))
        data = test_path.read_bytes()
        at = data.rindex(b"m2") if last else data.index(b"m0")
        test_path.write_bytes(data[:at + 1] + b"\xff" + data[at + 2:])
        result = CliRunner().invoke(cli, ["score", str(test_path), str(valid_path),
                                          str(tmp_path / "scores.csv")])
        self.assert_rejected(result, f"test.{ext}: not UTF-8 text: byte 0xff")

    def test_synth_config_bytes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(json.dumps(SYNTH_CFG).encode()[:-1] + b', "\xff": 1}')
        result = CliRunner().invoke(cli, ["synth", str(tmp_path / "d"), "--config", str(cfg)])
        self.assert_rejected(result, "cfg.json: not UTF-8 text: byte 0xff")

    def test_synth_config_not_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SYNTH_CFG)[:-1])
        result = CliRunner().invoke(cli, ["synth", str(tmp_path / "d"), "--config", str(cfg)])
        self.assert_rejected(result, "cfg.json: not valid JSON")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("text, message", [
        ('{"ptapr": ', "evaluation.json: not valid JSON"),
        ("[1, 2]", "evaluation.json: must be a JSON object, got list"),
        ('{"ptapr": [1]}', "evaluation.json: ptapr.curve is not four equally long lists"),
        ('{"ptapr": {"curve": {"theta": [0, 1], "ptap": [1, 1], "f1": [1, 1]}}}',
         "evaluation.json: ptapr.curve is not four equally long lists"),
        ('{"ptapr": {"curve": {"theta": [0, 1], "ptar": [1], "ptap": [1, 1], "f1": [1, 1]}}}',
         "evaluation.json: ptapr.curve is not four equally long lists"),
        ('{"ptapr": {"curve": {"theta": 0, "ptar": 1, "ptap": 1, "f1": 1}}}',
         "evaluation.json: ptapr.curve is not four equally long lists"),
        ('{"ptapr": {"curve": {"theta": ["a"], "ptar": [1], "ptap": [1], "f1": [1]}}}',
         "evaluation.json: ptapr.curve is not four equally long lists"),
        ('{"ptapr": {"curve": {"theta": ["0.5"], "ptar": [1], "ptap": [1], "f1": [1]}}}',
         "lists of numbers ('theta', 'ptar', 'ptap', 'f1') (not a number: '0.5')"),
        ('{"ptapr": {"curve": {"theta": [0], "ptar": [true], "ptap": [1], "f1": [1]}}}',
         "(not a number: True)"),
        ('{"ptapr": {"curve": {"theta": "ab", "ptar": "cd", "ptap": "ef", "f1": "gh"}}}',
         "(not a number: 'a')"),
    ], ids=["not-json", "list", "ptapr-not-object", "no-ptar", "ragged", "scalars", "string",
            "numeric-string", "bool", "text-columns"])
    def test_report_evaluation(self, tmp_path, text, message):
        (tmp_path / "evaluation.json").write_text(text)
        result = CliRunner().invoke(cli, ["report", str(tmp_path)])
        self.assert_rejected(result, message)
        assert not (tmp_path / "plot_theta_curve.csv").exists()

    def test_report_reads_null_curve_points_as_nan(self, tmp_path):
        # write_json stores NaN as null; the curve still reads back
        (tmp_path / "evaluation.json").write_text(
            '{"ptapr": {"curve": {"theta": [0, 1], "ptar": [0.5, null], '
            '"ptap": [1, 1], "f1": [0.25, 1]}}}')
        result = CliRunner().invoke(cli, ["report", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "plot_theta_curve.csv").read_text().splitlines() == [
            "theta,ptar,ptap,f1", "0,0.5,1,0.25", "1,nan,1,1"]
