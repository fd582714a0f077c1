"""The one-line error contract, fuzzed: every input file of every stage, with one
field replaced, a line deleted, duplicated or swapped, the file cut short, or
one byte sequence that is not plain UTF-8 text inserted; and the numeric options
of the stages, each given one edge value.

Each example mutates one input or one option of a small pipeline run and runs
its stage in process. Whatever the input, the stage exits 0, or it exits 2, 3
or 4 with exactly one ``error[<category>]`` line, no warning, and no new file or
``.poakit-*`` directory left behind. A value an option's type refuses is
click's usage error instead, which ends in one ``Error: Invalid value`` line
naming the option.
"""

import random
import re
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

from poakit.cli import cli
from poakit.forecast import ingest_external_forecasts, write_forecast_records

CONFIG = """{
  "length": 600,
  "variables": [
    {"kind": "sine", "amplitude": 1.0, "period": 50.0, "phase": 0.0},
    {"kind": "ar1", "coef": 0.85, "noise_std": 0.08}
  ],
  "anomalies": [
    {"start": 200, "length": 40, "kind": "spike", "magnitude": 0.8},
    {"start": 400, "length": 40, "kind": "level_shift", "magnitude": 0.8}
  ],
  "precursor": {"lead": 15, "length": 15, "drift_magnitude": 0.8, "noise_inflation": 2.0},
  "obs_noise_std": 0.05,
  "seed": 3
}
"""

FORECAST_OPTIONS = ["--input-len", "30", "--horizon", "5", "--top-k", "3"]

# (stage, its arguments, the input files it reads): "{name}" is the run's file
# of that name, "{out}" the stage's output, which must not appear on failure
STAGES = {
    "split": (["split", "{train.csv}", "{out}"], ["train.csv"]),
    "forecast": (["forecast", "{train_part.csv}", "{valid_part.csv}", "{out}",
                  "--test", "{test.csv}", *FORECAST_OPTIONS],
                 ["train_part.csv", "valid_part.csv", "test.csv"]),
    "score-csv": (["score", "{test_forecasts.csv}", "{valid_forecasts.csv}", "{out}/scores.csv"],
                  ["test_forecasts.csv", "valid_forecasts.csv"]),
    "score-ndjson": (["score", "{test_forecasts.ndjson}", "{valid_forecasts.ndjson}",
                      "{out}/scores.csv"], ["test_forecasts.ndjson", "valid_forecasts.ndjson"]),
    "detect": (["detect", "{scores.csv}", "{labels.csv}", "{out}/detection.csv",
                "--grid-n", "16"], ["scores.csv", "labels.csv"]),
    "evaluate": (["evaluate", "{detection.csv}", "{labels.csv}", "{out}"],
                 ["detection.csv", "detection.csv.meta.json", "labels.csv"]),
    "sweep": (["sweep", "{detection.csv}", "{labels.csv}", "{out}/k_sweep.csv",
               "--param", "k", "--values", "0.1,0.001"], ["detection.csv", "labels.csv"]),
    "synth": (["synth", "{out}", "--config", "{cfg.json}"], ["cfg.json"]),
    "report": (["report", "{run}"], ["scores.csv", "labels.csv", "detection.csv",
                                     "detection.csv.meta.json", "evaluation.json"]),
}
# every stage reads its detection with the sidecar beside it
COMPANIONS = {"detection.csv": ["detection.csv.meta.json"]}

VALUES = [
    "", " ", "nan", "NaN", "inf", "-inf", "1e308", "-1e308", "1e100", "1e150", "1e999",
    "1e-320", "-0", "0", "-1", "2", "1.5", str(2**63), str(-2**63 - 1), "1_0", "0x10",
    "\x00", "١", '"', '"a\nb"', "x" * 200_000, "true", "null", "abc", "[]",
]
# a JSON value after its key: a string, or anything up to the next separator
JSON_VALUE = re.compile(r'(?<=": )("(?:[^"\\]|\\.)*"|[^,}\]\n]+)')
TARGETS = [(stage, name) for stage, (_, inputs) in STAGES.items() for name in inputs]
# seeds 0-14 of every target, and a corpus of later seeds that once reached a
# break: a 1e308 validation value (numpy's overflow warning before the error
# line), and a lone quote that read the rest of the file as one field, past
# csv's field size limit (a traceback)
EXAMPLES = [(*target, seed) for target in TARGETS for seed in range(15)] + [
    ("score-csv", "valid_forecasts.csv", 45), ("score-csv", "test_forecasts.csv", 51)]


# bytes inserted at a random offset: an invalid start byte, a lone lead byte,
# an encoded surrogate, a byte order mark and NUL
BYTES = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xef\xbb\xbf", b"\x00"]

METRIC_OPTIONS = ["--alpha", "--beta", "--gamma", "--delta", "--epsilon", "--k"]
# the numeric options of each stage, given one of OPTION_VALUES after the
# stage's own arguments
OPTIONS = {
    "split": ["--train-frac"],
    "forecast": ["--input-len", "--horizon", "--stride", "--top-k"],
    "score-csv": ["--length", "--eps-sigma"],
    "detect": METRIC_OPTIONS,
    "evaluate": [*METRIC_OPTIONS, "--theta", "--theta-grid", "--tapr-alpha"],
    "sweep": METRIC_OPTIONS,
    "synth": ["--seed"],
}
# no count here makes a stage allocate much: 2**61 and up are refused before
# anything is allocated, while 2**31 or 2**32 values would be allocated
OPTION_VALUES = ["0", "-1", "nan", "inf", "1e308", "1e-320", "0.5", "3.0", "1_0", "١",
                 str(2**61), str(2**63 - 1), str(2**63), str(10**20)]
# a seeded sample of every (stage, option, value); it holds detect and evaluate
# with --k 1e308, whose early-reward exponent once printed numpy's overflow warning
OPTION_EXAMPLES = random.Random("options").sample(
    [(stage, option, value) for stage, options in OPTIONS.items() for option in options
     for value in OPTION_VALUES], 150)


def _read(path: Path) -> str:
    with open(path, encoding="utf-8", newline="") as fh:  # line endings as written
        return fh.read()


def _invoke(args):
    result = CliRunner().invoke(cli, args)
    assert result.exit_code == 0, f"{args}: {result.output}"


@pytest.fixture(scope="module")
def run(tmp_path_factory) -> dict:
    """Every input file of the targets, as a name -> text map, from one
    600-row pipeline run."""
    root = tmp_path_factory.mktemp("contract")
    (root / "cfg.json").write_text(CONFIG)
    _invoke(["synth", str(root / "data"), "--config", str(root / "cfg.json")])
    _invoke(["split", str(root / "data/train.csv"), str(root / "parts")])
    _invoke(["forecast", str(root / "parts/train.csv"), str(root / "parts/valid.csv"),
             str(root / "fc"), "--test", str(root / "data/test.csv"), *FORECAST_OPTIONS])
    for split in ("test", "valid"):
        write_forecast_records(root / f"fc/{split}_forecasts.ndjson",
                               ingest_external_forecasts(root / f"fc/{split}_forecasts.csv"))
    _invoke(["score", str(root / "fc/test_forecasts.csv"), str(root / "fc/valid_forecasts.csv"),
             str(root / "run/scores.csv")])
    _invoke(["detect", str(root / "run/scores.csv"), str(root / "data/labels.csv"),
             str(root / "run/detection.csv"), "--grid-n", "16"])
    _invoke(["evaluate", str(root / "run/detection.csv"), str(root / "data/labels.csv"),
             str(root / "run")])
    files = {"cfg.json": root / "cfg.json", "train_part.csv": root / "parts/train.csv",
             "valid_part.csv": root / "parts/valid.csv"}
    for folder in ("data", "fc", "run"):
        files.update((path.name, path) for path in (root / folder).iterdir())
    return {name: _read(path) for name, path in files.items()}


def mutate(text: str, rng: random.Random, json_like: bool) -> str:
    """``text`` with one field replaced, one line deleted, duplicated or swapped
    with another, or cut short at a random character."""
    lines = text.splitlines(keepends=True)
    kind = rng.choice(["field"] * 4 + ["delete", "duplicate", "swap", "truncate"])
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(j, lines[i])
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "truncate":
        return text[:rng.randrange(len(text))]
    else:
        value = rng.choice(VALUES)
        spans = [m.span() for m in JSON_VALUE.finditer(lines[i])] if json_like else []
        if spans:
            lo, hi = rng.choice(spans)
            lines[i] = lines[i][:lo] + value + lines[i][hi:]
        else:
            end = len(lines[i].rstrip("\r\n"))
            fields = lines[i][:end].split(",")
            fields[rng.randrange(len(fields))] = value
            lines[i] = ",".join(fields) + lines[i][end:]
    return "".join(lines)


def _tree(root: Path) -> set:
    return {str(path.relative_to(root)) for path in root.rglob("*")}


def _stage_args(run, tmp_path, stage, target=None, mutated=b""):
    """The stage's arguments, its inputs written from ``run`` into
    ``tmp_path/run`` with ``target`` replaced by the ``mutated`` bytes."""
    template, inputs = STAGES[stage]
    work = tmp_path / "run"
    work.mkdir()
    for name in {*inputs, *(c for name in inputs for c in COMPANIONS.get(name, []))}:
        (work / name).write_bytes(mutated if name == target else run[name].encode())
    return [re.sub(r"\{([^}]+)\}", lambda m: str(
        {"out": tmp_path / "out", "run": work}.get(m[1], work / m[1])), arg) for arg in template]


def _assert_contract(tmp_path, args, option=None):
    """Run the stage: it exits 0, or with one error line and no new file."""
    before = _tree(tmp_path)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = CliRunner().invoke(cli, args)

    assert result.exception is None or isinstance(result.exception, SystemExit), (
        f"{args}: {result.output[-2000:]}")
    assert result.exit_code in (0, 2, 3, 4), result.output[-2000:]
    if result.exit_code:
        lines = result.output.splitlines()
        if option is not None and lines[0].startswith("Usage: "):  # click refused the value
            assert result.exit_code == 2, result.output
            assert lines[1:-1] == [f"Try 'cli {args[0]} --help' for help.", ""], result.output
            assert lines[-1].startswith(f"Error: Invalid value for '{option}': "), result.output
        else:
            assert len(lines) == 1 and lines[0].startswith("error["), result.output[-2000:]
        assert _tree(tmp_path) == before


@pytest.mark.parametrize("stage, target, seed", EXAMPLES,
                         ids=[f"{s}-{n}-{i}" for s, n, i in EXAMPLES])
def test_one_line_contract(run, tmp_path, stage, target, seed):
    rng = random.Random(f"{stage}:{target}:{seed}")
    mutated = mutate(run[target], rng, target.endswith((".json", ".ndjson")))
    _assert_contract(tmp_path, _stage_args(run, tmp_path, stage, target, mutated.encode()))


@pytest.mark.parametrize("stage, target", TARGETS, ids=[f"{s}-{n}" for s, n in TARGETS])
def test_inserted_bytes(run, tmp_path, stage, target):
    rng = random.Random(f"bytes:{stage}:{target}")
    data = run[target].encode()
    at = rng.randrange(len(data) + 1)
    mutated = data[:at] + rng.choice(BYTES) + data[at:]
    _assert_contract(tmp_path, _stage_args(run, tmp_path, stage, target, mutated))


@pytest.mark.parametrize("stage, option, value", OPTION_EXAMPLES,
                         ids=[f"{s}{o}={v}" for s, o, v in OPTION_EXAMPLES])
def test_option_values(run, tmp_path, stage, option, value):
    _assert_contract(tmp_path, [*_stage_args(run, tmp_path, stage), option, value], option)
