"""Per-layer tracing of the real CLI, from outside the library.

`instrument(tr)` swaps the poakit module references that `cli.py` and the
workload set-up code hold (`fc`, `pio`, `mx`, ...) for proxies whose public
functions record a span around each call. Only calls made through those
references are traced: calls from the CLI into a layer, including calls
from the CLI's own callbacks (detect's F1 callback), and the set-up's
library calls. Calls inside the library go straight to the module, so
per-segment helpers cost nothing extra. Everything is restored on exit.

`InProcessRunner` runs a `Stage` through `cli.cli.main` in this process,
inside a `stage.<name>` span, so each layer span is a child of the stage
that made the call. The tracer keeps one stack of open spans: stages run
with their default `--jobs 1`, in one thread.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import os
import time
import traceback
from pathlib import Path

import click

from poakit import cli
from poakit import core
from poakit import detect as detect_mod
from poakit import forecast as fc
from poakit import io as pio
from poakit import metrics as mx
from poakit import synth as synth_mod
from poakit import uncertainty as unc

import workloads
from workloads import Stage, StageRun

# layer name -> module; span names are "<layer>.<function>"
LAYERS = {"core": core, "synth": synth_mod, "io": pio, "forecast": fc,
          "uncertainty": unc, "detect": detect_mod, "metrics": mx}
# module-reference holders whose calls are traced
CALLERS = (cli, workloads)


def _records(ensembles) -> int:
    return sum(e.predictions.size for e in ensembles)


def _count_written(tr, args, result):
    tr.count("forecast.records_written", _records(args[1]))
    tr.count("forecast.bytes_written", Path(args[0]).stat().st_size)


def _count_read(tr, args, result):
    tr.count("forecast.records_read", _records(result))
    tr.count("forecast.bytes_read", Path(args[0]).stat().st_size)


def _count_windows(tr, args, result):
    tr.count("uncertainty.windows", len(args[0]))


def _count_candidates(tr, args, result):
    tr.count("detect.candidates", len(result))


def _count_pairs(tr, args, result):
    # the threshold search's segment pairs only, not evaluate's or sweep's
    if tr.inside("detect.best_f1_threshold"):
        tr.count("detect.segment_pairs", len(result.anomalies) * len(result.predictions))


# span name -> hook(tracer, args, result) that adds the call's input-size counts
COUNT_HOOKS = {
    "forecast.write_forecast_records": _count_written,
    "forecast.ingest_external_forecasts": _count_read,
    "uncertainty.score_timeline": _count_windows,
    "detect.default_grid": _count_candidates,
    "detect.split_precursor_prediction": _count_pairs,
}


def _traced(tr, name, func):
    hook = COUNT_HOOKS.get(name)

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with tr.span(name):
            result = func(*args, **kwargs)
        if hook is not None:
            hook(tr, args, result)
        return result

    return wrapper


class _LayerProxy:
    """A module whose public functions are traced; other names pass through."""

    def __init__(self, layer, module, tr):
        self._module = module
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                setattr(self, name, _traced(tr, f"{layer}.{name}", obj))

    def __getattr__(self, name):
        return getattr(self._module, name)


@contextlib.contextmanager
def instrument(tr):
    proxies = {id(m): _LayerProxy(layer, m, tr) for layer, m in LAYERS.items()}
    swapped = [(holder, name, value) for holder in CALLERS
               for name, value in vars(holder).items() if id(value) in proxies]
    for holder, name, value in swapped:
        setattr(holder, name, proxies[id(value)])
    try:
        yield
    finally:
        for holder, name, value in swapped:
            setattr(holder, name, value)


class InProcessRunner:
    """`StageRunner` for the traced run: the stage runs `cli.cli.main` here,
    with `work` as the working directory. Peak RSS is not measured."""

    def __init__(self, work: Path, tr):
        self.work = work
        self.tr = tr

    def run(self, stage: Stage) -> StageRun:
        log = io.StringIO()
        cwd = os.getcwd()
        t0 = time.perf_counter()
        with (self.tr.span(f"stage.{stage.name}"), contextlib.redirect_stdout(log),
              contextlib.redirect_stderr(log)):
            os.chdir(self.work)
            try:
                cli.cli.main(stage.args, prog_name="poakit", standalone_mode=False)
                exit_code = 0
            except click.ClickException as exc:
                exc.show()
                exit_code = exc.exit_code
            except click.exceptions.Exit as exc:
                exit_code = exc.exit_code
            except Exception:  # the stage fails; the run goes on to report it
                traceback.print_exc()
                exit_code = 1
            finally:
                os.chdir(cwd)
        wall = time.perf_counter() - t0
        missing = [p for p in stage.outputs
                   if not (self.work / p).is_file() or (self.work / p).stat().st_size == 0]
        return StageRun(stage.name, wall, 0.0, exit_code, log.getvalue()[-2000:], missing)
