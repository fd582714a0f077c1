"""Deterministic synthetic multivariate series with injected precursors.

The generator draws from a seeded PCG64 stream (numpy's documented default
bit generator), so identical configs reproduce byte-identical series. Draw
order: per variable, the train noise first, then the test noise.

A precursor is realized as a low-magnitude linear drift plus inflated noise
in the steps leading up to its anomaly: subtle enough that point-wise
detectors miss it, but disruptive enough that heterogeneous forecasters
start disagreeing.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from poakit.core import (
    LabelSequence, Segment, TimeSeries, ValidationError, allocatable, strict_float, strict_int,
)

ANOMALY_KINDS = ("spike", "level_shift", "variance_burst")


@dataclass(frozen=True)
class SineBase:
    amplitude: float
    period: float
    phase: float = 0.0

    def __post_init__(self):
        if self.period <= 0:
            raise ValidationError("sine period must be > 0")


@dataclass(frozen=True)
class Ar1Base:
    coef: float
    noise_std: float

    def __post_init__(self):
        if not -1.0 < self.coef < 1.0:
            raise ValidationError("ar1 coefficient must lie in (-1, 1) for stationarity")
        if self.noise_std < 0:
            raise ValidationError("ar1 noise_std must be >= 0")


@dataclass(frozen=True)
class AnomalySpec:
    start: int
    length: int
    kind: str
    magnitude: float

    def __post_init__(self):
        if self.kind not in ANOMALY_KINDS:
            raise ValidationError(f"anomaly kind must be one of {ANOMALY_KINDS}")
        if self.start < 0 or self.length < 1:
            raise ValidationError("anomaly needs start >= 0 and length >= 1")

    @property
    def end(self) -> int:
        return self.start + self.length - 1


@dataclass(frozen=True)
class PrecursorSpec:
    """Precursor geometry: starts ``lead`` steps before each anomaly onset.

    With length == lead (the default pairing) the region ends right at
    onset - 1; length < lead leaves a quiet gap before the anomaly.
    """

    lead: int = 20
    length: int = 20
    drift_magnitude: float = 1.0
    noise_inflation: float = 2.0

    def __post_init__(self):
        if self.lead < 1 or self.length < 1:
            raise ValidationError("precursor lead and length must be >= 1")
        if self.length > self.lead:
            raise ValidationError("precursor length must not exceed its lead")
        if self.noise_inflation < 1.0:
            raise ValidationError("noise_inflation must be >= 1")


@dataclass(frozen=True)
class SynthConfig:
    length: int
    variables: tuple
    anomalies: tuple[AnomalySpec, ...] = ()
    precursor: PrecursorSpec | None = None
    obs_noise_std: float = 0.05
    seed: int = 42

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "anomalies", tuple(self.anomalies))
        if self.length < 1:
            raise ValidationError("length must be >= 1")
        if not self.variables:
            raise ValidationError("need at least one variable")
        for base in self.variables:
            if not isinstance(base, (SineBase, Ar1Base)):
                raise ValidationError(f"unknown base signal {base!r}")
        if self.obs_noise_std < 0:
            raise ValidationError("obs_noise_std must be >= 0")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        regions = []
        for a in self.anomalies:
            if a.end >= self.length:
                raise ValidationError(f"anomaly {a} exceeds series length {self.length}")
            regions.append((a.start, a.end, f"anomaly@{a.start}"))
            if self.precursor is not None:
                start = a.start - self.precursor.lead
                if start < 0:
                    raise ValidationError(
                        f"precursor of anomaly@{a.start} starts before the series; "
                        f"move the anomaly later"
                    )
                end = start + self.precursor.length - 1
                regions.append((start, end, f"precursor@{start}"))
        regions.sort()
        for (s1, e1, n1), (s2, e2, n2) in zip(regions, regions[1:]):
            if s2 <= e1:
                raise ValidationError(f"injected regions overlap: {n1} and {n2}")

    def precursor_segments(self) -> list[Segment]:
        if self.precursor is None:
            return []
        return [
            Segment(a.start - self.precursor.lead, self.precursor.length)
            for a in self.anomalies
        ]


def _field(raw: dict, key: str, parse, default=MISSING):
    """``raw[key]`` read by ``parse``; a missing or mistyped value is a
    ValidationError naming the key."""
    if key not in raw and default is MISSING:
        raise ValidationError(f"synth config is missing {key!r}")
    try:
        return parse(raw.get(key, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"synth config {key!r}: {exc}") from None


def _check_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _objects(data: dict, key: str) -> list[dict]:
    """``data[key]``, a list of JSON objects (empty when absent)."""
    items = data.get(key, [])
    if not isinstance(items, list):
        raise ValidationError(f"synth config {key!r} must be a list, got {type(items).__name__}")
    return [_check_object(item, f"each synth config {key!r} entry") for item in items]


def _finite_float(value) -> float:
    number = strict_float(value)
    if not math.isfinite(number):
        raise ValueError(f"must be finite, got {number}")
    return number


# Number readers by field annotation (a string, under `from __future__ import annotations`).
_PARSERS = {"int": strict_int, "float": _finite_float}
_KINDS = {"sine": SineBase, "ar1": Ar1Base}


def _from_json(cls, raw: dict, **given):
    """``cls`` built from its JSON object ``raw``: each field not ``given``
    is read, in declaration order, by its annotation's parser, and takes its
    default when the key is absent. A key that names no field is refused, so
    that a misspelt optional key does not silently leave its default."""
    names = {f.name for f in fields(cls)}
    for key in raw:
        if key not in names:
            raise ValidationError(f"unknown synth config key {key!r}")
    for f in fields(cls):
        if f.name not in given:
            given[f.name] = _field(raw, f.name, _PARSERS[f.type], f.default)
    return cls(**given)


def config_from_dict(data: dict) -> SynthConfig:
    """Build a config from its JSON form (the schema `config_to_dict` writes).

    Integer fields refuse floats and bools, and float fields refuse bools and
    non-finite values, rather than truncating or coercing them.
    """
    _check_object(data, "synth config")
    variables = []
    for raw in _objects(data, "variables"):
        kind = raw.get("kind")
        if not isinstance(kind, str) or kind not in _KINDS:  # a list or dict is unhashable
            raise ValidationError(f"unknown variable kind {kind!r} in synth config")
        variables.append(_from_json(_KINDS[kind], {k: v for k, v in raw.items() if k != "kind"}))
    anomalies = [_from_json(AnomalySpec, a, kind=a.get("kind"))
                 for a in _objects(data, "anomalies")]
    precursor = None
    if data.get("precursor") is not None:
        p = _check_object(data["precursor"], "synth config 'precursor'")
        # an absent length defaults to the lead, not to the field's default
        precursor = _from_json(PrecursorSpec, {"length": p.get("lead", PrecursorSpec.lead), **p})
    return _from_json(SynthConfig, data, variables=variables, anomalies=anomalies,
                      precursor=precursor)


def config_to_dict(cfg: SynthConfig) -> dict:
    """JSON form of a config, as recorded in the synth manifest."""
    kind_of = {cls: kind for kind, cls in _KINDS.items()}
    out = asdict(cfg)
    out["variables"] = [{"kind": kind_of[type(base)], **asdict(base)} for base in cfg.variables]
    out["anomalies"] = list(out["anomalies"])
    if cfg.precursor is None:
        del out["precursor"]
    return out


def default_config(seed: int = 42) -> SynthConfig:
    """Desk-scale benchmark: 5000 steps, 3 variables, 6 anomalies with
    20-step precursors (noise inflation 2x)."""
    kinds = ("spike", "level_shift", "variance_burst")
    anomalies = tuple(
        AnomalySpec(start=700 * (i + 1), length=40, kind=kinds[i % 3], magnitude=0.8)
        for i in range(6)
    )
    return SynthConfig(
        length=5000,
        variables=(
            SineBase(amplitude=1.0, period=200.0),
            SineBase(amplitude=0.6, period=55.0, phase=1.3),
            Ar1Base(coef=0.9, noise_std=0.08),
        ),
        anomalies=anomalies,
        precursor=PrecursorSpec(lead=20, length=20, drift_magnitude=1.4, noise_inflation=2.0),
        obs_noise_std=0.05,
        seed=seed,
    )


def _noise_std_timeline(cfg: SynthConfig, base_std: float, with_injections: bool) -> np.ndarray:
    stds = np.full(cfg.length, base_std)
    if with_injections and cfg.precursor is not None:
        for seg in cfg.precursor_segments():
            stds[seg.start : seg.end + 1] *= cfg.precursor.noise_inflation
    return stds


def _base_signal(
    cfg: SynthConfig, base, rng: np.random.Generator, with_injections: bool
) -> np.ndarray:
    t = np.arange(cfg.length)
    obs_std = _noise_std_timeline(cfg, cfg.obs_noise_std, with_injections)
    if isinstance(base, SineBase):
        clean = base.amplitude * np.sin(2.0 * math.pi * t / base.period + base.phase)
        return clean + rng.normal(0.0, 1.0, cfg.length) * obs_std
    # AR(1): recursion with per-step process noise, then observation noise
    proc_std = _noise_std_timeline(cfg, base.noise_std, with_injections)
    shocks = rng.normal(0.0, 1.0, cfg.length) * proc_std
    x = np.empty(cfg.length)
    x[0] = shocks[0]
    for i in range(1, cfg.length):
        x[i] = base.coef * x[i - 1] + shocks[i]
    return x + rng.normal(0.0, 1.0, cfg.length) * obs_std


def generate(
    cfg: SynthConfig,
) -> tuple[TimeSeries, TimeSeries, LabelSequence, list[Segment]]:
    """Produce (train, test, labels, precursor_truth) for one config.

    The train series is clean; the test series carries the injected
    precursors and anomalies. Labels mark anomaly instances only; precursor
    ground truth is returned separately and is never part of the labels.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    T, c = cfg.length, len(cfg.variables)
    allocatable(T * c)
    train = np.empty((T, c))
    test = np.empty((T, c))
    for v, base in enumerate(cfg.variables):
        train[:, v] = _base_signal(cfg, base, rng, with_injections=False)
        test[:, v] = _base_signal(cfg, base, rng, with_injections=True)

    if cfg.precursor is not None:
        drift = cfg.precursor.drift_magnitude
        for seg in cfg.precursor_segments():
            ramp = np.linspace(0.0, drift, seg.length)
            test[seg.start : seg.end + 1, :] += ramp[:, None]

    labels = np.zeros(T, dtype=np.int8)
    for a in cfg.anomalies:
        sl = slice(a.start, a.end + 1)
        labels[sl] = 1
        if a.kind == "spike":
            signs = np.where(np.arange(a.length) % 2 == 0, 1.0, -1.0)
            test[sl, :] += a.magnitude * signs[:, None]
        elif a.kind == "level_shift":
            test[sl, :] += a.magnitude
        else:  # variance_burst
            test[sl, :] += rng.normal(0.0, a.magnitude, size=(a.length, c))

    names = tuple(f"v{v}" for v in range(c))
    ts = np.arange(T)
    return (
        TimeSeries(ts, train, names),
        TimeSeries(ts, test, names),
        LabelSequence(labels),
        cfg.precursor_segments(),
    )
