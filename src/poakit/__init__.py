"""Precursor-of-anomaly detection and segment-aware evaluation toolkit."""

from poakit.core import (
    DataFormatError,
    LabelSequence,
    NumericError,
    ScoreSeries,
    Segment,
    SegmentSet,
    TimeSeries,
    ValidationError,
)

__version__ = "0.1.0"

__all__ = [
    "DataFormatError",
    "LabelSequence",
    "NumericError",
    "ScoreSeries",
    "Segment",
    "SegmentSet",
    "TimeSeries",
    "ValidationError",
    "__version__",
]
