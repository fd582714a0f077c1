"""Precursor-of-anomaly detection and segment-aware evaluation toolkit."""

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


def __getattr__(name: str):
    # The public types live in poakit.core, which imports numpy. Every
    # `poakit.<module>` import runs this file first, so they load on first use
    # (PEP 562): `poakit.cli` must set the BLAS thread count before numpy loads.
    if name in __all__:
        from poakit import core

        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
