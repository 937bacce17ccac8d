"""Trend and switching-cycle extraction from a single time series.

The pipeline: delay-embed the observations, build a variable-bandwidth
Markov operator on the embedded cloud, eigendecompose it, and read
nonstationary trends and oscillatory modes off the spectrum.
"""

from .data import (
    FieldMask,
    NonuniformRecord,
    TimeSeries,
    anomalies,
    interpolate_uniform,
    load_benthic_fixture,
    load_field_stack,
    load_scalar_record,
    reverse_time,
    scatter_back,
)
from .embed import EmbeddedSeries, delay_embed, suggest_lag
from .models import ModelConfig, Trajectory, regime_mask, simulate
from .operator import (
    MarkovOperator,
    NumericalError,
    SpectralDecomposition,
    build_operator,
    eigendecompose,
)
from .spectral import (
    ModeReport,
    Projection,
    classify_modes,
    conjugate_closure,
    eigenperiod,
    project,
    regime_localization,
    trend_mode,
)

__version__ = "0.1.0"

__all__ = [
    "FieldMask",
    "NonuniformRecord",
    "TimeSeries",
    "anomalies",
    "interpolate_uniform",
    "load_benthic_fixture",
    "load_field_stack",
    "load_scalar_record",
    "reverse_time",
    "scatter_back",
    "EmbeddedSeries",
    "delay_embed",
    "suggest_lag",
    "ModelConfig",
    "Trajectory",
    "regime_mask",
    "simulate",
    "MarkovOperator",
    "NumericalError",
    "SpectralDecomposition",
    "build_operator",
    "eigendecompose",
    "ModeReport",
    "Projection",
    "classify_modes",
    "conjugate_closure",
    "eigenperiod",
    "project",
    "regime_localization",
    "trend_mode",
    "__version__",
]
