"""Domain-preserving simulation toolkit for the stochastic SIS epidemic model."""

from .model import ModelParams, PreconditionError, RegimeReport, regime_report
from .schemes import SchemeParams
from .analysis import ErrorTable, RateFit, fit_rate, strong_error

__version__ = "0.1.0"

__all__ = [
    "ErrorTable",
    "ModelParams",
    "PreconditionError",
    "RateFit",
    "RegimeReport",
    "SchemeParams",
    "fit_rate",
    "regime_report",
    "strong_error",
    "__version__",
]
