"""Machine-learning substrate built from scratch: CART regression trees,
least-squares gradient boosting (the paper's Boosted Decision Tree
Regression), the linear/Poisson baselines it was selected over, feature
encoding, error metrics (Eqs. 5-6) and the half/half validation protocol.
"""

from .boosting import BoostedDecisionTreeRegressor
from .dataset import (
    DEVICE_FEATURE_NAMES,
    HOST_FEATURE_NAMES,
    Dataset,
    encode_device_row,
    encode_host_row,
)
from .io import load_model, save_model
from .linear import LinearRegression
from .metrics import (
    DEVICE_ERROR_BINS,
    HOST_ERROR_BINS,
    ErrorHistogram,
    absolute_error,
    error_histogram,
    mean_absolute_error,
    mean_percent_error,
    percent_error,
)
from .poisson import PoissonRegressor
from .tree import RegressionTree
from .validation import EvalResult, half_split

__all__ = [
    "BoostedDecisionTreeRegressor",
    "DEVICE_FEATURE_NAMES",
    "HOST_FEATURE_NAMES",
    "Dataset",
    "encode_device_row",
    "encode_host_row",
    "LinearRegression",
    "load_model",
    "save_model",
    "DEVICE_ERROR_BINS",
    "HOST_ERROR_BINS",
    "ErrorHistogram",
    "absolute_error",
    "error_histogram",
    "mean_absolute_error",
    "mean_percent_error",
    "percent_error",
    "PoissonRegressor",
    "RegressionTree",
    "EvalResult",
    "half_split",
]
