"""Least-squares fits: the regressions of the ``fit`` command and of the
size-bias correction (:func:`residualize`).  Only ``fit`` and library
callers import this module; its public names are still found in
:mod:`.analysis` (PEP 562).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InputError


class RegressionFit(NamedTuple):
    slope: float
    slope_stderr: float
    slope_t: float
    intercept: float | None
    intercept_stderr: float | None
    intercept_t: float | None
    r: float
    n: int
    with_intercept: bool


def fit(x, y, with_intercept: bool = True) -> RegressionFit:
    """Ordinary least squares of y on x, with or without an intercept.

    Reports the classical standard errors and t statistics, plus the plain
    Pearson correlation of x and y.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise InputError("x and y must be one-dimensional and equally long")
    n = x.size
    if n < 3:
        raise InputError("need at least three points")
    r = _pearson(x, y)
    if with_intercept:
        sxx = float(np.sum((x - x.mean()) ** 2))
        if sxx == 0.0:
            raise InputError("x has zero variance")
        slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
        intercept = float(y.mean() - slope * x.mean())
        resid = y - slope * x - intercept
        sigma2 = float(np.sum(resid**2)) / (n - 2)
        slope_se = math.sqrt(sigma2 / sxx)
        int_se = math.sqrt(sigma2 * (1.0 / n + x.mean() ** 2 / sxx))
        return RegressionFit(
            slope, slope_se, _ratio(slope, slope_se),
            intercept, int_se, _ratio(intercept, int_se),
            r, n, True,
        )
    sxx = float(np.sum(x**2))
    if sxx == 0.0:
        raise InputError("x is identically zero")
    slope = float(np.sum(x * y) / sxx)
    resid = y - slope * x
    sigma2 = float(np.sum(resid**2)) / (n - 1)
    slope_se = math.sqrt(sigma2 / sxx)
    return RegressionFit(
        slope, slope_se, _ratio(slope, slope_se), None, None, None, r, n, False
    )


def _pearson(x, y) -> float:
    sx = float(np.std(x))
    sy = float(np.std(y))
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy))


def _ratio(a: float, b: float) -> float:
    if b == 0.0:
        return math.inf if a != 0.0 else 0.0
    return a / b


def residualize(y, log_n) -> np.ndarray:
    """Residuals of an intercept-included regression of y on log corpus size.

    Removes the approximately logarithmic size bias of small-sample entropy
    estimates; the residuals sum to zero.
    """
    y = np.asarray(y, dtype=np.float64)
    log_n = np.asarray(log_n, dtype=np.float64)
    if y.shape != log_n.shape or y.ndim != 1:
        raise InputError("vectors must be one-dimensional and equally long")
    if y.size < 3:
        raise InputError("need at least three points")
    if float(np.std(log_n)) == 0.0:
        raise InputError("log sizes have zero variance")
    design = np.column_stack([np.ones_like(log_n), log_n])
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    return y - design @ coeffs
