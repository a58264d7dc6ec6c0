"""Metrics: treatment-effect bias, counterfactual MSE over a do-grid, each
mode's headline metric, first-layer attribution, replication aggregation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import datagen as dg
from .model import NETWORK_OF, SD2Model, predict_outcome


def eps_ate(model: SD2Model, dataset: dg.GeneratedDataset) -> float:
    """Absolute bias of the average treatment effect.

    Ground truth is mean(p1 - p0): outcome probabilities for synthetic data,
    co-twin outcomes for twin records.  The estimate substitutes do-values
    into the outcome head.
    """
    if model.config.mode != "binary" or dataset.mode != "binary":
        raise ValueError("eps_ate applies to binary mode")
    truth = dg.true_ate(dataset)
    x = dataset.covariates()
    predicted = predict_outcome(model, x, 1.0) - predict_outcome(model, x, 0.0)
    return float(abs(truth - predicted.mean()))


GRID_POINTS = 10
GRID_CENTRAL_MASS = 0.90


def default_grid(t: np.ndarray) -> np.ndarray:
    """GRID_POINTS equispaced do-values over the central GRID_CENTRAL_MASS of t."""
    tail = (1.0 - GRID_CENTRAL_MASS) / 2.0
    lo, hi = np.quantile(t, [tail, 1.0 - tail])
    return np.linspace(lo, hi, GRID_POINTS)


def counterfactual_mse(model: SD2Model, dataset: dg.GeneratedDataset,
                       t_grid: np.ndarray | None = None) -> float:
    """Mean squared error of predicted vs true counterfactual surface over a
    grid of do-values."""
    if model.config.mode != "continuous" or dataset.mode != "continuous":
        raise ValueError("counterfactual_mse applies to continuous mode")
    if not dataset.has_ground_truth:
        raise ValueError("dataset carries no counterfactual surface")
    grid = default_grid(dataset.t) if t_grid is None else np.asarray(t_grid, dtype=np.float64)
    x = dataset.covariates()
    err = 0.0
    for tv in np.atleast_1d(grid):
        predicted = predict_outcome(model, x, float(tv))
        err += float(np.mean((predicted - dataset.surface(float(tv))) ** 2))
    return err / len(np.atleast_1d(grid))


class Metric(NamedTuple):
    """A mode's headline metric: the name reports give it and its scorer."""
    name: str
    score: Callable[[SD2Model, dg.GeneratedDataset], float]


METRICS = {"binary": Metric("eps_ate", eps_ate),
           "continuous": Metric("mse", counterfactual_mse)}


@dataclass
class AttributionReport:
    """Per factor: mean |first-layer weight| over matching vs other columns."""
    true_mean: dict[str, float]
    other_mean: dict[str, float]

    def ratio(self, factor: str) -> float:
        """Own over other columns: inf when only the own columns are read,
        nan when none is (an all-zero first layer, a dead encoder)."""
        true, other = self.true_mean[factor], self.other_mean[factor]
        if other > 0:
            return true / other
        return np.inf if true > 0 else np.nan

    def min_ratio(self) -> float:
        """The smallest ratio, or nan when any encoder reads no column."""
        ratios = [self.ratio(f) for f in dg.ROLES]
        return np.nan if any(np.isnan(ratios)) else min(ratios)

    def rows(self) -> list[dict]:
        return [{"factor": f, "true_slice_mean": self.true_mean[f],
                 "other_slice_mean": self.other_mean[f], "ratio": self.ratio(f)}
                for f in dg.ROLES]


def attribution(model: SD2Model, roles: list[str]) -> AttributionReport:
    """Group each encoder's first-layer |weights| by whether the input column
    belongs to the encoder's target factor."""
    if len(roles) != model.config.input_dim:
        raise ValueError(f"got {len(roles)} roles for input_dim {model.config.input_dim}")
    roles_arr = np.asarray(roles)
    true_mean, other_mean = {}, {}
    for factor in dg.ROLES:
        w = np.abs(model.params[NETWORK_OF[f"r_{factor}"] + ".l0.W"])  # (input_dim, width)
        mask = roles_arr == factor
        if not mask.any() or mask.all():
            raise ValueError(f"roles must contain some and not all {factor!r} columns")
        true_mean[factor] = float(w[mask].mean())
        other_mean[factor] = float(w[~mask].mean())
    return AttributionReport(true_mean, other_mean)


def aggregate(values: list[float]) -> tuple[float, float, str]:
    """Mean, population standard deviation, and the table-style 'm(s)' text."""
    if not values:
        raise ValueError("aggregate needs at least one value")
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=0))
    return mean, std, f"{mean:.3f}({std:.3f})"
