"""Reference estimators on a (train, test) pair, in plain numpy: the measuring
stick SD²'s metrics are read against, not a product.

Binary mode gives average-effect estimates, scored as ε_ATE against the test
set's `datagen.true_ate`: the naive difference in means and least squares per
arm on [1, x] (OLS-2, Shalit et al. 2017).

Continuous mode gives surfaces, ``predict(g)`` being each test row's outcome
at do(t = g), scored by `cf_mse` as `evaluation.counterfactual_mse` scores a
model: least squares on [1, s, .., s⁴] ⊗ [1, x] with s = t − 25; the exact
E[y|t,x] of `datagen.gen_continuous`; and the control function (Newey, Powell
& Vella 1999), which is told the columns' roles that SD² has to learn, so it
is a ceiling, not a rival.
"""

import numpy as np

from sd2 import datagen as dg
from sd2 import evaluation as ev


def _fit(features: np.ndarray, target: np.ndarray) -> np.ndarray:
    return np.linalg.lstsq(features, target, rcond=None)[0]


def _affine(x: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones(len(x)), x])


def _poly(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """[1, s, .., s⁴] ⊗ [1, x] per row, s = t − 25."""
    s = (np.asarray(t, dtype=np.float64) - 25.0)[:, None]
    return np.concatenate([_affine(x) * s ** k for k in range(5)], axis=1)


def naive_ate(train: dg.GeneratedDataset) -> float:
    return float(train.y[train.t == 1].mean() - train.y[train.t == 0].mean())


def ols_per_arm_ate(train: dg.GeneratedDataset, test: dg.GeneratedDataset) -> float:
    """Each arm's least squares of y on [1, x], their difference averaged over test."""
    x = train.covariates()
    arms = [_affine(test.covariates()) @ _fit(_affine(x[train.t == t]), train.y[train.t == t])
            for t in (1, 0)]
    return float((arms[0] - arms[1]).mean())


def cf_mse(predict, test: dg.GeneratedDataset) -> float:
    """Mean squared miss of predict(g) against the true surface over the grid."""
    grid = ev.default_grid(test.t)
    return float(np.mean([np.mean((predict(g) - test.surface(g)) ** 2) for g in grid]))


def ols_surface(train: dg.GeneratedDataset, test: dg.GeneratedDataset):
    coef = _fit(_poly(train.t, train.covariates()), train.y)
    x = test.covariates()
    return lambda g: _poly(np.full(len(x), g), x) @ coef


def conditional_mean_surface(test: dg.GeneratedDataset):
    """E[y|t=g,x]: u and the treatment noise are unit normals, so E[2u|t,x] is
    t − 25 − (1+α)Σz − Σc, which the surface misses the truth by."""
    roles = np.asarray(test.input_roles())
    sum_z, sum_c = (test.covariates()[:, roles == role].sum(1) for role in "zc")
    offset = 25.0 + (1.0 + test.spec["alpha"]) * sum_z + sum_c
    return lambda g: test.surface(g) + g - offset


def control_function_surface(train: dg.GeneratedDataset, test: dg.GeneratedDataset):
    """y on the c and a columns' polynomial features plus the first stage's
    residual of t on [1, x], predicted with that residual at 0."""
    def confounders_and_adjusters(ds):
        return ds.covariates()[:, np.isin(ds.input_roles(), ("c", "a"))]
    first = _affine(train.covariates())
    residual = train.t - first @ _fit(first, train.t)
    coef = _fit(np.column_stack([_poly(train.t, confounders_and_adjusters(train)), residual]),
                train.y)[:-1]
    x = confounders_and_adjusters(test)
    return lambda g: _poly(np.full(len(x), g), x) @ coef
