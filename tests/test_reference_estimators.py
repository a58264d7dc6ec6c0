"""The reference estimators of ``reference_estimators`` give hand-computed
values on small built sets, and on the demand benchmark the control function,
told the roles, scores below the exact E[y|t,x] level that hidden confounding
leaves to any method reading only (t, x)."""

import numpy as np
import pytest

import reference_estimators as R
from sd2 import datagen as dg


def _binary(x, t, y) -> dg.GeneratedDataset:
    x = np.asarray(x, dtype=np.float64).reshape(len(t), -1)
    return dg.GeneratedDataset(mode="binary", x=x, v=np.zeros((len(t), 0)),
                               t=np.asarray(t, dtype=np.float64),
                               y=np.asarray(y, dtype=np.float64), roles=["c"] * x.shape[1])


def _continuous(x, t, y=None, roles=("z", "c"), alpha=0.0) -> dg.GeneratedDataset:
    """A demand-mode set whose surface terms are the c and a columns' sums."""
    x, roles = np.asarray(x, dtype=np.float64), list(roles)
    sums = {role: x[:, np.asarray(roles) == role].sum(1) for role in "ca"}
    return dg.GeneratedDataset(mode="continuous", x=x, v=np.zeros((len(t), 0)),
                               t=np.asarray(t, dtype=np.float64),
                               y=np.zeros(len(t)) if y is None else y, roles=roles,
                               surface_a=sums["a"], surface_c=sums["c"], beta=1.0,
                               spec={"kind": "demand", "alpha": alpha})


def test_naive_ate_is_the_difference_in_means():
    assert R.naive_ate(_binary([0, 1, 2, 3], t=[1, 1, 0, 0], y=[1, 0, 0, 0])) == 0.5


def test_ols_per_arm_recovers_linear_arms():
    # binary outcomes at two x values per arm, so each arm's line passes through
    # its two means: treated 1 - x/4 and control x/2, so the effect at x is 1 - 3x/4
    x = np.array([0.0, 0.0, 2.0, 2.0, 0.0, 0.0, 2.0, 2.0])
    t = np.array([1, 1, 1, 1, 0, 0, 0, 0])
    train = _binary(x, t, [1, 1, 0, 1, 0, 0, 1, 1])
    assert R.ols_per_arm_ate(train, _binary([0, 1], [1, 0], [0, 0])) == pytest.approx(0.625)


def test_cf_mse_is_the_mean_squared_miss():
    test = _continuous([[1.0, 0.0], [0.0, 1.0]], t=[24.0, 26.0])
    assert R.cf_mse(test.surface, test) == 0.0
    assert R.cf_mse(lambda g: test.surface(g) + 1.5, test) == pytest.approx(2.25)


def test_ols_surface_recovers_a_polynomial_surface():
    s, x = np.meshgrid(np.linspace(-2.0, 2.0, 6), [-1.0, 0.0, 1.0, 2.0, 3.0])
    s, x = s.ravel(), x.ravel()
    train = _continuous(x[:, None], 25.0 + s, (s ** 2 - 3 * s) * (1 + x) + 4, roles="c")
    predict = R.ols_surface(train, _continuous([[0.0], [1.0]], [24.0, 26.0], roles="c"))
    # s = 2: (4 - 6)(1 + x) + 4 is 2 at x = 0 and 0 at x = 1
    assert predict(27.0) == pytest.approx([2.0, 0.0], abs=1e-9)


@pytest.mark.parametrize("alpha, level", [(0.0, 1.33), (1.0, 2.83)])
def test_conditional_mean_level(alpha, level):
    # default_grid spans 24.1 .. 25.9; row 0 misses by g - 25 - (1+alpha) and
    # row 1 by g - 26. The mean of (0.1 k)^2 over odd k in 1..19 is 1.33, and
    # over odd k in 11..29 it is 4.33, so alpha = 1 gives (4.33 + 1.33) / 2
    test = _continuous([[1.0, 0.0], [0.0, 1.0]], t=[24.0, 26.0], alpha=alpha)
    assert R.cf_mse(R.conditional_mean_surface(test), test) == pytest.approx(level)


def test_conditional_mean_is_exact_on_generated_data():
    """y minus the exact E[y|t,x] at the factual t has mean 0 and is
    uncorrelated with t."""
    ds = dg.generate(dg.DemandSpec(n=4000, alpha=1.0, seed=3))
    residual = ds.y - R.conditional_mean_surface(ds)(ds.t)
    assert abs(residual.mean()) < 0.1
    assert abs(np.corrcoef(residual, ds.t)[0, 1]) < 0.05


def test_control_function_recovers_the_structural_surface():
    rows = np.random.default_rng(0).normal(size=(40, 4))
    x, noise = rows[:, :3], rows[:, 3]
    first = np.column_stack([np.ones(40), x])  # the treatment noise the first stage leaves
    noise -= first @ np.linalg.lstsq(first, noise, rcond=None)[0]
    t = 25.0 + 2 * x[:, 0] + x[:, 1] + noise
    s, c, a = t - 25.0, x[:, 1], x[:, 2]
    train = _continuous(x, t, (s ** 2 - 3 * s) * (1 + c) + a * s + 0.7 * noise, roles="zca")
    test = _continuous([[5.0, 1.0, 2.0], [-5.0, 0.0, 0.0]], [24.0, 26.0], roles="zca")
    # s = 2: (4 - 6)(1 + c) + 2a is 0 at (c, a) = (1, 2) and -2 at (0, 0), whatever z is
    assert R.control_function_surface(train, test)(27.0) == pytest.approx([0.0, -2.0],
                                                                          abs=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_control_function_beats_the_conditional_mean_level(seed):
    train, _, test = dg.independent_triple(dg.DemandSpec(n=2000, seed=seed))
    ceiling = R.cf_mse(R.control_function_surface(train, test), test)
    level = R.cf_mse(R.conditional_mean_surface(test), test)
    assert ceiling < 0.2
    assert level > 9.0
