"""Closed-form KLs of univariate normals and Bernoullis, without a tape: the
reference for the family's KL terms, and their tests."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_ops as R
from sd2 import autodiff as ad
from sd2.family import PROB_FLOOR, Gaussian

LN2 = np.log(2.0)


@dataclass(frozen=True)
class GaussianParams:
    mean: float
    std: float

    def __post_init__(self):
        if not self.std > 0:
            raise ValueError(f"standard deviation must be positive, got {self.std}")


def gaussian_kl(q: GaussianParams, p: GaussianParams) -> float:
    """KL(q || p) for two univariate normals, in closed form.

    Written as (u - log1p(u)) / 2 + (mean gap)^2 / (2 var_p) with
    u = var_q / var_p - 1: log1p(u) never rounds above u, so neither part can
    round below zero when the two normals are equal or nearly so.
    """
    u = (q.std / p.std) ** 2 - 1.0
    return 0.5 * (u - np.log1p(u)) + (q.mean - p.mean) ** 2 / (2.0 * p.std ** 2)


def bernoulli_kl(q: float, p: float) -> float:
    """KL(Bernoulli(q) || Bernoulli(p)); p clamped away from {0, 1}."""
    if not (0.0 <= q <= 1.0 and 0.0 <= p <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    p = min(max(p, PROB_FLOOR), 1.0 - PROB_FLOOR)
    out = 0.0
    if q > 0:
        out += q * np.log(q / p)
    if q < 1:
        out += (1.0 - q) * np.log((1.0 - q) / (1.0 - p))
    return out


def column(tape, values):
    return tape.constant(np.asarray(values, dtype=float).reshape(-1, 1))


class TestGaussianKL:
    def test_identical(self):
        p = GaussianParams(0.0, 1.0)
        assert gaussian_kl(p, p) == 0.0

    def test_unit_mean_shift(self):
        assert gaussian_kl(GaussianParams(1, 1), GaussianParams(0, 1)) == pytest.approx(0.5)

    def test_mean_and_scale(self):
        got = gaussian_kl(GaussianParams(0, 1), GaussianParams(1, 2))
        assert got == pytest.approx(LN2 + 2 / 8 - 0.5)

    def test_invalid_std(self):
        with pytest.raises(ValueError):
            GaussianParams(0.0, 0.0)

    @given(st.floats(-5, 5), st.floats(0.1, 5), st.floats(-5, 5), st.floats(0.1, 5))
    @example(0.0, 0.1, 0.0, 0.10000000000000002)  # rounded below zero in the direct form
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, m1, s1, m2, s2):
        assert gaussian_kl(GaussianParams(m1, s1), GaussianParams(m2, s2)) >= 0.0

    def test_monte_carlo_agreement(self):
        q = GaussianParams(0.7, 1.3)
        p = GaussianParams(-0.2, 0.8)
        gen = np.random.default_rng(0)
        x = gen.normal(q.mean, q.std, size=1_000_000)
        log_ratio = (-0.5 * ((x - q.mean) / q.std) ** 2 - np.log(q.std)
                     + 0.5 * ((x - p.mean) / p.std) ** 2 + np.log(p.std))
        mc = log_ratio.mean()
        se = log_ratio.std(ddof=1) / np.sqrt(len(x))
        assert abs(gaussian_kl(q, p) - mc) < 3 * se


class TestBernoulliKL:
    def test_identical(self):
        assert bernoulli_kl(0.5, 0.5) == 0.0

    def test_degenerate_q(self):
        assert bernoulli_kl(1.0, 0.5) == pytest.approx(LN2)

    def test_half_vs_08(self):
        expected = 0.5 * np.log(0.5 / 0.8) + 0.5 * np.log(0.5 / 0.2)
        assert bernoulli_kl(0.5, 0.8) == pytest.approx(expected)
        assert expected == pytest.approx(0.2231, abs=1e-4)

    def test_p_clamped(self):
        assert np.isfinite(bernoulli_kl(0.5, 0.0))
        assert np.isfinite(bernoulli_kl(0.5, 1.0))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bernoulli_kl(1.2, 0.5)

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, q, p):
        assert bernoulli_kl(q, p) >= 0.0


def test_family_gaussian_kl_matches_closed_form():
    tape = ad.Tape()
    got = R.gaussian_kl_vec(Gaussian(column(tape, [0.0]), column(tape, [0.0])),
                            Gaussian(column(tape, [1.0]), column(tape, [np.log(2.0)])))
    want = gaussian_kl(GaussianParams(0, 1), GaussianParams(1, 2))
    assert got.value[0, 0] == pytest.approx(want)


def test_family_bernoulli_kl_matches_closed_form():
    # q inside the clamp, p inside it and at both ends
    q, p = [0.5, 0.9, 0.05, 0.3, 0.7], [0.8, 0.2, 0.5, 0.0, 1.0]
    tape = ad.Tape()
    got = R.bernoulli_kl_vec(column(tape, q), column(tape, p)).value[:, 0]
    assert got == pytest.approx([bernoulli_kl(a, b) for a, b in zip(q, p)], rel=1e-9)
