"""The kernels rewritten without numpy's Python wrappers or boolean masks give
the bits of the forms they replaced (kept in ``reference_ops``), compared as
uint64 views, so a NaN must come out with the same sign and payload."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference_ops as R
from sd2 import autodiff as ad
from sd2 import family as F
from sd2 import losses as L

# signed zeros and subnormals, exp's overflow and underflow edges, the largest
# floats, infinities, and NaNs of either sign with and without a payload
NAN_BITS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                     0xFFF8000000000002, 0x7FF0000000000001], dtype=np.uint64)
EDGES = np.concatenate([
    [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 709.0, -709.0, 745.0, -745.0,
     800.0, -800.0, 1e308, -1e308, np.inf, -np.inf, 1e-7, 1.0 - 1e-7, -5.0, 3.0],
    NAN_BITS.view(np.float64)])

FLOATS = hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=40),
                    elements=st.floats(allow_nan=True, allow_infinity=True, width=64))


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def same_bits(a, b) -> bool:
    return np.asarray(a).shape == np.asarray(b).shape and np.array_equal(bits(a), bits(b))


def sigmoids(x):
    want, got, in_place = np.empty_like(x), np.empty_like(x), x.copy()
    with np.errstate(all="ignore"):
        R.masked_sigmoid_into(x, want)
        ad.sigmoid_into(x, got)
        ad.sigmoid_into(in_place, in_place)
    return want, got, in_place


def test_sigmoid_edge_values():
    want, got, in_place = sigmoids(EDGES)
    assert same_bits(got, want) and same_bits(in_place, want)
    assert np.isnan(got[-len(NAN_BITS):]).all()


@pytest.mark.parametrize("scale", [1e-300, 1e-8, 1.0, 30.0, 700.0, 800.0, 1e300])
def test_sigmoid_random_values_at_scale(scale):
    x = np.random.default_rng(7).standard_normal((2000, 3)) * scale
    want, got, in_place = sigmoids(x)
    assert same_bits(got, want) and same_bits(in_place, want)


@settings(max_examples=200, deadline=None)
@given(FLOATS)
def test_sigmoid_drawn_arrays(x):
    want, got, in_place = sigmoids(x)
    assert same_bits(got, want) and same_bits(in_place, want)


@pytest.mark.parametrize("lo, hi", [(F.PROB_FLOOR, 1.0 - F.PROB_FLOOR),
                                    (F.LOG_STD_MIN, F.LOG_STD_MAX), (1.0, L.WEIGHT_CLIP)])
def test_clip_edge_values(lo, hi):
    clipped, mask = F._clip(EDGES, lo, hi)
    assert same_bits(clipped, np.clip(EDGES, lo, hi))
    assert same_bits(mask, ((EDGES >= lo) & (EDGES <= hi)).astype(np.float64))


@settings(max_examples=200, deadline=None)
@given(FLOATS)
def test_clip_drawn_arrays(x):
    for lo, hi in ((F.PROB_FLOOR, 1.0 - F.PROB_FLOOR), (F.LOG_STD_MIN, F.LOG_STD_MAX)):
        assert same_bits(F._clip(x, lo, hi)[0], np.clip(x, lo, hi))


def both_classes(draw_t):
    """A 0/1 treatment vector holding both classes."""
    t = np.asarray(draw_t, dtype=np.float64)
    t[0], t[-1] = 0.0, 1.0
    return t


ROWS = st.integers(2, 40)


@settings(max_examples=200, deadline=None)
@given(st.data(), ROWS)
def test_importance_weights_drawn(data, n):
    pi_c = data.draw(hnp.arrays(np.float64, n, elements=st.floats(
        allow_nan=True, allow_infinity=True, width=64)))
    t = both_classes(data.draw(hnp.arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0]))))
    with np.errstate(all="ignore"):
        assert same_bits(L.importance_weights(pi_c, t), R.clipped_importance_weights(pi_c, t))


def test_importance_weights_edge_values():
    pi_c = np.concatenate([EDGES, [0.5, 0.25]])
    t = np.resize([0.0, 1.0, 1.0], len(pi_c))
    with np.errstate(all="ignore"):
        assert same_bits(L.importance_weights(pi_c, t), R.clipped_importance_weights(pi_c, t))


def mmd_both(r, t, g):
    tape = ad.Tape(record=False)
    rep = ad.Tensor(tape, r, checked=True)
    with np.errstate(all="ignore"):
        value, ((node, vjp),) = L.adjustment_disc(rep, t)
        assert node is rep
        return (value, vjp(np.float64(g))), R.mmd_mean_tile(r, t, g)


@settings(max_examples=200, deadline=None)
@given(st.data(), ROWS, st.integers(1, 6),
       st.floats(allow_nan=True, allow_infinity=True, width=64))
def test_mmd_drawn(data, n, k, g):
    r = data.draw(hnp.arrays(np.float64, (n, k), elements=st.floats(
        allow_nan=True, allow_infinity=True, width=64)))
    t = both_classes(data.draw(hnp.arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0]))))
    (value, grad), (want_value, want_grad) = mmd_both(r, t, g)
    assert same_bits(value, want_value) and same_bits(grad, want_grad)


def test_mmd_edge_values():
    r = np.resize(EDGES, (len(EDGES), 3)).copy()
    r[:, 1] = np.roll(EDGES, 5)
    t = np.resize([0.0, 1.0, 0.0, 1.0, 1.0], len(EDGES))
    for g in (1.0, -0.5, np.nan, np.inf):
        (value, grad), (want_value, want_grad) = mmd_both(r, t, g)
        assert same_bits(value, want_value) and same_bits(grad, want_grad)
    finite = np.random.default_rng(3).standard_normal((60, 4))
    (value, grad), (want_value, want_grad) = mmd_both(finite, np.resize(t, 60), 0.75)
    assert np.isfinite(value) and same_bits(value, want_value) and same_bits(grad, want_grad)
