import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sd2 import rng


def test_uniforms_deterministic_and_in_range():
    a = rng.uniforms(rng.mix_key(7, "x"), 0, 10000)
    b = rng.uniforms(rng.mix_key(7, "x"), 0, 10000)
    assert np.array_equal(a, b)
    assert a.min() > 0.0 and a.max() <= 1.0
    assert abs(a.mean() - 0.5) < 0.02


def test_distinct_tags_give_distinct_streams():
    a = rng.uniforms(rng.mix_key(7, "x"), 0, 100)
    b = rng.uniforms(rng.mix_key(7, "y"), 0, 100)
    assert not np.array_equal(a, b)


def test_normals_moments():
    z = rng.normals(rng.mix_key(1, "z"), 0, 200000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_row_ranges_compose():
    # rows [4, 10) drawn standalone, from normals' counter 4 * 4, match the full matrix
    full = rng.normal_matrix(42, 10, 4)
    tail = rng.normals(42, 4 * 4, 6 * 4).reshape(6, 4)
    assert np.array_equal(full[4:], tail)


@given(st.integers(min_value=0, max_value=2**63 - 1), st.integers(min_value=1, max_value=500))
@settings(max_examples=50, deadline=None)
def test_permutation_is_bijection(key, n):
    p = rng.permutation(key, n)
    assert sorted(p.tolist()) == list(range(n))


def test_permutation_deterministic():
    assert np.array_equal(rng.permutation(5, 100), rng.permutation(5, 100))


def test_bernoulli_matches_probabilities():
    p = np.full(200000, 0.3)
    draws = rng.bernoulli(rng.mix_key(3, "b"), p)
    assert set(np.unique(draws)) <= {0.0, 1.0}
    assert abs(draws.mean() - 0.3) < 0.01


def test_init_uniform_bounds():
    w = rng.init_uniform(9, (50, 50), 0.25)
    assert w.shape == (50, 50)
    assert np.all(np.abs(w) <= 0.25)
    assert abs(w.mean()) < 0.01


def test_mix_key_int_distinct():
    keys = {rng.mix_key_int(123, i) for i in range(1000)}
    assert len(keys) == 1000
