"""Counter-based pseudo-random streams.

Every random quantity in this package is a pure function of a 64-bit key and a
counter, so datasets, splits, and replications are reproducible regardless of
generation order or parallelism.  Keys are derived by mixing a user seed with a
purpose tag; normals come from Box-Muller over two counter-indexed uniforms,
which keeps every draw independently addressable.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _finalize(x: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def mix_key(seed: int, tag: str = "") -> int:
    """Derive a stream key from a seed and a purpose tag."""
    state = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        for byte in tag.encode("utf-8"):
            state = _finalize((state + _GOLDEN) ^ np.uint64(byte))
        state = _finalize(state + _GOLDEN)
    return int(state)


def mix_key_int(seed: int, index: int) -> int:
    """Derive the index-th child key of a seed (replications, epochs)."""
    with np.errstate(over="ignore"):
        k = _finalize((np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN)
                      ^ _finalize(np.uint64(index & 0xFFFFFFFFFFFFFFFF) + _GOLDEN))
    return int(k)


def _hash_u64(key: int, counters: np.ndarray) -> np.ndarray:
    k = np.uint64(key & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        x = counters.astype(np.uint64) * _GOLDEN ^ k
        x = _finalize(x)
        x = _finalize(x ^ k)
    return x


def _unit(key: int, counters: np.ndarray) -> np.ndarray:
    """The uniform in (0, 1] at each counter: its hash's top 53 bits, plus one, times 2**-53."""
    return ((_hash_u64(key, counters) >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)


def uniforms(key: int, start: int, count: int) -> np.ndarray:
    """count uniforms in (0, 1] at counters start..start+count-1."""
    return _unit(key, np.arange(start, start + count, dtype=np.uint64))


def normals(key: int, start: int, count: int) -> np.ndarray:
    """count standard normals; normal i consumes uniforms at counters 2(start+i), 2(start+i)+1."""
    ctr = np.arange(start, start + count, dtype=np.uint64) * np.uint64(2)
    u1 = _unit(key, ctr)
    u2 = _unit(key, ctr + np.uint64(1))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def normal_matrix(key: int, rows: int, cols: int) -> np.ndarray:
    """rows x cols standard normals; row i uses counters [i*cols, (i+1)*cols)."""
    if cols == 0:
        return np.zeros((rows, 0))
    return normals(key, 0, rows * cols).reshape(rows, cols)


def bernoulli(key: int, probs: np.ndarray) -> np.ndarray:
    """One Bernoulli draw per probability, at counters 0..n-1."""
    u = uniforms(key, 0, len(probs))
    return (u < probs).astype(np.float64)


def permutation(key: int, n: int) -> np.ndarray:
    """Deterministic permutation of range(n) keyed by `key`."""
    return np.argsort(_hash_u64(key, np.arange(n, dtype=np.uint64)), kind="stable")


def init_uniform(key: int, shape: tuple[int, ...], limit: float) -> np.ndarray:
    """Uniform in [-limit, limit), for weight initialization."""
    count = int(np.prod(shape)) if shape else 1
    u = uniforms(key, 0, count)
    return (u * 2.0 - 1.0).reshape(shape) * limit
