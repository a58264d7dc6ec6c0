"""Exact information-theoretic identities on small discrete joints.

The identities that justify replacing representation-level mutual-information
minimization with prediction-distribution KL terms are all statements about a
joint distribution over (Y, R_a, R_c).  On alphabets this small they can be
checked by direct enumeration, which is what these functions do: everything is
computed from exact marginals of a probability table, in nats.  It is a
test oracle, like `reference_ops`: `test_losses.py` checks the objective's
terms against these quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from sd2 import rng

_AXIS = {"y": 0, "ra": 1, "rc": 2}


@dataclass(frozen=True)
class DiscreteJoint:
    """Probability table over (Y, R_a, R_c); alphabet sizes 2..8 each."""

    table: np.ndarray = field()

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.float64)
        if t.ndim != 3:
            raise ValueError("joint table must have three axes (y, ra, rc)")
        if any(not 2 <= s <= 8 for s in t.shape):
            raise ValueError(f"alphabet sizes must be in [2, 8], got {t.shape}")
        if np.any(t < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(t.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {t.sum()!r}, not 1")
        object.__setattr__(self, "table", t)

    def marginal(self, subset: tuple[str, ...]) -> np.ndarray:
        axes = tuple(_AXIS[v] for v in subset)
        drop = tuple(i for i in range(3) if i not in axes)
        m = self.table.sum(axis=drop)
        # reorder to the requested variable order
        order = np.argsort(np.argsort(axes))
        return np.transpose(m, order) if m.ndim > 1 else m


def _plogp(p: np.ndarray) -> float:
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask])))


def entropy(joint: DiscreteJoint, subset: tuple[str, ...]) -> float:
    """Shannon entropy (nats) of the marginal over `subset`."""
    if not subset:
        raise ValueError("subset must be nonempty")
    return -_plogp(joint.marginal(subset))


def mutual_info(joint: DiscreteJoint, a: str, b: str) -> float:
    """I(A;B) = H(A) + H(B) - H(A,B), clipped at zero."""
    if a == b:
        raise ValueError("mutual_info requires two distinct variables")
    value = entropy(joint, (a,)) + entropy(joint, (b,)) - entropy(joint, (a, b))
    return max(value, 0.0)


def cond_mutual_info(joint: DiscreteJoint, a: str, b: str, given: str) -> float:
    """I(A;B|C) = H(A|C) - H(A|B,C), from exact marginals."""
    if len({a, b, given}) != 3:
        raise ValueError("cond_mutual_info requires three distinct variables")
    h_ac = entropy(joint, (a, given))
    h_c = entropy(joint, (given,))
    h_abc = entropy(joint, (a, b, given))
    h_bc = entropy(joint, (b, given))
    return max((h_ac - h_c) - (h_abc - h_bc), 0.0)


def chain_rule_residual(joint: DiscreteJoint) -> float:
    """I(Ra;Rc) - [I(Y;Rc) + I(Ra;Rc|Y) - I(Rc;Y|Ra)]; identically zero."""
    lhs = mutual_info(joint, "ra", "rc")
    rhs = (mutual_info(joint, "y", "rc")
           + cond_mutual_info(joint, "ra", "rc", "y")
           - cond_mutual_info(joint, "rc", "y", "ra"))
    return lhs - rhs


def theorem1_residual(joint: DiscreteJoint) -> float:
    """[I(Y;Rc) - I(Rc;Y|Ra)] minus its entropy expansion; identically zero."""
    lhs = mutual_info(joint, "y", "rc") - cond_mutual_info(joint, "rc", "y", "ra")
    rhs = (entropy(joint, ("y",))
           - (entropy(joint, ("y", "rc")) - entropy(joint, ("rc",)))
           - (entropy(joint, ("y", "ra")) - entropy(joint, ("ra",)))
           + (entropy(joint, ("y", "rc", "ra")) - entropy(joint, ("rc", "ra"))))
    return lhs - rhs


def premise_gap(joint: DiscreteJoint) -> float:
    """I(Ra;Rc) - [I(Y;Rc) - I(Rc;Y|Ra)] = I(Ra;Rc|Y).

    Distance of the joint from the conditional-independence premise that
    licenses dropping the I(Ra;Rc|Y) term; zero iff Ra and Rc are
    conditionally independent given Y.
    """
    return (mutual_info(joint, "ra", "rc")
            - mutual_info(joint, "y", "rc")
            + cond_mutual_info(joint, "rc", "y", "ra"))


def random_joint(key: int, shape: tuple[int, int, int] = (2, 2, 2)) -> DiscreteJoint:
    """Random joint: normalized exponentials of standard normals."""
    n = int(np.prod(shape))
    raw = np.exp(rng.normals(key, 0, n))
    return DiscreteJoint((raw / raw.sum()).reshape(shape))


def cond_independent_joint(key: int, shape: tuple[int, int, int] = (2, 2, 2)) -> DiscreteJoint:
    """Random joint with Ra and Rc conditionally independent given Y."""
    ky, ka, kc = shape
    u = np.exp(rng.normals(key, 0, ky + ky * ka + ky * kc))
    py = u[:ky] / u[:ky].sum()
    pa = u[ky:ky + ky * ka].reshape(ky, ka)
    pa /= pa.sum(axis=1, keepdims=True)
    pc = u[ky + ky * ka:].reshape(ky, kc)
    pc /= pc.sum(axis=1, keepdims=True)
    table = py[:, None, None] * pa[:, :, None] * pc[:, None, :]
    return DiscreteJoint(table / table.sum())
