"""Central differences, against which analytic gradients are checked."""

from __future__ import annotations

import numpy as np

from reference_ops import TeacherTape


def finite_diff_check(loss_fn, params: dict[str, np.ndarray], eps: float = 1e-5) -> float:
    """Worst relative error between analytic gradients and central differences.

    loss_fn(tape, params) must build and return a scalar Tensor whose
    parameters were registered on ``tape`` with the names in ``params``.  The
    teachers `reference_ops.detach` makes in the base evaluation are replayed
    at every probe point, so the check targets the stop-gradient objective.
    """
    if not (0.0 < eps <= 1e-3):
        raise ValueError("eps must be in (0, 1e-3]")
    base = TeacherTape()
    _, grads = base.gradients(loss_fn(base, params))

    def probe() -> float:
        node = loss_fn(TeacherTape(base.teachers, record=False), params)
        if node.value.size != 1:
            raise ValueError("loss function must return a scalar")
        return float(node.value)

    worst = 0.0
    for name, p in params.items():
        flat = p.ravel()
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            up = probe()
            flat[i] = saved - eps
            down = probe()
            flat[i] = saved
            numeric = (up - down) / (2.0 * eps)
            analytic = grads[name].ravel()[i]
            denom = max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst
