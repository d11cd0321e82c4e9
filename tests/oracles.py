"""Test-only references that the library itself never calls."""

import numpy as np

from renyifair import fairtrain as ft, maxcorr as mc, model as md


def binary_objective(params, batch, lam, w):
    """The binary min-max objective at fixed adversary ``w``.

    Cross entropy plus the uncentered surrogate; used to verify the
    closed-form inner solve and the envelope property of the outer gradient.
    """
    probs = md.forward(params, batch.features)
    st = ft.s_tilde(batch.sensitive)
    w = np.asarray(w, dtype=np.float64)
    loss, _ = md.loss_and_grad(params, batch)
    pen = float(np.mean((st[:, None] * probs) @ w) - np.mean(probs @ (w * w)))
    return loss + lam * pen


def second_right_singular_vector(qm):
    """Adversarial direction for the fairness penalty.

    The unit vector orthogonal to the top right singular vector of Q that
    maximizes ``||Q v||^2``; equal-singular-value ties resolve to the vector
    chosen by the deterministic ordering of ``maxcorr.svd_small``.
    """
    if qm.q.shape[1] < 2:
        raise ValueError("need at least two columns for a second singular vector")
    return mc.svd_small(qm.q).right_vectors[:, 1].copy()


def assign_point(x, s: int, centers, proportions, lam: float) -> int:
    """Best cluster (1-based) for one point; ties go to the lowest index."""
    x = np.asarray(x, dtype=np.float64)
    diffs = np.asarray(centers, dtype=np.float64) - x
    scores = np.einsum("kp,kp->k", diffs, diffs) - lam * (np.asarray(proportions) - s) ** 2
    return int(np.argmin(scores)) + 1
