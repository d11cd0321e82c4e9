"""Exact maximal (Renyi) correlation for discrete random variables.

For discrete ``a`` (c values) and ``b`` (d values), the maximal correlation
equals the second largest singular value of the c x d matrix

    Q[i, j] = P(a=i, b=j) / sqrt(P(a=i) * P(b=j)).

When ``b`` is binary there is an equivalent closed form,

    rho = sqrt(1 - gamma / (P(b=1) * P(b=0))),

where gamma is the minimum of the separable quadratic

    sum_i w_i^2 P(a=i) - sum_i w_i (P(a=i, b=1) - P(a=i, b=0)) + 1/4,

attained at w_i = (P(a=i, b=1) - P(a=i, b=0)) / (2 P(a=i)).  Both routes are
implemented here and cross-checked in the test suite.

The SVD is a hand-rolled one-sided Jacobi: the matrices involved never
exceed 64 x 64 (class count x sensitive-group count), and a dependency-free,
bit-deterministic decomposition matters more than speed at that size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Probability-scale floor applied to estimated marginals before any division
# or square root; keeps early-training Q estimates finite when a class has
# near-zero predicted mass.
DEFAULT_MARGINAL_FLOOR = 1e-6

_JACOBI_MAX_SWEEPS = 100
_JACOBI_TOL = 1e-12


class SvdConvergenceError(RuntimeError):
    """One-sided Jacobi failed to converge within the sweep cap."""


def _as_matrix(probs) -> np.ndarray:
    m = np.asarray(probs, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D table, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class JointTable:
    """Joint probability table of two discrete variables.

    ``probs[i, j] = P(a = i+1, b = j+1)``.  Entries must be nonnegative and
    sum to 1 within 1e-9.
    """

    probs: np.ndarray

    def __post_init__(self):
        m = _as_matrix(self.probs)
        if np.any(m < 0):
            raise ValueError("joint table has negative entries")
        total = m.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"joint table sums to {total!r}, not 1")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "probs", m)

    @property
    def c(self) -> int:
        return self.probs.shape[0]

    @property
    def d(self) -> int:
        return self.probs.shape[1]

    def row_marginal(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    def col_marginal(self) -> np.ndarray:
        return self.probs.sum(axis=0)


@dataclass(frozen=True)
class QMatrix:
    """Normalized joint ``q_ij = P(a=i, b=j) / sqrt(P(a=i) P(b=j))``.

    ``row_marginal`` and ``col_marginal`` are the (possibly floored)
    marginals actually used in the normalization, so the identity above
    holds exactly for the stored fields.
    """

    q: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray

    def __post_init__(self):
        q = _as_matrix(self.q)
        rm = np.asarray(self.row_marginal, dtype=np.float64)
        cm = np.asarray(self.col_marginal, dtype=np.float64)
        if rm.shape != (q.shape[0],) or cm.shape != (q.shape[1],):
            raise ValueError("marginal shapes do not match q")
        if np.any(rm <= 0) or np.any(cm <= 0):
            raise ValueError("marginals must be strictly positive")
        for name, arr in (("q", q), ("row_marginal", rm), ("col_marginal", cm)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD with descending singular values.

    Sign convention: in each right singular vector the entry of largest
    magnitude (lowest index on ties) is nonnegative; the paired left vector
    is flipped together with it.  Ties in the singular values are ordered by
    descending lexicographic comparison of the right vectors, which makes the
    decomposition of degenerate matrices reproducible.
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray


@dataclass(frozen=True)
class RenyiBinaryResult:
    """Closed-form maximal correlation against a binary variable.

    ``w_star`` minimizes the separable quadratic whose minimum ``gamma``
    yields ``rho = sqrt(1 - gamma / (q_prob * (1 - q_prob)))`` with
    ``q_prob = P(b=1)``.
    """

    rho: float
    gamma: float
    w_star: np.ndarray
    q_prob: float


def q_from_joint(joint: JointTable, floor: float = 0.0) -> QMatrix:
    """Build the normalized Q matrix from a joint table.

    Marginals are clamped below at ``floor`` before the square root; with the
    default ``floor=0`` a zero marginal is rejected instead.
    """
    row = np.maximum(joint.row_marginal(), floor)
    col = np.maximum(joint.col_marginal(), floor)
    if np.any(row <= 0) or np.any(col <= 0):
        raise ValueError("joint table has a zero marginal after flooring")
    q = joint.probs / np.sqrt(np.outer(row, col))
    return QMatrix(q=q, row_marginal=row, col_marginal=col)


def _one_sided_jacobi(m: np.ndarray):
    """Orthogonalize the columns of ``m`` by plane rotations.

    Returns ``(a, v, converged)`` where ``a = m @ v`` has mutually orthogonal
    columns (to ``_JACOBI_TOL`` relative) and ``v`` is orthogonal.
    """
    a = m.astype(np.float64).copy()
    n_cols = a.shape[1]
    v = np.eye(n_cols)
    for _ in range(_JACOBI_MAX_SWEEPS):
        rotated = False
        for p in range(n_cols - 1):
            for q_ in range(p + 1, n_cols):
                alpha = a[:, p] @ a[:, p]
                beta = a[:, q_] @ a[:, q_]
                gamma = a[:, p] @ a[:, q_]
                if abs(gamma) <= _JACOBI_TOL * np.sqrt(alpha * beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                if zeta == 0.0:
                    t = 1.0
                cs = 1.0 / np.sqrt(1.0 + t * t)
                sn = cs * t
                ap = a[:, p].copy()
                a[:, p] = cs * ap - sn * a[:, q_]
                a[:, q_] = sn * ap + cs * a[:, q_]
                vp = v[:, p].copy()
                v[:, p] = cs * vp - sn * v[:, q_]
                v[:, q_] = sn * vp + cs * v[:, q_]
        if not rotated:
            return a, v, True
    return a, v, False


def _complete_orthonormal(u: np.ndarray, filled: int) -> np.ndarray:
    """Fill columns ``filled:`` of ``u`` with an orthonormal completion.

    Candidates are the standard basis vectors in index order, which keeps the
    completion deterministic.
    """
    n, k = u.shape
    col = filled
    for idx in range(n):
        if col >= k:
            break
        cand = np.zeros(n)
        cand[idx] = 1.0
        cand -= u[:, :col] @ (u[:, :col].T @ cand)
        norm = np.linalg.norm(cand)
        if norm > 0.5:
            u[:, col] = cand / norm
            col += 1
    if col < k:
        raise SvdConvergenceError("could not complete orthonormal basis")
    return u


def svd_small(m) -> SvdResult:
    """Deterministic thin SVD of a small dense matrix.

    One-sided Jacobi, capped at 100 sweeps; intended for matrices up to
    64 x 64.  Raises :class:`SvdConvergenceError` with condition diagnostics
    if the sweep cap is hit.
    """
    m = _as_matrix(m)
    rows, cols = m.shape
    if max(rows, cols) > 64:
        raise ValueError(f"svd_small is limited to 64x64 matrices, got {m.shape}")

    transposed = cols > rows
    work = m.T if transposed else m

    a, v, converged = _one_sided_jacobi(work)
    if not converged:
        gram = work.T @ work
        off = np.abs(gram - np.diag(np.diag(gram))).max()
        raise SvdConvergenceError(
            f"Jacobi SVD did not converge in {_JACOBI_MAX_SWEEPS} sweeps: "
            f"shape={m.shape}, frobenius={np.linalg.norm(m):.3e}, "
            f"max off-diagonal gram residual={off:.3e}"
        )

    sv = np.sqrt(np.sum(a * a, axis=0))
    scale = sv.max(initial=0.0)
    cutoff = scale * max(rows, cols) * np.finfo(np.float64).eps
    u = np.zeros_like(a)
    nonzero = int(np.count_nonzero(sv > cutoff))
    # Normalize in descending order so completion happens on the tail.
    order = np.argsort(-sv, kind="stable")
    a = a[:, order]
    v = v[:, order]
    sv = sv[order]
    for j in range(len(sv)):
        if sv[j] > cutoff:
            u[:, j] = a[:, j] / sv[j]
        else:
            sv[j] = sv[j] if sv[j] > 0 else 0.0
    u = _complete_orthonormal(u, nonzero)

    if transposed:
        left, right = v, u
    else:
        left, right = u, v

    # Sign fix on right vectors, mirrored on the left to preserve m = U S V^T.
    for j in range(right.shape[1]):
        col = right[:, j]
        k = int(np.argmax(np.abs(col)))
        if col[k] < 0:
            right[:, j] = -col
            left[:, j] = -left[:, j]

    # Stable tie-break: descending singular value, then descending
    # lexicographic order of the (sign-fixed) right vectors.
    keys = sorted(
        range(len(sv)),
        key=lambda j: (-sv[j], tuple(-right[:, j])),
    )
    keys = np.array(keys)
    return SvdResult(
        singular_values=sv[keys],
        left_vectors=left[:, keys],
        right_vectors=right[:, keys],
    )


def second_singular_value(qm: QMatrix) -> float:
    """Second singular value of Q, i.e. the maximal correlation it encodes.

    0.0 when Q has fewer than two singular values (one class or one group).
    """
    sv = svd_small(qm.q).singular_values
    return float(sv[1]) if len(sv) > 1 else 0.0


def renyi_discrete(joint: JointTable, floor: float = 0.0) -> float:
    """Maximal correlation of a discrete joint, clamped to [0, 1]."""
    return min(max(second_singular_value(q_from_joint(joint, floor=floor)), 0.0), 1.0)


def renyi_binary(joint: JointTable, floor: float = 0.0) -> RenyiBinaryResult:
    """Closed-form maximal correlation when the column variable is binary.

    Column 0 is ``b = 0`` and column 1 is ``b = 1``.  Agrees with
    :func:`renyi_discrete` on the same joint to 1e-9.
    """
    if joint.d != 2:
        raise ValueError(f"renyi_binary requires a binary column variable, got d={joint.d}")
    p = np.maximum(joint.row_marginal(), floor)
    if np.any(p <= 0):
        raise ValueError("zero class marginal after flooring")
    col = joint.col_marginal()
    q_prob = float(col[1])
    if not 0.0 < q_prob < 1.0:
        raise ValueError(f"P(b=1)={q_prob} must lie strictly inside (0, 1)")
    diff = joint.probs[:, 1] - joint.probs[:, 0]
    w_star = diff / (2.0 * p)
    gamma = float(np.sum(w_star * w_star * p) - np.sum(w_star * diff) + 0.25)
    # Floating point can push the argument slightly negative at independence.
    rho = float(np.sqrt(max(0.0, 1.0 - gamma / (q_prob * (1.0 - q_prob)))))
    return RenyiBinaryResult(rho=rho, gamma=gamma, w_star=w_star, q_prob=q_prob)


def empirical_q(
    soft_probs,
    sensitive,
    floor: float = DEFAULT_MARGINAL_FLOOR,
    n_groups: int | None = None,
) -> QMatrix:
    """Estimate Q between a soft classifier output and a sensitive attribute.

    ``soft_probs`` is N x c with simplex rows (P(Yhat = i | x_n)); ``sensitive``
    holds group labels in {1..d}.  The plug-in estimates are

        P(Yhat=i)          ~ mean_n soft_probs[n, i]
        P(Yhat=i | S=s_j)  ~ mean over group j of soft_probs[:, i]

    and ``q_ij = P(Yhat=i|s_j) P(s_j) / sqrt(P(Yhat=i) P(s_j))`` with both
    marginals floored at ``floor`` before the division.
    """
    f = np.asarray(soft_probs, dtype=np.float64)
    s = np.asarray(sensitive)
    if f.ndim != 2:
        raise ValueError("soft_probs must be N x c")
    n, c = f.shape
    if s.shape != (n,):
        raise ValueError("sensitive length does not match soft_probs")
    if np.any(f < -1e-12):
        raise ValueError("soft_probs has negative entries")
    row_sums = f.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-9):
        worst = np.abs(row_sums - 1.0).max()
        raise ValueError(f"soft_probs rows are off the simplex by {worst:.3e}")
    d = int(n_groups) if n_groups is not None else int(s.max())
    counts = np.bincount(s.astype(int) - 1, minlength=d)
    if len(counts) > d or np.any(counts == 0):
        raise ValueError(f"every sensitive group in 1..{d} must be nonempty")

    pi = counts / n
    py = f.mean(axis=0)
    joint = np.empty((c, d))
    for j in range(d):
        joint[:, j] = f[s == j + 1].mean(axis=0) * pi[j]
    py_f = np.maximum(py, floor)
    pi_f = np.maximum(pi, floor)
    q = joint / np.sqrt(np.outer(py_f, pi_f))
    return QMatrix(q=q, row_marginal=py_f, col_marginal=pi_f)


def second_right_singular_vector(qm: QMatrix) -> np.ndarray:
    """Adversarial direction for the fairness penalty.

    The unit vector orthogonal to the top right singular vector of Q that
    maximizes ``||Q v||^2``; equal-singular-value ties resolve to the vector
    chosen by the deterministic ordering of :func:`svd_small`.
    """
    if qm.q.shape[1] < 2:
        raise ValueError("need at least two columns for a second singular vector")
    return svd_small(qm.q).right_vectors[:, 1].copy()
