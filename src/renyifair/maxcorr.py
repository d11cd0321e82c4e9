"""Exact maximal (Renyi) correlation for discrete random variables.

For discrete ``a`` (c values) and ``b`` (d values), the maximal correlation
equals the second largest singular value of the c x d matrix

    Q[i, j] = P(a=i, b=j) / sqrt(P(a=i) * P(b=j)).

When ``b`` is binary there is an equivalent closed form,

    rho = sqrt(1 - gamma / (P(b=1) * P(b=0))),

where gamma is the minimum of the separable quadratic

    sum_i w_i^2 P(a=i) - sum_i w_i (P(a=i, b=1) - P(a=i, b=0)) + 1/4,

attained at w_i = (P(a=i, b=1) - P(a=i, b=0)) / (2 P(a=i)).  This module
implements the SVD route.  Training runs the closed form on soft outputs
in ``fairtrain._dp_penalty`` (``_binary_means``, ``_maximizer``,
``_centered_value``); the test suite holds that penalty to
:func:`renyi_discrete`.

:func:`svd_small` is a hand-rolled one-sided Jacobi for the adversary of
training (``fairtrain._discrete_penalty``, its one library caller), which
reads sigma and the right singular vectors, with a fixed sign and tie rule:
the matrices never exceed 64 x 64 and a bit-deterministic decomposition
matters more than speed at that size.  Where the Jacobi stalls (a class
mass so small that a rotation angle underflows), it takes LAPACK's factor
under the same rule instead of raising.

:func:`second_singular_value` (the diagnostic that training logs and
evaluation reports, and :func:`renyi_discrete`) skips the SVD where a closed
form is exact.  With no marginal floored, ``Q = sqrt(p) sqrt(pi)^T + Qt``,
where ``Qt_ij = (P_ij - p_i pi_j) / sqrt(p_i pi_j)`` is orthogonal to that
top singular pair; with two classes or two groups ``Qt`` has rank one and
sigma2 is its Frobenius norm, within 1e-15 of LAPACK.  Only a
:func:`q_from_groups` Q takes that route; any other (floored, more than two
rows and columns, hand-built or from :func:`q_from_joint`) takes LAPACK's
singular values, within 5e-13 of :func:`svd_small`.

Inputs are validated at the API boundary only.  :func:`q_from_joint` checks
a joint table and :func:`empirical_q` shapes, simplex rows, groups and
marginals on every call.  :func:`group_index` names a label not in 1..d
and indexes only the groups a sample holds, so Q over it is always defined:
the one rule for a minibatch or split that lacks a group.  Training indexes
each batch once and estimates Q on every step with :func:`q_from_groups`,
which skips the checks.
:class:`QMatrix` itself is a plain record of the arrays its builders compute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import _column_mean

# Probability-scale floor applied to estimated marginals before any division
# or square root; keeps early-training Q estimates finite when a class has
# near-zero predicted mass.
DEFAULT_MARGINAL_FLOOR = 1e-6

_JACOBI_MAX_SWEEPS = 100
_JACOBI_TOL = 1e-12


def _as_matrix(probs) -> np.ndarray:
    m = np.asarray(probs, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D table, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class QMatrix:
    """Normalized joint ``q_ij = P(a=i, b=j) / sqrt(P(a=i) P(b=j))``.

    ``row_marginal`` and ``col_marginal`` are the (possibly floored)
    marginals actually used in the normalization, so the identity above
    holds exactly for the stored fields.  ``deflatable`` is True when they
    are also the row and column sums of a joint that sums to 1 to rounding,
    so that ``Q = sqrt(p) sqrt(pi)^T + Qt`` with ``Qt`` orthogonal to that
    top singular pair: :func:`q_from_groups` sets it when the floor clamped
    no marginal.  Any other Q (a hand-built one, or :func:`q_from_joint`'s,
    whose table need only sum to 1 within 1e-9) keeps the SVD.
    """

    q: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray
    deflatable: bool = False


@dataclass(frozen=True)
class SvdResult:
    """Descending singular values and their right singular vectors.

    For an r x c matrix both hold min(r, c) entries: ``right_vectors`` is
    c x min(r, c), one vector per column.  Sign convention: in each right
    vector the entry of largest magnitude (lowest index on ties) is
    nonnegative.  Ties in the singular values are ordered by descending
    lexicographic comparison of the right vectors, which makes the
    decomposition of degenerate matrices reproducible.
    """

    singular_values: np.ndarray
    right_vectors: np.ndarray


def q_from_joint(joint, floor: float = 0.0) -> QMatrix:
    """Build the normalized Q matrix from a c x d joint probability table.

    ``joint[i, j] = P(a = i+1, b = j+1)``; entries must be nonnegative and
    sum to 1 within 1e-9.  Marginals are clamped below at ``floor`` before
    the square root; with the default ``floor=0`` a zero marginal is
    rejected instead.
    """
    p = np.ascontiguousarray(_as_matrix(joint))
    if np.any(p < 0):
        raise ValueError("joint table has negative entries")
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"joint table sums to {float(total)!r}, not 1")
    row = np.maximum(p.sum(axis=1), floor)
    col = np.maximum(p.sum(axis=0), floor)
    if np.any(row <= 0) or np.any(col <= 0):
        raise ValueError("joint table has a zero marginal after flooring")
    return QMatrix(q=p / np.sqrt(np.outer(row, col)), row_marginal=row, col_marginal=col)


def _one_sided_jacobi(m: np.ndarray):
    """Orthogonalize the columns of ``m`` by plane rotations.

    Returns ``(a, v, converged)`` where ``a = m @ v`` has mutually orthogonal
    columns (to ``_JACOBI_TOL`` relative) and ``v`` is orthogonal.
    """
    # The copy is C-ordered on purpose: astype alone keeps a transposed
    # input's Fortran order, and the column dot products below would then
    # run over other strides and round differently.
    a = m.astype(np.float64).copy()
    n_cols = a.shape[1]
    v = np.eye(n_cols)
    # Columns far apart in norm overflow ``zeta * zeta``: the angle reads 0,
    # the pair never settles and svd_small takes LAPACK's factor instead.
    with np.errstate(over="ignore"):
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


def _complete_orthonormal(u: np.ndarray, filled: int) -> np.ndarray | None:
    """Fill columns ``filled:`` of ``u`` with an orthonormal completion.

    Candidates are the standard basis vectors in index order, which keeps the
    completion deterministic.  None if they run out first.
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
    return u if col >= k else None


def svd_small(m) -> SvdResult:
    """Deterministic singular values and right vectors of a small dense matrix.

    One-sided Jacobi, capped at 100 sweeps; limited to matrices up to
    64 x 64.  Where the sweeps stall or the wide case's completion runs out
    of candidates, the factor comes from ``np.linalg.svd`` instead, under
    the same sign and tie rule (see :class:`SvdResult`).
    """
    m = _as_matrix(m)
    rows, cols = m.shape
    if max(rows, cols) > 64:
        raise ValueError(f"svd_small is limited to 64x64 matrices, got {m.shape}")
    transposed = cols > rows
    a, v, converged = _one_sided_jacobi(m.T if transposed else m)
    right = None
    if converged:
        sv = np.sqrt(np.sum(a * a, axis=0))
        cutoff = sv.max(initial=0.0) * max(rows, cols) * np.finfo(np.float64).eps
        order = np.argsort(-sv, kind="stable")
        sv = sv[order]
        if not transposed:
            right = v[:, order]
        else:
            # Wide m: the right vectors are the columns of ``a``, normalised above
            # the cutoff and completed on the tail in a C-ordered buffer like ``a``.
            nonzero = int(np.count_nonzero(sv > cutoff))
            right = np.zeros(a.shape)
            right[:, :nonzero] = a[:, order[:nonzero]] / sv[:nonzero]
            right = _complete_orthonormal(right, nonzero)
        sv = np.where(sv > 0, sv, 0.0)  # a NaN norm (one NaN column) reads 0
    if right is None:
        _, sv, vt = np.linalg.svd(m, full_matrices=False)
        right = vt.T

    # Sign fix: the largest-magnitude entry of each right vector is nonnegative.
    for j in range(right.shape[1]):
        col = right[:, j]
        k = int(np.argmax(np.abs(col)))
        if col[k] < 0:
            right[:, j] = -col

    # Stable tie-break: descending singular value, then descending
    # lexicographic order of the (sign-fixed) right vectors.
    keys = np.array(sorted(range(len(sv)), key=lambda j: (-sv[j], tuple(-right[:, j]))))
    return SvdResult(singular_values=sv[keys], right_vectors=right[:, keys])


def second_singular_value(qm: QMatrix) -> float:
    """Second singular value of Q, i.e. the maximal correlation it encodes.

    0.0 when Q has fewer than two singular values (one class or one group).
    A deflatable Q with two rows or two columns has a rank-one ``Qt`` (see
    :class:`QMatrix`), so sigma2 is its Frobenius norm and no SVD runs; it
    agrees with LAPACK within 1e-15 (see the module docstring).  Every
    other Q takes LAPACK's singular values.
    """
    q = qm.q
    if min(q.shape) < 2:
        return 0.0
    if qm.deflatable and min(q.shape) == 2:
        qt = q - np.sqrt(qm.row_marginal)[:, None] * np.sqrt(qm.col_marginal)
        return math.sqrt(np.vdot(qt, qt))
    return float(np.linalg.svd(q, compute_uv=False)[1])


def renyi_discrete(joint, floor: float = 0.0) -> float:
    """Maximal correlation of a c x d joint table (see :func:`q_from_joint`), clamped to [0, 1]."""
    return min(max(second_singular_value(q_from_joint(joint, floor=floor)), 0.0), 1.0)


@dataclass(frozen=True)
class GroupIndex:
    """Where each sensitive group a sample holds sits in its N rows.

    Only the nonempty groups of 1..d are listed, in alphabet order:
    ``codes`` is every row's 0-based position in that list, ``rows[j]`` the
    rows of its ``j``-th group and ``shares[j]`` their fraction of N, so Q
    over the index is always defined.  A training run builds one index per
    batch and reuses it for every Q estimate on those rows.
    """

    codes: np.ndarray
    rows: tuple[np.ndarray, ...]
    shares: np.ndarray

    @property
    def n_groups(self) -> int:
        return len(self.rows)


def group_index(sensitive, n_groups: int) -> GroupIndex:
    """Index the 1-based labels ``sensitive`` over the groups of 1..n_groups they hold.

    Codes are renumbered only when a group is empty; any other label raises.
    """
    s = np.asarray(sensitive)
    codes = s.astype(int) - 1
    bad = (codes < 0) | (codes >= n_groups) | (codes + 1 != s)
    if bad.any():
        raise ValueError(f"sensitive label {s[bad][0].item()!r} is not one of 1..{n_groups}")
    counts = np.bincount(codes, minlength=n_groups)
    keep = np.flatnonzero(counts)
    if keep.size < n_groups:
        renumber = np.zeros(n_groups, dtype=codes.dtype)
        renumber[keep] = np.arange(keep.size)
        codes = renumber.take(codes)
    return GroupIndex(codes=codes,
                      rows=tuple(np.flatnonzero(s == j + 1) for j in keep),
                      shares=counts.take(keep) / s.size)


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

    Validates its inputs (a nonempty sample, every group of 1..d nonempty,
    d being ``n_groups`` or the largest label), then hands over to
    :func:`q_from_groups`; a class whose floored predicted mass is not
    positive (``floor <= 0``) raises.
    """
    f = np.asarray(soft_probs, dtype=np.float64)
    s = np.asarray(sensitive)
    if f.ndim != 2:
        raise ValueError("soft_probs must be N x c")
    n = f.shape[0]
    if s.shape != (n,):
        raise ValueError("sensitive length does not match soft_probs")
    if n == 0:
        raise ValueError("empirical_q needs a nonempty sample: soft_probs has 0 rows")
    if np.any(f < -1e-12):
        raise ValueError("soft_probs has negative entries")
    row_sums = f.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-9):
        worst = np.abs(row_sums - 1.0).max()
        raise ValueError(f"soft_probs rows are off the simplex by {worst:.3e}")
    d = int(n_groups) if n_groups is not None else int(s.max())
    groups = group_index(s, d)
    if groups.n_groups < d:
        raise ValueError(f"every sensitive group in 1..{d} must be nonempty")
    qm = q_from_groups(f, groups, floor)
    if np.any(qm.row_marginal <= 0):
        raise ValueError(f"marginals must be strictly positive: a class has no "
                         f"predicted mass left at floor={floor!r}")
    return qm


def q_from_groups(soft_probs: np.ndarray, groups: GroupIndex, floor: float) -> QMatrix:
    """:func:`empirical_q` for rows already indexed by :func:`group_index`.

    Q has one column per group the index holds; nothing is checked.
    """
    pi = groups.shares
    py = _column_mean(soft_probs)
    joint = np.empty((soft_probs.shape[1], groups.n_groups))
    for j, rows in enumerate(groups.rows):
        joint[:, j] = _column_mean(soft_probs.take(rows, axis=0)) * pi[j]
    py_f = np.maximum(py, floor)
    pi_f = np.maximum(pi, floor)
    q = joint / np.sqrt(py_f[:, None] * pi_f)
    return QMatrix(q=q, row_marginal=py_f, col_marginal=pi_f,
                   deflatable=bool(py.min() >= floor and pi.min() >= floor))
