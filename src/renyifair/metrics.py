"""Fairness and accuracy metrics on hard predictions.

Conventions: class labels and sensitive groups are 1-based; for binary
tasks class 2 is the positive outcome and group 2 the privileged group.
Hard predictions are the argmax of the soft output with lowest-index
tie-breaking.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, asdict

import numpy as np

from . import maxcorr
from .model import Batch, ModelParams, forward

logger = logging.getLogger(__name__)

POSITIVE_CLASS = 2


def hard_predictions(soft_probs) -> np.ndarray:
    """Argmax class per row, 1-based; ties go to the lowest class index."""
    return np.argmax(np.asarray(soft_probs), axis=1) + 1


def _positive_rates(hard_preds, sensitive, positive_class: int):
    """Positive-prediction rate of each sensitive group present, by group."""
    preds = np.asarray(hard_preds)
    s = np.asarray(sensitive)
    return {int(g): float(np.mean(preds[s == g] == positive_class)) for g in np.unique(s)}


def p_percent(hard_preds, sensitive) -> float:
    """Smaller ratio of the two groups' positive-prediction rates.

    Defined as 1 when both rates are zero (vacuous parity) and 0 when
    exactly one is zero.
    """
    return _p_percent(_positive_rates(hard_preds, sensitive, POSITIVE_CLASS))


def _p_percent(rates: dict) -> float:
    if set(rates) != {1, 2}:
        raise ValueError("p_percent needs both binary sensitive groups nonempty")
    r1, r2 = rates[1], rates[2]
    if r1 == 0.0 and r2 == 0.0:
        return 1.0
    if r1 == 0.0 or r2 == 0.0:
        return 0.0
    return float(min(r1 / r2, r2 / r1))


def dp_violation(hard_preds, sensitive, positive_class: int = POSITIVE_CLASS) -> float:
    """Largest pairwise gap in positive-prediction rates across groups."""
    return _dp_violation(_positive_rates(hard_preds, sensitive, positive_class))


def _dp_violation(rates: dict) -> float:
    values = list(rates.values())
    if len(values) < 2:
        raise ValueError("dp_violation needs at least two nonempty groups")
    return float(max(values) - min(values))


def eo_violation(hard_preds, sensitive, labels) -> float:
    """True-positive-rate gap between the two groups."""
    preds = np.asarray(hard_preds)
    s = np.asarray(sensitive)
    y = np.asarray(labels)
    tprs = []
    for g in (1, 2):
        mask = (s == g) & (y == POSITIVE_CLASS)
        if not mask.any():
            raise ValueError(f"no positive-label samples in sensitive group {g}")
        tprs.append(float(np.mean(preds[mask] == POSITIVE_CLASS)))
    return abs(tprs[0] - tprs[1])


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def nmi(hard_preds, sensitive) -> float:
    """Normalized mutual information I(A;B) / sqrt(H(A) H(B)), natural log.

    Zero by definition when either variable is constant.
    """
    a = np.asarray(hard_preds)
    b = np.asarray(sensitive)
    if a.shape != b.shape or a.size == 0:
        raise ValueError("inputs must be equal-length and nonempty")
    a_vals, a_idx = np.unique(a, return_inverse=True)
    b_vals, b_idx = np.unique(b, return_inverse=True)
    joint = np.bincount(a_idx * len(b_vals) + b_idx, minlength=len(a_vals) * len(b_vals))
    joint = joint.reshape(len(a_vals), len(b_vals)) / a.size
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    ha, hb = _entropy(pa), _entropy(pb)
    if ha <= 0.0 or hb <= 0.0:
        return 0.0
    nz = joint > 0
    mi = float((joint[nz] * np.log(joint[nz] / np.outer(pa, pb)[nz])).sum())
    return mi / np.sqrt(ha * hb)


def cluster_fairness(proportions, counts) -> tuple[float, float, float, float]:
    """(min, max, mean, population std) of w over nonempty clusters."""
    w = np.asarray(proportions, dtype=np.float64)
    c = np.asarray(counts)
    active = w[c > 0]
    if active.size == 0:
        raise ValueError("no nonempty clusters")
    return (float(active.min()), float(active.max()),
            float(active.mean()), float(active.std()))


@dataclass(frozen=True)
class EvalReport:
    """Flat metric bundle for one (model, split) evaluation."""

    accuracy: float
    p_percent: float | None
    dp_violation: float | None
    eo_violation: float | None
    nmi: float
    sigma2: float
    positive_rates: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def evaluate(params: ModelParams, batch: Batch,
             floor: float = maxcorr.DEFAULT_MARGINAL_FLOOR) -> EvalReport:
    """All applicable metrics of a model on one batch.

    ``sigma2`` is the soft-output maximal correlation (the quantity the
    fair trainers regularize); the remaining fairness metrics are computed
    on hard argmax predictions.  The alphabets are the batch's declared
    ``n_classes`` and ``n_groups``.  On a batch that lacks a declared group
    sigma2 is taken over the groups present (logged once, 0.0 when one is
    left), as the training baselines log it, and the rates and DP gap over
    the groups present.  Binary-only metrics are None unless the batch
    declares two classes (EO) and two groups, both present.
    """
    probs = forward(params, batch.features)
    preds = hard_predictions(probs)
    acc = float(np.mean(preds == batch.labels))
    d = batch.n_groups
    groups = maxcorr.group_index(batch.sensitive, d)
    if groups.n_groups < d:
        logger.warning("sigma2 on a split that lacks a sensitive group: "
                       "Q is taken over the %d of %d groups present", groups.n_groups, d)
    sigma2 = maxcorr.second_singular_value(maxcorr.q_from_groups(probs, groups, floor))
    rates = _positive_rates(preds, batch.sensitive, POSITIVE_CLASS)
    binary = d == 2 and len(rates) == 2
    pp = _p_percent(rates) if binary else None
    dp = _dp_violation(rates) if len(rates) >= 2 else None
    eo = None
    if binary and batch.n_classes == 2:
        try:
            eo = eo_violation(preds, batch.sensitive, batch.labels)
        except ValueError:
            eo = None
    return EvalReport(
        accuracy=acc,
        p_percent=pp,
        dp_violation=dp,
        eo_violation=eo,
        nmi=nmi(preds, batch.sensitive),
        sigma2=sigma2,
        positive_rates={str(k): v for k, v in rates.items()},
    )
