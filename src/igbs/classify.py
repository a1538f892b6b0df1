"""Classification harness: stratified splitting, a one-vs-one RBF SVM
trained by sequential minimal optimization, a deterministic 1-NN baseline,
and the evaluation metrics (confusion matrix, per-class accuracy, overall
accuracy, Cohen's kappa).

Features handed to the classifiers are the selected bands' quantized values
scaled to [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import accel
from .datamodel import GroundTruth, integers, label_series
from .errors import ConfigError, DataError, MethodError

DEFAULT_C = 100.0
DEFAULT_TOL = 1e-3
DEFAULT_MAX_ITER = 1_000_000
DEFAULT_FRACTION = 0.5


@dataclass(frozen=True, eq=False)
class SplitPlan:
    """Train/test assignment over the labeled pixels (row-major order)."""

    train_idx: np.ndarray
    test_idx: np.ndarray


def stratified_split(
    gt: GroundTruth, fraction: float = DEFAULT_FRACTION, seed: int = 0
) -> SplitPlan:
    """Per class: seeded shuffle, first floor(fraction*n) pixels to train;
    a class that would get none is a DataError naming it.

    The assignment is a deterministic function of (seed, gt).
    """
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"fraction must be in (0, 1), got {fraction}")
    if not seed >= 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    labels = label_series(gt).symbols
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in gt.classes:
        idx = np.where(labels == cls)[0]
        if idx.size < 2:
            raise DataError(f"class {int(cls)} has fewer than 2 labeled pixels")
        perm = idx[rng.permutation(idx.size)]
        n_train = math.floor(fraction * idx.size)
        if n_train == 0:
            raise DataError(
                f"fraction {fraction} leaves class {int(cls)} ({idx.size} pixels) "
                "no training pixel"
            )
        train.append(perm[:n_train])
        test.append(perm[n_train:])
    return SplitPlan(
        train_idx=np.sort(np.concatenate(train)),
        test_idx=np.sort(np.concatenate(test)),
    )


@dataclass(frozen=True, eq=False)
class PairModel:
    """One binary one-vs-one model; `positive` wins when the decision > 0."""

    positive: int
    negative: int
    sv_features: np.ndarray
    sv_coef: np.ndarray  # alpha_i * y_i over the support vectors
    alphas: np.ndarray  # duals over the support vectors, in (0, C]
    bias: float
    gamma: float

    def decision(self, features: np.ndarray) -> np.ndarray:
        k = accel.rbf_kernel(
            np.ascontiguousarray(features, dtype=np.float64), self.sv_features, self.gamma
        )
        return k @ self.sv_coef + self.bias


@dataclass(frozen=True, eq=False)
class SvmModel:
    classes: np.ndarray
    pairs: list
    gamma: float
    n_features: int


def train_svm(
    features: np.ndarray,
    labels: np.ndarray,
    c: float = DEFAULT_C,
    gamma: float | None = None,
    tol: float = DEFAULT_TOL,
) -> SvmModel:
    """Train a one-vs-one soft-margin RBF SVM by SMO.

    gamma defaults to 1/n_features. Training is deterministic: the solver
    always works on the maximal violating pair and breaks ties toward the
    lowest index. A pair that fails to reach the KKT tolerance within
    ``DEFAULT_MAX_ITER`` steps raises MethodError naming the pair.
    """
    features = np.ascontiguousarray(features, dtype=np.float64)
    labels = integers(labels, "SVM labels")
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise DataError("features must be (n, d) with one label per row")
    if not np.isfinite(features).all():
        raise DataError("SVM features must be finite")
    classes = np.unique(labels)
    if classes.size < 2:
        raise DataError("training data must contain at least 2 classes")
    if gamma is None:
        gamma = 1.0 / features.shape[1]
    if not (c > 0 and gamma > 0 and tol > 0):  # NaN fails too
        raise ConfigError("c, gamma and tol must all be positive")

    pairs = []
    for a_pos in range(classes.size):
        for b_pos in range(a_pos + 1, classes.size):
            ci, cj = int(classes[a_pos]), int(classes[b_pos])
            mask = (labels == ci) | (labels == cj)
            x = features[mask]
            y = np.where(labels[mask] == ci, 1.0, -1.0)
            kernel = accel.rbf_kernel(x, x, gamma)
            alpha, bias, iters, gap = accel.smo_solve(
                kernel, y, float(c), float(tol), DEFAULT_MAX_ITER
            )
            if not gap <= tol:  # a NaN gap has not converged either
                raise MethodError(
                    f"SMO did not converge for class pair ({ci}, {cj}): "
                    f"gap {gap:.3e} after {iters} steps"
                )
            sv = alpha > 0.0
            pair = PairModel(
                positive=ci,
                negative=cj,
                sv_features=np.ascontiguousarray(x[sv]),
                sv_coef=alpha[sv] * y[sv],
                alphas=alpha[sv],
                bias=float(bias),
                gamma=float(gamma),
            )
            pairs.append(pair)
    return SvmModel(
        classes=classes, pairs=pairs, gamma=float(gamma), n_features=features.shape[1]
    )


def predict(model: SvmModel, features: np.ndarray) -> np.ndarray:
    """One-vs-one majority vote; vote ties go to the lowest class id."""
    features = np.ascontiguousarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.n_features:
        raise DataError(
            f"feature dimension {features.shape[1] if features.ndim == 2 else '?'} "
            f"does not match model ({model.n_features})"
        )
    if not np.isfinite(features).all():
        raise DataError("SVM features must be finite")
    votes = np.zeros((features.shape[0], model.classes.size), dtype=np.int64)
    col = {int(cls): i for i, cls in enumerate(model.classes)}
    for pair in model.pairs:
        dec = pair.decision(features)
        votes[dec > 0, col[pair.positive]] += 1
        votes[dec <= 0, col[pair.negative]] += 1
    return model.classes[np.argmax(votes, axis=1)]


def knn_predict(
    train_features: np.ndarray, train_labels: np.ndarray, test_features: np.ndarray
) -> np.ndarray:
    """1-NN under Euclidean distance; distance ties go to the lowest train
    pixel index."""
    train = np.ascontiguousarray(train_features, dtype=np.float64)
    test = np.ascontiguousarray(test_features, dtype=np.float64)
    labels = integers(train_labels, "1-NN labels")
    if train.shape[0] == 0:
        raise DataError("1-NN needs a nonempty training set")
    if train.ndim != 2 or test.ndim != 2 or train.shape[1] != test.shape[1]:
        raise DataError("train and test feature dimensions differ")
    if labels.shape != train.shape[:1]:
        raise DataError("1-NN needs one label per train row")
    if not (np.isfinite(train).all() and np.isfinite(test).all()):
        raise DataError("1-NN features must be finite")
    return labels[accel.nn1_index(train, test)]


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Counts with rows = true class, columns = predicted class."""

    classes: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        k = len(self.classes)
        if counts.shape != (k, k) or (counts < 0).any():
            raise DataError("confusion matrix must be square and nonnegative")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def overall_accuracy(cm: ConfusionMatrix) -> float:
    return float(np.trace(cm.counts) / cm.total)


def cohen_kappa(cm: ConfusionMatrix) -> float:
    # integer form of (p_o - p_e) / (1 - p_e): one exact division at the end
    total = cm.total
    trace = int(np.trace(cm.counts))
    chance = int((cm.counts.sum(axis=1) * cm.counts.sum(axis=0)).sum())
    denominator = total * total - chance
    if denominator == 0:  # p_e == 1: all mass on one class on both sides
        return 1.0 if trace == total else 0.0
    return (total * trace - chance) / denominator


def per_class_accuracy(cm: ConfusionMatrix) -> np.ndarray:
    """Producer's accuracy diag/row-sum; NaN for classes absent from test."""
    row = cm.counts.sum(axis=1)
    with np.errstate(invalid="ignore"):
        acc = np.where(row > 0, np.diag(cm.counts) / np.maximum(row, 1), np.nan)
    return acc


@dataclass(frozen=True, eq=False)
class EvalReport:
    matrix: ConfusionMatrix
    per_class: np.ndarray
    oa: float
    kappa: float


def evaluate(pred, truth, classes=None) -> EvalReport:
    """Confusion matrix and summary metrics for one prediction run.

    ``classes`` defaults to the sorted union of labels seen in either
    series; pass the ground truth's class list to keep rows for classes
    missing from the test split (their accuracy is reported as NaN).
    """
    pred = integers(pred, "predicted labels")
    truth = integers(truth, "true labels")
    if pred.shape != truth.shape or pred.ndim != 1 or pred.size < 1:
        raise DataError("pred and truth must be equal-length nonempty 1-D series")
    if classes is None:
        classes = np.unique(np.concatenate([truth, pred]))
    else:
        classes = integers(classes, "classes")
        if classes.ndim != 1 or (np.diff(classes) <= 0).any():
            raise DataError("classes must be a strictly increasing 1-D list")
    ti = np.searchsorted(classes, truth)
    pi = np.searchsorted(classes, pred)
    if (
        (ti >= classes.size).any()
        or (pi >= classes.size).any()
        or (classes[ti] != truth).any()
        or (classes[pi] != pred).any()
    ):
        raise DataError("labels outside the declared class list")
    counts = np.zeros((classes.size, classes.size), dtype=np.int64)
    np.add.at(counts, (ti, pi), 1)
    cm = ConfusionMatrix(classes=classes, counts=counts)
    return EvalReport(
        matrix=cm,
        per_class=per_class_accuracy(cm),
        oa=overall_accuracy(cm),
        kappa=cohen_kappa(cm),
    )
