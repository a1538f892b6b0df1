"""Classification harness: stratified splitting, a one-vs-one RBF SVM
trained by sequential minimal optimization, a deterministic 1-NN baseline,
and the evaluation metrics (confusion matrix, per-class accuracy, overall
accuracy, Cohen's kappa).

Features handed to the classifiers are the selected bands' quantized values
scaled to [0, 1].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import accel
from .datamodel import GroundTruth, integers
from .errors import ConfigError, DataError, MethodError, cast_value, integer

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
    seed = cast_value(seed, integer, ConfigError, "seed")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    train, test = [], []
    for rank, cls in enumerate(gt.classes):
        idx = np.flatnonzero(gt.ranks == rank)
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


def _features(values, what: str) -> np.ndarray:
    """``values`` as a C-ordered float64 (n, d) array with d >= 1 and every
    entry finite; anything else raises DataError naming ``what``."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] < 1:
        raise DataError(f"{what} must be (n, d) with d >= 1, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise DataError(f"{what} must be finite")
    return values


@dataclass(frozen=True, eq=False)
class PairModel:
    """One binary one-vs-one model: `positive` wins where its decision is
    > 0, `negative` where it is <= 0."""

    positive: int
    negative: int
    alphas: np.ndarray  # duals over the pair's support vectors, in (0, C]
    bias: float


@dataclass(frozen=True, eq=False)
class SvmModel:
    """One-vs-one RBF SVM that holds each support row once.

    Rows ``bounds[r]:bounds[r + 1]`` of ``sv_rows`` are the support rows of
    class rank r, in training-row order. ``coef[u, s]`` is row u's
    alpha * y in the pair of its class and class rank s, and 0 where u is no
    support vector of that pair. The decision of the pair of ranks (i, j)
    is the kernel against class i's rows times their ``coef`` column j,
    plus the kernel against class j's rows times their column i, plus the
    pair's bias.
    """

    classes: np.ndarray
    pairs: list
    gamma: float
    sv_rows: np.ndarray
    bounds: np.ndarray
    coef: np.ndarray


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
    features = _features(features, "SVM features")
    labels = integers(labels, "SVM labels")
    if labels.shape != features.shape[:1]:
        raise DataError("features must be (n, d) with one label per row")
    classes, ranks = np.unique(labels, return_inverse=True)
    if classes.size < 2:
        raise DataError("training data must contain at least 2 classes")
    if gamma is None:
        gamma = 1.0 / features.shape[1]
    c, gamma, tol = float(c), float(gamma), float(tol)
    if not all(0.0 < v < math.inf for v in (c, gamma, tol)):  # NaN fails too
        raise ConfigError("c, gamma and tol must all be finite and positive")

    pairs = []
    coef = np.zeros((features.shape[0], classes.size))
    for (ri, ci), (rj, cj) in itertools.combinations(enumerate(classes.tolist()), 2):
        mask = (ranks == ri) | (ranks == rj)
        x = features[mask]
        y = np.where(ranks[mask] == ri, 1.0, -1.0)
        alpha, bias, iters, gap = accel.smo_solve(x, y, gamma, c, tol, DEFAULT_MAX_ITER)
        if not gap <= tol:  # a NaN gap has not converged either
            raise MethodError(
                f"SMO did not converge for class pair ({ci}, {cj}): "
                f"gap {gap:.3e} after {iters} steps"
            )
        sv = alpha > 0.0
        # a class ri row keeps its alpha * y in column rj, a class rj row in column ri
        coef[np.flatnonzero(mask)[sv], np.where(y[sv] > 0.0, rj, ri)] = alpha[sv] * y[sv]
        pairs.append(PairModel(positive=ci, negative=cj, alphas=alpha[sv], bias=float(bias)))
    # the support rows, grouped by class rank in training-row order
    used = np.flatnonzero(coef.any(axis=1))
    used = used[np.argsort(ranks[used], kind="stable")]
    return SvmModel(
        classes=classes,
        pairs=pairs,
        gamma=gamma,
        sv_rows=features[used],
        bounds=np.searchsorted(ranks[used], np.arange(classes.size + 1)),
        coef=coef[used],
    )


def predict(model: SvmModel, features: np.ndarray) -> np.ndarray:
    """One-vs-one majority vote; vote ties go to the lowest class id.

    The query rows are spread evenly over the fewest blocks whose kernel
    against ``model.sv_rows`` holds at most ``accel.QUERY_BLOCK`` entries,
    and no block holds a single row, even where two rows exceed that: a
    one-row product goes through GEMV, whose bits differ from GEMM's. Each
    block forms that one kernel and one product per class block of it with
    the class's ``coef`` rows, which gives every pair's share from that
    class's support rows. |features|^2 and |sv_rows|^2 are formed once.
    """
    features = _features(features, "SVM features")
    if features.shape[1] != model.sv_rows.shape[1]:
        raise DataError(f"feature dimension {features.shape[1]} does not match model "
                        f"({model.sv_rows.shape[1]})")
    n, n_cls = features.shape[0], model.classes.size
    first = np.searchsorted(model.classes, [p.positive for p in model.pairs])
    second = np.searchsorted(model.classes, [p.negative for p in model.pairs])
    bias = np.array([p.bias for p in model.pairs])
    # the share array below holds n_cls^2 entries per row, the kernel one per support row
    per_block = max(1, accel.QUERY_BLOCK // max(model.sv_rows.shape[0], n_cls * n_cls))
    blocks = max(1, min(-(-n // per_block), n // 2))
    edges = (np.arange(blocks + 1) * n // blocks).tolist()
    bounds = model.bounds.tolist()
    out = np.empty(n, dtype=np.int64)
    ff = np.einsum("ij,ij->i", features, features)
    vv = np.einsum("ij,ij->i", model.sv_rows, model.sv_rows)
    for s, e in zip(edges[:-1], edges[1:]):
        k = accel.rbf_kernel(features[s:e], model.sv_rows, model.gamma, ff[s:e], vv)
        # share[r, :, t]: class r's support rows' term in the pair (r, t)
        b = e - s
        share = np.empty((n_cls, b, n_cls))
        for r in range(n_cls):
            lo, hi = bounds[r], bounds[r + 1]
            np.matmul(k[:, lo:hi], model.coef[lo:hi], out=share[r])
        del k  # the next block's kernel is formed beside no other
        dec = share[first, :, second] + share[second, :, first] + bias[:, None]
        # each pair's vote per row as a class rank; a NaN decision votes for
        # no class (rank n_cls), as it does in the per-pair form
        won = np.where(dec > 0.0, first[:, None], np.where(dec <= 0.0, second[:, None], n_cls))
        votes = np.bincount((won * b + np.arange(b)).ravel(), minlength=(n_cls + 1) * b)
        out[s:e] = votes.reshape(n_cls + 1, b)[:n_cls].argmax(axis=0)
    return model.classes[out]


def knn_predict(
    train_features: np.ndarray, train_labels: np.ndarray, test_features: np.ndarray
) -> np.ndarray:
    """1-NN under Euclidean distance; distance ties go to the lowest train
    pixel index."""
    train = _features(train_features, "1-NN train features")
    test = _features(test_features, "1-NN test features")
    labels = integers(train_labels, "1-NN labels")
    if train.shape[0] == 0:
        raise DataError("1-NN needs a nonempty training set")
    if train.shape[1] != test.shape[1]:
        raise DataError("train and test feature dimensions differ")
    if labels.shape != train.shape[:1]:
        raise DataError("1-NN needs one label per train row")
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
    if denominator == 0:  # p_e == 1: every count in one diagonal cell, so p_o == 1 too
        return 1.0
    return (total * trace - chance) / denominator


def per_class_accuracy(cm: ConfusionMatrix) -> np.ndarray:
    """Producer's accuracy diag/row-sum; NaN for classes absent from test."""
    row = cm.counts.sum(axis=1)
    with np.errstate(invalid="ignore"):
        return np.where(row > 0, np.diag(cm.counts) / np.maximum(row, 1), np.nan)


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
    both = np.concatenate([truth, pred])
    if classes is None:
        classes, ranks = np.unique(both, return_inverse=True)
    else:
        classes = integers(classes, "classes")
        if classes.ndim != 1 or (np.diff(classes) <= 0).any():
            raise DataError("classes must be a strictly increasing 1-D list")
        if not np.isin(both, classes).all():
            raise DataError("labels outside the declared class list")
        ranks = np.searchsorted(classes, both)
    cell = ranks[: truth.size] * classes.size + ranks[truth.size :]
    counts = np.bincount(cell, minlength=classes.size**2).reshape(classes.size, -1)
    cm = ConfusionMatrix(classes=classes, counts=counts)
    return EvalReport(
        matrix=cm,
        per_class=per_class_accuracy(cm),
        oa=overall_accuracy(cm),
        kappa=cohen_kappa(cm),
    )
