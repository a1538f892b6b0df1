"""Greedy forward band selection.

Five criteria share one loop: plain relevance ranking (MIM), Battiti's
beta-penalized criterion (MIFS), the cardinality-normalized redundancy
criterion (MRMR), a threshold-gated estimated-ground-truth filter (MIBF),
and the information-gain criterion (IGBS) that adds the normalized
interaction between the class map, the estimated class map and the
candidate band to the relevance term.

Every step breaks score ties toward the lowest band index, so results are
exactly reproducible regardless of how candidate scoring is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datamodel import (
    DiscreteSeries,
    GroundTruth,
    QuantizedCube,
    label_series,
    labeled_matrix,
    round_half_up,
)
from .errors import ConfigError, DataError
from .infotheory import mutual_information, pair_series

METHODS = ("MIM", "MIFS", "MRMR", "MIBF", "IGBS")

DEFAULT_BETA = 0.5  # Battiti's recommended range is [0.5, 1]
DEFAULT_THRESHOLD = -0.02
DEFAULT_LAMBDA = 1.0


@dataclass
class SelectionState:
    """Working state of one greedy run; score functions read it, the loop
    mutates it."""

    band_series: np.ndarray  # (bands, n_labeled) quantized values
    labels: DiscreteSeries
    levels: int
    relevance: np.ndarray
    selected: list[int] = field(default_factory=list)
    remaining: list[int] = field(default_factory=list)
    estimated_gt: DiscreteSeries | None = None
    _series: dict = field(default_factory=dict, repr=False)
    _pair_mi: dict = field(default_factory=dict, repr=False)
    _gt_est_pair: DiscreteSeries | None = field(default=None, repr=False)

    def band(self, i: int) -> DiscreteSeries:
        if i not in self._series:
            self._series[i] = DiscreteSeries(
                symbols=self.band_series[i], alphabet=self.levels
            )
        return self._series[i]

    def pair_mi(self, i: int, j: int) -> float:
        key = (i, j) if i < j else (j, i)
        if key not in self._pair_mi:
            self._pair_mi[key] = mutual_information(self.band(i), self.band(j))
        return self._pair_mi[key]

    def rebuild_estimated_gt(self) -> None:
        self.estimated_gt = _estimated_map(self.band_series, self.selected, self.levels)
        self._gt_est_pair = pair_series(self.labels, self.estimated_gt)


@dataclass(frozen=True)
class SelectionResult:
    method: str
    selected: list[int]
    step_scores: list[float]


def _estimated_map(matrix: np.ndarray, bands, levels: int) -> DiscreteSeries:
    """Pixel-wise mean of the given rows of a labeled matrix, rounded
    half-up: the estimated class map."""
    idx = list(bands)
    mean = matrix[idx].sum(axis=0) / len(idx)
    return DiscreteSeries(symbols=round_half_up(mean).astype(np.int64), alphabet=levels)


def relevance_scores(qcube: QuantizedCube, gt: GroundTruth) -> np.ndarray:
    """MI(band, ground truth) in bits, for every band, over labeled pixels."""
    mat = labeled_matrix(qcube, gt)
    labels = label_series(gt)
    return np.array(
        [
            mutual_information(
                DiscreteSeries(symbols=mat[b], alphabet=qcube.levels), labels
            )
            for b in range(qcube.bands)
        ]
    )


def build_estimated_gt(
    qcube: QuantizedCube, gt: GroundTruth, bands
) -> DiscreteSeries:
    """Proxy class map: pixel-wise mean of the given quantized bands over
    labeled pixels, rounded half-up."""
    idx = list(bands)
    if not idx:
        raise DataError("estimated ground truth needs at least one band")
    bad = [b for b in idx if not 0 <= b < qcube.bands]
    if bad:
        raise DataError(f"bands out of range [0, {qcube.bands}): {bad}")
    return _estimated_map(labeled_matrix(qcube, gt), idx, qcube.levels)


def score_mifs(candidate: int, state: SelectionState, beta: float = DEFAULT_BETA) -> float:
    """Relevance minus beta times the summed redundancy to selected bands."""
    red = sum(state.pair_mi(candidate, s) for s in state.selected)
    return float(state.relevance[candidate]) - beta * red


def score_mrmr(candidate: int, state: SelectionState) -> float:
    """Relevance minus the mean redundancy to selected bands."""
    if not state.selected:
        raise ConfigError("MRMR score needs at least one selected band")
    red = sum(state.pair_mi(candidate, s) for s in state.selected)
    return float(state.relevance[candidate]) - red / len(state.selected)


def score_igbs(candidate: int, state: SelectionState, lam: float = DEFAULT_LAMBDA) -> float:
    """Relevance plus the normalized three-way interaction of the class map,
    the estimated class map and the candidate."""
    if state._gt_est_pair is None:
        raise ConfigError("IGBS score needs an estimated ground truth")
    cand = state.band(candidate)
    # interaction_information(labels, estimated_gt, cand) decomposed so that
    # the cached (labels, estimated_gt) pair and the relevance cache are reused
    gain = (
        mutual_information(state._gt_est_pair, cand)
        - float(state.relevance[candidate])
        - mutual_information(state.estimated_gt, cand)
    )
    return float(state.relevance[candidate]) + lam * gain / len(state.selected)


def init_state(qcube: QuantizedCube, gt: GroundTruth) -> SelectionState:
    return SelectionState(
        band_series=labeled_matrix(qcube, gt),
        labels=label_series(gt),
        levels=qcube.levels,
        relevance=relevance_scores(qcube, gt),
        remaining=list(range(qcube.bands)),
    )


def _argmax_lowest(indices, score):
    best, best_s = None, None
    for i in indices:
        s = score(i)
        if best_s is None or s > best_s:
            best, best_s = i, s
    return best, best_s


def greedy_select(
    qcube: QuantizedCube,
    gt: GroundTruth,
    method: str,
    k: int,
    *,
    beta: float = DEFAULT_BETA,
    threshold: float = DEFAULT_THRESHOLD,
    lam: float = DEFAULT_LAMBDA,
) -> SelectionResult:
    """Select up to ``k`` bands with the given criterion.

    The first band is always the one of maximal relevance. MIBF may stop
    short of ``k`` when its acceptance threshold exhausts the candidates.
    """
    method = method.upper()
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}, expected one of {METHODS}")
    if not 1 <= k <= qcube.bands:
        raise ConfigError(f"k must be in [1, {qcube.bands}], got {k}")

    state = init_state(qcube, gt)
    relevance = lambda c: state.relevance[c]
    first, first_score = _argmax_lowest(state.remaining, relevance)
    state.selected.append(first)
    state.remaining.remove(first)
    scores = [float(first_score)]

    if method == "MIBF":
        _mibf_loop(state, k, threshold, scores)
    else:
        step_score = {
            "MIM": relevance,
            "MIFS": lambda c: score_mifs(c, state, beta),
            "MRMR": lambda c: score_mrmr(c, state),
            "IGBS": lambda c: score_igbs(c, state, lam),
        }[method]
        while len(state.selected) < k and state.remaining:
            if method == "IGBS":
                state.rebuild_estimated_gt()
            pick, pick_score = _argmax_lowest(state.remaining, step_score)
            state.selected.append(pick)
            state.remaining.remove(pick)
            scores.append(float(pick_score))

    return SelectionResult(
        method=method, selected=list(state.selected), step_scores=scores
    )


def _mibf_loop(state: SelectionState, k: int, threshold: float, scores: list) -> None:
    # candidates visited in descending relevance (ties: lowest index); a
    # rejected candidate is discarded for good
    order = sorted(state.remaining, key=lambda b: (-state.relevance[b], b))
    # the map of the one selected band is that band, so its MI is relevance
    current_mi = float(state.relevance[state.selected[0]])
    for cand in order:
        if len(state.selected) >= k:
            break
        trial = _estimated_map(state.band_series, state.selected + [cand], state.levels)
        trial_mi = mutual_information(trial, state.labels)
        gain = trial_mi - current_mi
        state.remaining.remove(cand)
        if gain > threshold:
            state.selected.append(cand)
            current_mi = trial_mi
            scores.append(float(gain))
