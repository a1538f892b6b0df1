"""Greedy forward band selection.

Five criteria share one loop: plain relevance ranking (MIM), Battiti's
beta-penalized criterion (MIFS), the cardinality-normalized redundancy
criterion (MRMR), a threshold-gated estimated-ground-truth filter (MIBF),
and the information-gain criterion (IGBS) that adds the normalized
interaction between the class map, the estimated class map and the
candidate band to the relevance term.

``init_state`` is the one place a greedy run turns ``(qcube, gt)`` into
arrays: it extracts the labeled pixels once, wraps each band row as a
``DiscreteSeries`` once and scores band relevance from those series, so
``init_state(qcube, gt).relevance`` is the relevance vector.

Each MIFS, MRMR or IGBS step counts every remaining candidate against the
newest pick, or against the (labels, estimate) pair, in one stacked count
(``SelectionState.fill_pair_mi`` / ``fill_igbs_mi``); every MI value has
the bits of one ``mutual_information`` call per pair, so scores and picks
are those of the one-pair loop. Band entropies are computed once per run,
on first use.

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
from .infotheory import entropy, joint_entropies, mutual_information, pair_series

METHODS = ("MIM", "MIFS", "MRMR", "MIBF", "IGBS")

DEFAULT_BETA = 0.5  # Battiti's recommended range is [0.5, 1]
DEFAULT_THRESHOLD = -0.02
DEFAULT_LAMBDA = 1.0


@dataclass
class SelectionState:
    """Working state of one greedy run; score functions read it, the loop
    mutates it."""

    matrix: np.ndarray  # (bands, n_labeled) quantized values, C-ordered
    series: list[DiscreteSeries]  # one per row of the matrix
    labels: DiscreteSeries
    levels: int
    relevance: np.ndarray
    selected: list[int] = field(default_factory=list)
    remaining: list[int] = field(default_factory=list)
    estimated_gt: DiscreteSeries | None = None
    _pair_mi: dict = field(default_factory=dict, repr=False)
    _gt_est_pair: DiscreteSeries | None = field(default=None, repr=False)
    # band -> (MI((labels, estimate); band), MI(estimate; band)) for the
    # current estimate
    _igbs_mi: dict = field(default_factory=dict, repr=False)
    _entropy: np.ndarray | None = field(default=None, repr=False)

    def band_entropy(self) -> np.ndarray:
        """H(band) of every band, computed on first use."""
        if self._entropy is None:
            self._entropy = np.array([entropy(s) for s in self.series])
        return self._entropy

    def pair_mi(self, i: int, j: int) -> float:
        key = (i, j) if i < j else (j, i)
        if key not in self._pair_mi:
            self.fill_pair_mi(j, [i])
        return self._pair_mi[key]

    def fill_pair_mi(self, band: int, cands) -> None:
        """Cache MI(c; band) for every c of ``cands`` from one stacked count.

        The bits are those of ``mutual_information(series[c], series[band])``:
        the count of (band, c) is transposed so that c is the row variable,
        and H(c), H(band) come from each band's own counts, which equal the
        joint's row and column sums.
        """
        (joint,) = joint_entropies(self.series[band], [self.matrix[c] for c in cands],
                                   self.levels, lambda counts: counts.transpose(0, 2, 1))
        h = self.band_entropy()
        mi = (h[cands] + h[band]) - joint
        for c, value in zip(cands, mi.tolist()):
            self._pair_mi[(c, band) if c < band else (band, c)] = value

    def rebuild_estimated_gt(self) -> None:
        self.estimated_gt = _estimated_map(self.matrix, self.selected, self.levels)
        self._gt_est_pair = pair_series(self.labels, self.estimated_gt)
        self._igbs_mi = {}

    def fill_igbs_mi(self, cands) -> None:
        """Cache both MI terms of ``score_igbs`` for every c of ``cands``
        from one stacked count of ((labels, estimate), c).

        The (estimate, c) joint is that count summed over the label axis,
        which is exact in integers, so both terms have the bits of
        ``mutual_information(pair, series[c])`` and
        ``mutual_information(estimated_gt, series[c])``.
        """
        est, pair = self.estimated_gt, self._gt_est_pair
        joint_pair, joint_est = joint_entropies(
            pair, [self.matrix[c] for c in cands], self.levels, lambda counts: counts,
            lambda counts: estimate_joint(counts, est.alphabet))
        h = self.band_entropy()[cands]
        mi_pair = (entropy(pair) + h) - joint_pair
        mi_est = (entropy(est) + h) - joint_est
        self._igbs_mi.update(zip(cands, zip(mi_pair.tolist(), mi_est.tolist())))


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


def estimate_joint(counts: np.ndarray, est_alphabet: int) -> np.ndarray:
    """The (estimate, band) joint counts of a ((labels, estimate), band)
    count block: its exact integer sum over the label axis."""
    rows, pairs, levels = counts.shape
    return counts.reshape(rows, pairs // est_alphabet, est_alphabet, levels).sum(axis=1)


def relevance_scores(series, labels: DiscreteSeries) -> np.ndarray:
    """MI(band, ground truth) in bits, for every band series."""
    return np.array([mutual_information(s, labels) for s in series])


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
    if candidate not in state._igbs_mi:
        state.fill_igbs_mi([candidate])
    # interaction_information(labels, estimated_gt, cand) decomposed so that
    # the (labels, estimated_gt) pair and the relevance cache are reused
    mi_pair, mi_est = state._igbs_mi[candidate]
    gain = mi_pair - float(state.relevance[candidate]) - mi_est
    return float(state.relevance[candidate]) + lam * gain / len(state.selected)


def init_state(qcube: QuantizedCube, gt: GroundTruth) -> SelectionState:
    """The labeled pixels of every band, extracted once, and their relevance."""
    matrix = labeled_matrix(qcube, gt)
    series = [DiscreteSeries(symbols=row, alphabet=qcube.levels) for row in matrix]
    # class ranks, not ids: histograms are sized by the class count, and a
    # monotone relabeling keeps every nonzero cell in order, so MI is unchanged
    ranks = np.searchsorted(gt.classes, label_series(gt).symbols)
    labels = DiscreteSeries(symbols=ranks, alphabet=gt.classes.size)
    return SelectionState(
        matrix=matrix,
        series=series,
        labels=labels,
        levels=qcube.levels,
        relevance=relevance_scores(series, labels),
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
            # one stacked count per step scores every remaining candidate
            if method == "IGBS":
                state.rebuild_estimated_gt()
                state.fill_igbs_mi(state.remaining)
            elif method != "MIM":
                state.fill_pair_mi(state.selected[-1], state.remaining)
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
        trial = _estimated_map(state.matrix, state.selected + [cand], state.levels)
        trial_mi = mutual_information(trial, state.labels)
        gain = trial_mi - current_mi
        state.remaining.remove(cand)
        if gain > threshold:
            state.selected.append(cand)
            current_mi = trial_mi
            scores.append(float(gain))
