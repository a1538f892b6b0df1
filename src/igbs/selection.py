"""Greedy forward band selection.

Five criteria share one loop: plain relevance ranking (MIM), Battiti's
beta-penalized criterion (MIFS), the cardinality-normalized redundancy
criterion (MRMR), a threshold-gated estimated-ground-truth filter (MIBF),
and the information-gain criterion (IGBS) that adds the normalized
interaction between the class map, the estimated class map and the
candidate band to the relevance term.

``init_state`` is the one place a greedy run turns ``(qcube, gt)`` into
arrays: it extracts the labeled pixels once and takes every band's
relevance and entropy once, so ``init_state(qcube, gt).relevance`` is the
relevance vector.

Each step scores all remaining candidates as one array
(``score_mifs``/``score_mrmr``/``score_igbs(cands, state, ...)``, or the
relevance for MIM) and picks with ``np.argmax``, whose first maximum is the
lowest band index, so scores equal in float bits go to the lowest band;
scores equal only as real numbers may not (see the README's determinism
paragraph). One stacked count per step gives every candidate's MI
against the newest pick (MIFS, MRMR) or the (labels, estimate) pair
(IGBS, over the pairs that occur only), each with the bits of one
``mutual_information`` call. MIFS and MRMR add the newest pick's MI to a
running redundancy sum per band, in selection order.
``SelectionState.select`` keeps the selected rows' exact integer sum, from
which each estimated class map is derived where it is scored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datamodel import (
    DiscreteSeries,
    GroundTruth,
    QuantizedCube,
    labeled_matrix,
    round_half_up,
)
from .errors import ConfigError, DataError, cast_value, integer
from .infotheory import entropy, joint_entropies, mutual_information, pair_series

METHODS = ("MIM", "MIFS", "MRMR", "MIBF", "IGBS")

DEFAULT_BETA = 0.5  # Battiti's recommended range is [0.5, 1]
DEFAULT_THRESHOLD = -0.02
DEFAULT_LAMBDA = 1.0


@dataclass
class SelectionState:
    """Working state of one greedy run; score functions read it, and
    ``select`` moves a band from ``remaining`` to ``selected``."""

    matrix: np.ndarray  # (bands, n_labeled) uint8 quantized values, C-ordered
    labels: DiscreteSeries
    levels: int
    relevance: np.ndarray
    band_entropy: np.ndarray  # H(band) of every row of the matrix
    band_sum: np.ndarray  # int64 sum of the selected rows of the matrix
    redundancy: np.ndarray  # summed MI with the first `folded` selected bands, per band
    folded: int = 0
    selected: list[int] = field(default_factory=list)
    remaining: list[int] = field(default_factory=list)
    _pair_mi: dict = field(default_factory=dict, repr=False)

    def select(self, band: int) -> None:
        self.selected.append(band)
        self.remaining.remove(band)
        self.band_sum += self.matrix[band]

    def pair_mi(self, i: int, j: int) -> float:
        """MI(i; j) as ``fill_pair_mi`` cached it, the cache's one writer."""
        return self._pair_mi[(i, j) if i < j else (j, i)]

    def fill_pair_mi(self, band: int, cands) -> None:
        """Cache MI(c; band) for every c of ``cands`` from one stacked count.

        The bits are those of ``mutual_information`` on the two rows wrapped
        as series: the count of (band, c) is transposed so that c is the row
        variable, and H(c), H(band) are the ``band_entropy`` entries, which
        equal the joint's row and column sums' entropies.
        """
        row = DiscreteSeries(self.matrix[band], self.levels)
        (joint,) = joint_entropies(row, [self.matrix[c] for c in cands], self.levels,
                                   lambda counts: counts.transpose(0, 2, 1))
        mi = (self.band_entropy[cands] + self.band_entropy[band]) - joint
        for c, value in zip(cands, mi.tolist()):
            self._pair_mi[(c, band) if c < band else (band, c)] = value

    def rebuild_estimated_gt(self) -> DiscreteSeries:
        """The estimated class map of the current selection."""
        return _estimated_map(self.band_sum, len(self.selected), self.levels)


@dataclass(frozen=True)
class SelectionResult:
    method: str
    selected: list[int]
    step_scores: list[float]


def _estimated_map(band_sum: np.ndarray, count: int, levels: int) -> DiscreteSeries:
    """The pixel-wise mean of ``count`` labeled rows that sum to ``band_sum``,
    rounded half-up: the estimated class map."""
    return DiscreteSeries(symbols=round_half_up(band_sum / count).astype(np.int64),
                          alphabet=levels)


def estimate_fold(estimates: np.ndarray, est_alphabet: int):
    """The fold of (pair, band) count blocks onto (estimate, band) counts,
    where pair p has the estimate ``estimates[p]``: a function from a
    (rows, pairs, levels) block to the int64 (rows, est_alphabet, levels)
    block of each estimate's sum over its pairs. The sums are one float64
    product with the 0/1 (estimate, pair) matrix, exact in any order,
    since every count and every partial sum is an integer below 2^53."""
    member = np.zeros((est_alphabet, len(estimates)))
    member[estimates, np.arange(len(estimates))] = 1.0
    return lambda counts: np.matmul(member, counts).astype(np.int64)


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
    return _estimated_map(labeled_matrix(qcube, gt, idx).sum(axis=0), len(idx), qcube.levels)


def _redundancy(cands, state: SelectionState) -> np.ndarray:
    """Each candidate's MI with the selected bands, summed in selection order.

    The sums run on the state: each band selected since the last call is
    folded in once, with one stacked count against every remaining band, so
    a step counts and adds only its newest band's MI. ``cands`` are
    remaining bands.
    """
    for band in state.selected[state.folded:]:
        state.fill_pair_mi(band, state.remaining)
        state.redundancy[state.remaining] += [state.pair_mi(c, band) for c in state.remaining]
    state.folded = len(state.selected)
    return state.redundancy[cands]


def score_mifs(cands, state: SelectionState, beta: float = DEFAULT_BETA) -> np.ndarray:
    """Relevance minus beta times the summed redundancy to selected bands."""
    return state.relevance[cands] - beta * _redundancy(cands, state)


def score_mrmr(cands, state: SelectionState) -> np.ndarray:
    """Relevance minus the mean redundancy to selected bands."""
    if not state.selected:
        raise ConfigError("MRMR score needs at least one selected band")
    return state.relevance[cands] - _redundancy(cands, state) / len(state.selected)


def score_igbs(cands, state: SelectionState, lam: float = DEFAULT_LAMBDA) -> np.ndarray:
    """Relevance plus the normalized three-way interaction of the class map,
    the estimated class map and each candidate: MI((labels, estimate); c) −
    relevance − MI(estimate; c), both joints from one stacked count."""
    if not state.selected:
        raise ConfigError("IGBS score needs at least one selected band")
    est = state.rebuild_estimated_gt()
    pair = pair_series(state.labels, est)
    # count against the occupied pairs only, relabelled in increasing order:
    # every nonzero cell keeps its place in C order, so each entropy its bits
    occupied = np.bincount(pair.symbols, minlength=pair.alphabet) > 0
    rank = np.cumsum(occupied) - 1
    estimates = np.flatnonzero(occupied) % est.alphabet
    joint_pair, joint_est = joint_entropies(
        DiscreteSeries(rank[pair.symbols], len(estimates)), [state.matrix[c] for c in cands],
        state.levels, lambda counts: counts, estimate_fold(estimates, est.alphabet))
    h, rel = state.band_entropy[cands], state.relevance[cands]
    gain = (((entropy(pair) + h) - joint_pair) - rel) - ((entropy(est) + h) - joint_est)
    return rel + lam * gain / len(state.selected)


def init_state(qcube: QuantizedCube, gt: GroundTruth) -> SelectionState:
    """Every band's labeled pixels, extracted once, with their relevance and entropy."""
    matrix = labeled_matrix(qcube, gt)
    series = [DiscreteSeries(symbols=row, alphabet=qcube.levels) for row in matrix]
    # class ranks, not ids: histograms are sized by the class count, and a
    # monotone relabeling keeps every nonzero cell in order, so MI is unchanged
    labels = DiscreteSeries(symbols=gt.ranks, alphabet=gt.classes.size)
    return SelectionState(
        matrix=matrix,
        labels=labels,
        levels=qcube.levels,
        relevance=relevance_scores(series, labels),
        band_entropy=np.array([entropy(s) for s in series]),
        band_sum=np.zeros(matrix.shape[1], dtype=np.int64),
        redundancy=np.zeros(matrix.shape[0]),
        remaining=list(range(qcube.bands)),
    )


def _step_scores(method: str, state: SelectionState, beta: float, lam: float) -> np.ndarray:
    """The scores of every remaining candidate at one greedy step."""
    cands = state.remaining
    if method == "MIM":
        return state.relevance[cands]
    if method == "IGBS":
        return score_igbs(cands, state, lam)
    if method == "MIFS":
        return score_mifs(cands, state, beta)
    return score_mrmr(cands, state)


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
    k = cast_value(k, integer, ConfigError, "k")
    if not 1 <= k <= qcube.bands:
        raise ConfigError(f"k must be in [1, {qcube.bands}], got {k}")
    if not np.isfinite([beta, threshold, lam]).all():
        raise ConfigError(f"NaN or infinity among beta={beta}, threshold={threshold}, lambda={lam}")

    state = init_state(qcube, gt)
    first = int(np.argmax(state.relevance))
    scores = [float(state.relevance[first])]
    state.select(first)
    if method == "MIBF":
        _mibf_loop(state, k, threshold, scores)
    else:
        # a huge beta or lambda overflows a score to ±inf, which still ranks
        with np.errstate(over="ignore"):
            while len(state.selected) < k and state.remaining:
                step = _step_scores(method, state, beta, lam)
                pick = int(np.argmax(step))
                scores.append(float(step[pick]))
                state.select(state.remaining[pick])

    return SelectionResult(
        method=method, selected=list(state.selected), step_scores=scores
    )


def _mibf_loop(state: SelectionState, k: int, threshold: float, scores: list) -> None:
    # candidates visited once each, in descending relevance (ties: lowest
    # index), so a rejected candidate is discarded for good
    order = sorted(state.remaining, key=lambda b: (-state.relevance[b], b))
    # the map of the one selected band is that band, so its MI is relevance
    current_mi = float(state.relevance[state.selected[0]])
    for cand in order:
        if len(state.selected) >= k:
            break
        trial = _estimated_map(state.band_sum + state.matrix[cand],
                               len(state.selected) + 1, state.levels)
        trial_mi = mutual_information(trial, state.labels)
        gain = trial_mi - current_mi
        if gain > threshold:
            state.select(cand)
            current_mi = trial_mi
            scores.append(float(gain))
