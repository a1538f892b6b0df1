import itertools

import numpy as np
import pytest

import brute
from igbs.datamodel import GroundTruth, QuantizedCube, label_series
from igbs.errors import ConfigError, DataError
from igbs.infotheory import entropy, mutual_information
from igbs.selection import (
    build_estimated_gt,
    greedy_select,
    init_state,
    relevance_scores,
    score_igbs,
    score_mifs,
    score_mrmr,
)


def make_instance(band_rows, labels, levels=None):
    """Labeled-pixel rows laid out on a 1 x n grid."""
    band_rows = np.asarray(band_rows, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    n = band_rows.shape[1]
    if levels is None:
        levels = int(band_rows.max()) + 1
    qcube = QuantizedCube(values=band_rows.reshape(-1, 1, n), levels=max(levels, 2))
    gt = GroundTruth(labels=labels.reshape(1, n))
    return qcube, gt


def random_instance(rng, bands=6, n=256, levels=4, classes=3):
    rows = rng.integers(0, levels, size=(bands, n))
    labels = rng.integers(1, classes + 1, size=n)
    labels[0], labels[1] = 1, 2
    return make_instance(rows, labels, levels=levels)


class TestRelevance:
    def test_band_equal_to_labels_scores_class_entropy(self):
        labels = np.array([1, 1, 2, 2, 3, 3])
        qcube, gt = make_instance([labels - 1], labels, levels=3)
        rel = relevance_scores(qcube, gt)
        h_gt = entropy(label_series(gt))
        assert rel[0] == pytest.approx(h_gt, abs=1e-12)

    def test_independent_band_scores_zero(self):
        qcube, gt = make_instance([[0, 1, 0, 1]], [1, 1, 2, 2], levels=2)
        assert relevance_scores(qcube, gt)[0] == pytest.approx(0.0, abs=1e-12)


class TestEstimatedGt:
    def test_single_band_unchanged(self):
        qcube, gt = make_instance([[3, 1, 0, 2]], [1, 2, 1, 2])
        est = build_estimated_gt(qcube, gt, [0])
        assert est.symbols.tolist() == [3, 1, 0, 2]

    def test_identical_bands_unchanged(self):
        qcube, gt = make_instance([[3, 1, 0, 2], [3, 1, 0, 2]], [1, 2, 1, 2])
        est = build_estimated_gt(qcube, gt, [0, 1])
        assert est.symbols.tolist() == [3, 1, 0, 2]

    def test_mean_rounds_half_up(self):
        qcube, gt = make_instance([[2, 0], [5, 0]], [1, 2], levels=16)
        est = build_estimated_gt(qcube, gt, [0, 1])
        assert est.symbols[0] == 4  # (2+5)/2 = 3.5 -> 4

    def test_empty_band_set_rejected(self):
        qcube, gt = make_instance([[0, 1]], [1, 2])
        with pytest.raises(DataError):
            build_estimated_gt(qcube, gt, [])


class TestScores:
    def test_mifs_without_selected_equals_relevance(self):
        qcube, gt = make_instance([[0, 1, 1, 0]], [1, 1, 2, 2])
        state = init_state(qcube, gt)
        assert score_mifs(0, state, beta=1.0) == pytest.approx(
            float(state.relevance[0])
        )

    def test_mifs_penalizes_duplicate_by_entropy(self):
        qcube, gt = make_instance(
            [[0, 1, 0, 1], [0, 1, 0, 1]], [1, 1, 2, 2], levels=2
        )
        state = init_state(qcube, gt)
        state.selected = [0]
        state.remaining = [1]
        h_band = entropy(state.band(1))
        expected = float(state.relevance[1]) - h_band
        assert score_mifs(1, state, beta=1.0) == pytest.approx(expected, abs=1e-12)
        assert score_mifs(1, state, beta=1.0) <= 0

    def test_mifs_beta_zero_is_relevance(self):
        rng = np.random.default_rng(0)
        qcube, gt = random_instance(rng)
        state = init_state(qcube, gt)
        state.selected = [0]
        state.remaining = [b for b in range(qcube.bands) if b != 0]
        for c in state.remaining:
            assert score_mifs(c, state, beta=0.0) == pytest.approx(
                float(state.relevance[c])
            )

    def test_mrmr_independent_candidate_keeps_relevance(self):
        # candidate jointly independent of the selected band
        qcube, gt = make_instance(
            [[0, 0, 1, 1], [0, 1, 0, 1]], [1, 2, 1, 2], levels=2
        )
        state = init_state(qcube, gt)
        state.selected = [0]
        state.remaining = [1]
        assert score_mrmr(1, state) == pytest.approx(float(state.relevance[1]))

    def test_mrmr_penalty_is_mean_not_sum(self):
        # two identical selected bands leave the mean redundancy unchanged
        qcube, gt = make_instance(
            [[0, 1, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]], [1, 1, 2, 2], levels=2
        )
        state = init_state(qcube, gt)
        state.selected = [0]
        one = score_mrmr(2, state)
        state.selected = [0, 1]
        two = score_mrmr(2, state)
        assert one == pytest.approx(two, abs=1e-12)

    def test_mrmr_requires_selected(self):
        qcube, gt = make_instance([[0, 1]], [1, 2])
        state = init_state(qcube, gt)
        with pytest.raises(ConfigError):
            score_mrmr(0, state)

    def test_igbs_requires_estimated_gt(self):
        qcube, gt = make_instance([[0, 1]], [1, 2])
        state = init_state(qcube, gt)
        state.selected = [0]
        with pytest.raises(ConfigError):
            score_igbs(0, state)


class TestIgbsScore:
    @staticmethod
    def _two_bit_state():
        # ground truth is the pair of two independent fair bits g1, g2;
        # band 0 = g1 (selected), band 1 = g2, band 2 = copy of g1
        combos = np.array(list(itertools.product([0, 1], repeat=2)), dtype=np.int64)
        g1, g2 = combos[:, 0], combos[:, 1]
        labels = 2 * g1 + g2 + 1
        qcube, gt = make_instance([g1, g2, g1.copy()], labels, levels=2)
        state = init_state(qcube, gt)
        state.selected = [0]
        state.remaining = [1, 2]
        state.rebuild_estimated_gt()
        return state

    def test_independent_candidate_keeps_relevance(self):
        # product-complete over ((gt, estimate), candidate)
        combos = np.array(list(itertools.product([0, 1], repeat=3)), dtype=np.int64)
        g, c = combos[:, 0], combos[:, 2]
        labels = g + 1
        qcube, gt = make_instance([g, c], labels, levels=2)
        state = init_state(qcube, gt)
        state.selected = [0]
        state.remaining = [1]
        state.rebuild_estimated_gt()
        assert score_igbs(1, state) == pytest.approx(
            float(state.relevance[1]), abs=1e-12
        )

    def test_xor_candidate_gains_full_bit(self):
        # gt = selected XOR candidate, balanced: zero relevance, +1 interaction
        combos = np.array(list(itertools.product([0, 1], repeat=2)), dtype=np.int64)
        b0, c = combos[:, 0], combos[:, 1]
        labels = (b0 ^ c) + 1
        qcube, gt = make_instance([b0, c], labels, levels=2)
        state = init_state(qcube, gt)
        state.selected = [0]
        state.remaining = [1]
        state.rebuild_estimated_gt()
        assert float(state.relevance[1]) == pytest.approx(0.0, abs=1e-12)
        assert score_igbs(1, state, lam=1.0) == pytest.approx(1.0, abs=1e-12)
        assert score_igbs(1, state, lam=0.5) == pytest.approx(0.5, abs=1e-12)

    def test_candidate_equal_to_estimate_is_pure_redundancy(self):
        state = self._two_bit_state()
        mi_gt_est = mutual_information(state.labels, state.estimated_gt)
        score = score_igbs(2, state, lam=1.0)
        assert score - float(state.relevance[2]) == pytest.approx(
            -mi_gt_est, abs=1e-12
        )

    def test_duplicate_never_beats_synergetic_candidate(self):
        state = self._two_bit_state()
        assert score_igbs(1, state) > score_igbs(2, state)


class TestGreedy:
    def test_k1_is_max_relevance_band(self):
        rng = np.random.default_rng(1)
        qcube, gt = random_instance(rng)
        rel = relevance_scores(qcube, gt)
        best = int(np.argmax(rel))
        for method in ("MIM", "MIFS", "MRMR", "MIBF", "IGBS"):
            res = greedy_select(qcube, gt, method, k=1)
            assert res.selected == [best]

    def test_mim_is_sorted_relevance(self):
        rng = np.random.default_rng(2)
        qcube, gt = random_instance(rng)
        rel = relevance_scores(qcube, gt)
        res = greedy_select(qcube, gt, "MIM", k=4)
        expected = sorted(range(qcube.bands), key=lambda b: (-rel[b], b))[:4]
        assert res.selected == expected

    def test_mifs_beta_zero_matches_mim(self):
        rng = np.random.default_rng(3)
        qcube, gt = random_instance(rng)
        mim = greedy_select(qcube, gt, "MIM", k=4)
        mifs = greedy_select(qcube, gt, "MIFS", k=4, beta=0.0)
        assert mifs.selected == mim.selected

    def test_second_pick_reduces_to_relevance_when_redundancy_flat(self):
        # all candidates jointly independent of band 0: equal (zero) redundancy
        combos = np.array(list(itertools.product([0, 1], repeat=3)), dtype=np.int64)
        b0 = combos[:, 0]
        b1 = combos[:, 1]
        b2 = combos[:, 1] & combos[:, 2]  # lower relevance than b1
        labels = 2 * combos[:, 0] + combos[:, 1] + 1
        qcube, gt = make_instance([b0, b1, b2], labels, levels=2)
        rel = relevance_scores(qcube, gt)
        assert rel[1] > rel[2]
        runner_up = 1
        for method, kwargs in (("MIFS", {"beta": 0.0}), ("MRMR", {})):
            res = greedy_select(qcube, gt, method, k=2, **kwargs)
            assert res.selected[1] == runner_up

    @pytest.mark.parametrize("method", ["MIM", "MIFS", "MRMR", "MIBF", "IGBS"])
    def test_matches_brute_reference(self, method):
        rng = np.random.default_rng(42)
        for _ in range(8):
            qcube, gt = random_instance(rng)
            res = greedy_select(qcube, gt, method, k=3)
            expected = brute.greedy_reference(
                qcube.values[:, 0, :].tolist(),
                gt.labels[0].tolist(),
                method,
                k=3,
            )
            assert res.selected == expected

    @pytest.mark.parametrize("method", ["MIM", "MIFS", "MRMR", "MIBF", "IGBS"])
    def test_deterministic_and_duplicate_free(self, method):
        rng = np.random.default_rng(5)
        qcube, gt = random_instance(rng)
        a = greedy_select(qcube, gt, method, k=4)
        b = greedy_select(qcube, gt, method, k=4)
        assert a.selected == b.selected
        assert a.step_scores == b.step_scores
        assert len(set(a.selected)) == len(a.selected)
        assert len(a.selected) <= 4
        assert len(a.step_scores) == len(a.selected)

    def test_igbs_steps_replayable(self):
        rng = np.random.default_rng(6)
        qcube, gt = random_instance(rng)
        res = greedy_select(qcube, gt, "IGBS", k=4)
        state = init_state(qcube, gt)
        state.selected = [res.selected[0]]
        state.remaining = [b for b in range(qcube.bands) if b != res.selected[0]]
        for step, accepted in enumerate(res.selected[1:], start=1):
            state.rebuild_estimated_gt()
            accepted_score = score_igbs(accepted, state)
            assert accepted_score == pytest.approx(res.step_scores[step], abs=1e-12)
            for other in state.remaining:
                if other != accepted:
                    assert accepted_score >= score_igbs(other, state)
            state.selected.append(accepted)
            state.remaining.remove(accepted)

    def test_mibf_lower_threshold_never_selects_fewer(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            qcube, gt = random_instance(rng, bands=8)
            loose = greedy_select(qcube, gt, "MIBF", k=6, threshold=-0.02)
            tight = greedy_select(qcube, gt, "MIBF", k=6, threshold=+0.02)
            assert len(loose.selected) >= len(tight.selected)

    def test_duplicate_band_loses_igbs_step(self):
        combos = np.array(list(itertools.product([0, 1], repeat=2)), dtype=np.int64)
        g1, g2 = combos[:, 0], combos[:, 1]
        labels = 2 * g1 + g2 + 1
        qcube, gt = make_instance([g1, g1.copy(), g2], labels, levels=2)
        res = greedy_select(qcube, gt, "IGBS", k=2)
        assert res.selected == [0, 2]

    def test_k_out_of_range_rejected(self):
        qcube, gt = make_instance([[0, 1], [1, 0]], [1, 2])
        with pytest.raises(ConfigError):
            greedy_select(qcube, gt, "MIM", k=3)
        with pytest.raises(ConfigError):
            greedy_select(qcube, gt, "MIM", k=0)

    def test_unknown_method_rejected(self):
        qcube, gt = make_instance([[0, 1]], [1, 2])
        with pytest.raises(ConfigError):
            greedy_select(qcube, gt, "RANDOM", k=1)
