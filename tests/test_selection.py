import itertools
import tracemalloc

import numpy as np
import pytest

import brute
from igbs import accel
from igbs.classify import stratified_split
from igbs.datamodel import DiscreteSeries, GroundTruth, QuantizedCube, quantize_cube
from igbs.errors import ConfigError, DataError
from igbs.infotheory import entropy, mutual_information, pair_series
from igbs.selection import (
    METHODS,
    SelectionState,
    build_estimated_gt,
    estimate_fold,
    greedy_select,
    init_state,
    score_igbs,
    score_mifs,
    score_mrmr,
)
from igbs.synth import SynthSpec, generate_cube


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


def row_series(state, band):
    """A band row of the state's matrix as the series the estimators take."""
    return DiscreteSeries(symbols=state.matrix[band], alphabet=state.levels)


def random_instance(rng, bands=6, n=256, levels=4, classes=3):
    rows = rng.integers(0, levels, size=(bands, n))
    labels = rng.integers(1, classes + 1, size=n)
    labels[0], labels[1] = 1, 2
    return make_instance(rows, labels, levels=levels)


class TestRelevance:
    def test_band_equal_to_labels_scores_class_entropy(self):
        labels = np.array([1, 1, 2, 2, 3, 3])
        qcube, gt = make_instance([labels - 1], labels, levels=3)
        rel = init_state(qcube, gt).relevance
        h_gt = entropy(DiscreteSeries(symbols=gt.ranks, alphabet=gt.classes.size))
        assert rel[0] == pytest.approx(h_gt, abs=1e-12)

    def test_independent_band_scores_zero(self):
        qcube, gt = make_instance([[0, 1, 0, 1]], [1, 1, 2, 2], levels=2)
        assert init_state(qcube, gt).relevance[0] == pytest.approx(0.0, abs=1e-12)


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

    def test_running_sum_matches_the_mean_of_the_rows(self):
        qcube, gt = random_instance(np.random.default_rng(11), bands=8, n=200, levels=16)
        state = init_state(qcube, gt)
        rows = qcube.values[:, 0, :].tolist()
        for count, band in enumerate((5, 0, 7, 2), start=1):
            state.select(band)
            picked, est = state.selected, state.rebuild_estimated_gt()
            assert est.symbols.tolist() == brute.estimated_gt(rows, picked)
            assert np.array_equal(build_estimated_gt(qcube, gt, picked).symbols, est.symbols)
            assert np.array_equal(state.band_sum, qcube.values[picked, 0, :].sum(axis=0))
            assert len(picked) == count and band not in state.remaining

    def test_empty_band_set_rejected(self):
        qcube, gt = make_instance([[0, 1]], [1, 2])
        with pytest.raises(DataError):
            build_estimated_gt(qcube, gt, [])

    def test_reads_only_its_own_bands(self):
        # 2 bands of a 220-band scene: the labeled matrix of every band
        # would hold ~110 planes' bytes at this labeled share
        rng = np.random.default_rng(13)
        qcube = QuantizedCube(values=rng.integers(0, 16, size=(220, 40, 40)), levels=16)
        gt = GroundTruth(labels=rng.integers(0, 3, size=(40, 40)))
        tracemalloc.start()
        try:
            est = build_estimated_gt(qcube, gt, [1, 4])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 8 * qcube.rows * qcube.cols  # 8 int64 planes
        mean = qcube.values[[1, 4]].reshape(2, -1)[:, gt.index].sum(axis=0) / 2
        assert np.array_equal(est.symbols, np.floor(mean + 0.5))


class TestScores:
    def test_mifs_without_selected_equals_relevance(self):
        qcube, gt = make_instance([[0, 1, 1, 0]], [1, 1, 2, 2])
        state = init_state(qcube, gt)
        assert score_mifs([0], state, beta=1.0)[0] == pytest.approx(
            float(state.relevance[0])
        )

    def test_mifs_penalizes_duplicate_by_entropy(self):
        qcube, gt = make_instance(
            [[0, 1, 0, 1], [0, 1, 0, 1]], [1, 1, 2, 2], levels=2
        )
        state = init_state(qcube, gt)
        state.select(0)
        h_band = entropy(row_series(state, 1))
        expected = float(state.relevance[1]) - h_band
        (score,) = score_mifs([1], state, beta=1.0)
        assert score == pytest.approx(expected, abs=1e-12)
        assert score <= 0

    def test_mifs_beta_zero_is_relevance(self):
        rng = np.random.default_rng(0)
        qcube, gt = random_instance(rng)
        state = init_state(qcube, gt)
        state.select(0)
        assert state.remaining == list(range(1, qcube.bands))
        assert score_mifs(state.remaining, state, beta=0.0) == pytest.approx(
            state.relevance[1:]
        )

    def test_mrmr_independent_candidate_keeps_relevance(self):
        # candidate jointly independent of the selected band
        qcube, gt = make_instance(
            [[0, 0, 1, 1], [0, 1, 0, 1]], [1, 2, 1, 2], levels=2
        )
        state = init_state(qcube, gt)
        state.select(0)
        assert score_mrmr([1], state)[0] == pytest.approx(float(state.relevance[1]))

    def test_mrmr_penalty_is_mean_not_sum(self):
        # two identical selected bands leave the mean redundancy unchanged
        qcube, gt = make_instance(
            [[0, 1, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]], [1, 1, 2, 2], levels=2
        )
        state = init_state(qcube, gt)
        state.select(0)
        one = score_mrmr([2], state)[0]
        state.select(1)
        two = score_mrmr([2], state)[0]
        assert one == pytest.approx(two, abs=1e-12)

    def test_mrmr_requires_selected(self):
        qcube, gt = make_instance([[0, 1]], [1, 2])
        state = init_state(qcube, gt)
        with pytest.raises(ConfigError):
            score_mrmr([0], state)

    def test_interleaved_scores_sum_in_selection_order(self):
        # selects and scores in any interleaving: each redundancy is the sum
        # of one-pair MIs over the selected bands, in selection order
        qcube, gt = random_instance(np.random.default_rng(11), bands=9, n=300, levels=16)
        state = init_state(qcube, gt)

        def redundancy(c):
            return sum(brute.mutual_information(row_series(state, c), row_series(state, s))
                       for s in state.selected)

        for picks in ([4], [1, 7], [], [0]):
            for band in picks:
                state.select(band)
            cands, n = state.remaining, len(state.selected)
            for _ in range(2):  # scoring again folds no band twice
                mifs = [float(state.relevance[c]) - 0.75 * redundancy(c) for c in cands]
                assert [v.hex() for v in score_mifs(cands, state, beta=0.75)] == [
                    v.hex() for v in mifs]
                mrmr = [float(state.relevance[c]) - redundancy(c) / n for c in cands[::2]]
                assert [v.hex() for v in score_mrmr(cands[::2], state)] == [
                    v.hex() for v in mrmr]

    def test_igbs_requires_selected(self):
        qcube, gt = make_instance([[0, 1], [1, 1]], [1, 2])
        state = init_state(qcube, gt)
        with pytest.raises(ConfigError):
            score_igbs([1], state)


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
        state.select(0)
        return state

    def test_independent_candidate_keeps_relevance(self):
        # product-complete over ((gt, estimate), candidate)
        combos = np.array(list(itertools.product([0, 1], repeat=3)), dtype=np.int64)
        g, c = combos[:, 0], combos[:, 2]
        labels = g + 1
        qcube, gt = make_instance([g, c], labels, levels=2)
        state = init_state(qcube, gt)
        state.select(0)
        assert score_igbs([1], state)[0] == pytest.approx(
            float(state.relevance[1]), abs=1e-12
        )

    def test_xor_candidate_gains_full_bit(self):
        # gt = selected XOR candidate, balanced: zero relevance, +1 interaction
        combos = np.array(list(itertools.product([0, 1], repeat=2)), dtype=np.int64)
        b0, c = combos[:, 0], combos[:, 1]
        labels = (b0 ^ c) + 1
        qcube, gt = make_instance([b0, c], labels, levels=2)
        state = init_state(qcube, gt)
        state.select(0)
        assert float(state.relevance[1]) == pytest.approx(0.0, abs=1e-12)
        assert score_igbs([1], state, lam=1.0)[0] == pytest.approx(1.0, abs=1e-12)
        assert score_igbs([1], state, lam=0.5)[0] == pytest.approx(0.5, abs=1e-12)

    def test_candidate_equal_to_estimate_is_pure_redundancy(self):
        state = self._two_bit_state()
        mi_gt_est = mutual_information(state.labels, state.rebuild_estimated_gt())
        (score,) = score_igbs([2], state, lam=1.0)
        assert score - float(state.relevance[2]) == pytest.approx(
            -mi_gt_est, abs=1e-12
        )

    def test_duplicate_never_beats_synergetic_candidate(self):
        state = self._two_bit_state()
        synergetic, duplicate = score_igbs([1, 2], state)
        assert synergetic > duplicate


class TestGreedy:
    # Both cases are score ties that hold as real numbers but not in float
    # bits, and exact integer entropies would make both pass.
    # - "reflected": a band and its reflection L-1-x have the same count
    #   multiset against the labels, so their MI is equal; the entropy sums
    #   its p*log2(p) terms in cell order, which the reflection reverses, and
    #   on this scene the reflection's float MI comes out higher.
    # - "desk": the desk-sweep benchmark's scene of seed 1, generated in
    #   memory (44 of that workload's 100 scenes meet such a tie). Bands 13
    #   and 31 carry the same class bit, and IGBS's second step scores them
    #   0x1.fe5174e9e6af8p-1 and 0x1.fe5174e9e6b00p-1, so it picks
    #   [45, 31].
    @pytest.mark.xfail(strict=True, reason="float MI breaks real-valued score ties")
    @pytest.mark.parametrize("case", ["reflected", "desk"])
    def test_reflected_band_tie_takes_lower_index(self, case):
        if case == "desk":
            cube, gt, _ = generate_cube(SynthSpec(rows=64, cols=64, bands=50, classes=4,
                                                  informative_bands=(4, 13, 22, 31, 45), seed=1))
            assert greedy_select(quantize_cube(cube, 16), gt, "IGBS", k=2).selected == [45, 13]
            return
        rng = np.random.default_rng(4)
        labels = rng.integers(1, 9, size=4000)
        band = np.minimum(labels + rng.integers(0, 9, size=4000), 15)
        qcube, gt = make_instance([band, 15 - band], labels, levels=16)
        firsts = [greedy_select(qcube, gt, m, k=2).selected[0] for m in ("MIM", "MIFS", "IGBS")]
        assert firsts == [0, 0, 0]

    def test_k1_is_max_relevance_band(self):
        rng = np.random.default_rng(1)
        qcube, gt = random_instance(rng)
        rel = init_state(qcube, gt).relevance
        best = int(np.argmax(rel))
        for method in ("MIM", "MIFS", "MRMR", "MIBF", "IGBS"):
            res = greedy_select(qcube, gt, method, k=1)
            assert res.selected == [best]

    def test_mim_is_sorted_relevance(self):
        rng = np.random.default_rng(2)
        qcube, gt = random_instance(rng)
        rel = init_state(qcube, gt).relevance
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
        rel = init_state(qcube, gt).relevance
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

    @pytest.mark.parametrize("method", ["MIM", "MIFS", "MRMR", "MIBF", "IGBS"])
    def test_one_estimated_map_per_igbs_step(self, monkeypatch, method):
        rebuild = SelectionState.rebuild_estimated_gt
        calls = []

        def counted(state):
            calls.append(len(state.selected))
            return rebuild(state)

        monkeypatch.setattr(SelectionState, "rebuild_estimated_gt", counted)
        qcube, gt = random_instance(np.random.default_rng(6), bands=8)
        greedy_select(qcube, gt, method, k=5)
        # IGBS: one map per step, of the 1, 2, 3 and 4 bands selected so far
        assert calls == ([1, 2, 3, 4] if method == "IGBS" else [])

    @pytest.mark.parametrize("method", ["MIFS", "MRMR"])
    def test_one_pair_mi_lookup_per_remaining_band_and_step(self, monkeypatch, method):
        # each step adds the newest pick's MI to every remaining band's sum;
        # summing over all selected bands at every step grew as k^2
        lookup = SelectionState.pair_mi
        calls = []

        def counted(state, i, j):
            calls.append((i, j))
            return lookup(state, i, j)

        monkeypatch.setattr(SelectionState, "pair_mi", counted)
        qcube, gt = random_instance(np.random.default_rng(12), bands=12)
        greedy_select(qcube, gt, method, k=8)
        assert len(calls) == sum(12 - step for step in range(1, 8))

    def test_igbs_steps_replayable(self):
        rng = np.random.default_rng(6)
        qcube, gt = random_instance(rng)
        res = greedy_select(qcube, gt, "IGBS", k=4)
        state = init_state(qcube, gt)
        state.select(res.selected[0])
        for step, accepted in enumerate(res.selected[1:], start=1):
            scores = score_igbs(state.remaining, state)
            accepted_score = scores[state.remaining.index(accepted)]
            assert accepted_score.hex() == res.step_scores[step].hex()
            assert (scores <= accepted_score).all()
            state.select(accepted)

    @pytest.mark.parametrize("method", ["MIM", "MIFS", "MRMR", "MIBF", "IGBS"])
    def test_sparse_class_ids_change_nothing(self, method):
        # class 2 is the largest id, so moving it to 100000 keeps the class
        # order and with it the order in which the estimators add up cells
        rng = np.random.default_rng(8)
        qcube, gt = random_instance(rng, classes=2)
        sparse = GroundTruth(labels=np.where(gt.labels == 2, 100_000, gt.labels))
        assert init_state(qcube, sparse).labels.alphabet == gt.classes.size
        dense = greedy_select(qcube, gt, method, k=4)
        relabeled = greedy_select(qcube, sparse, method, k=4)
        assert relabeled.selected == dense.selected
        assert [s.hex() for s in relabeled.step_scores] == [s.hex() for s in dense.step_scores]

    def test_class_ids_are_only_names(self):
        # a monotone relabeling keeps every class rank, so the split and every
        # estimator (histograms sized and ordered by rank) see the same data
        spec = SynthSpec(rows=12, cols=12, bands=8, classes=3, informative_bands=(1, 4, 6),
                         seed=3)
        cube, gt, _ = generate_cube(spec)
        qcube = quantize_cube(cube, 16)
        assert gt.classes.tolist() == [1, 2, 3]
        renamed = GroundTruth(labels=np.array([0, 3, 40, 65535])[gt.labels])
        assert renamed.classes.tolist() == [3, 40, 65535]
        for g in (gt, renamed):
            assert np.array_equal(g.ranks, np.searchsorted(g.classes, g.labels.flat[g.index]))
        assert np.array_equal(renamed.ranks, gt.ranks)
        plan, renamed_plan = stratified_split(gt, seed=5), stratified_split(renamed, seed=5)
        assert np.array_equal(renamed_plan.train_idx, plan.train_idx)
        assert np.array_equal(renamed_plan.test_idx, plan.test_idx)
        for method in METHODS:
            res, renamed_res = (greedy_select(qcube, g, method, k=5) for g in (gt, renamed))
            assert renamed_res.selected == res.selected
            assert ([s.hex() for s in renamed_res.step_scores]
                    == [s.hex() for s in res.step_scores])

    @pytest.mark.parametrize("levels", [4, 16])
    @pytest.mark.parametrize("method", ["MIM", "MIFS", "MRMR", "MIBF", "IGBS"])
    def test_runs_are_prefix_stable(self, method, levels):
        # a run to k stops where a longer run would go on, so every shorter
        # run, estimated map included, is a prefix of the longest one
        qcube, gt = random_instance(np.random.default_rng(12), bands=10, n=300,
                                    levels=levels, classes=4)
        full = greedy_select(qcube, gt, method, k=8)
        for j in range(1, 9):
            res = greedy_select(qcube, gt, method, k=j)
            assert res.selected == full.selected[:j]
            assert ([s.hex() for s in res.step_scores]
                    == [s.hex() for s in full.step_scores[:j]])

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

    @pytest.mark.parametrize("method, param", [("MIFS", "beta"), ("IGBS", "lam"),
                                               ("MIBF", "threshold"), ("MIM", "beta")])
    def test_nan_weight_rejected(self, method, param):
        # a NaN weight made every step score NaN, so argmax picked the first
        # remaining band, and a NaN threshold stopped MIBF after one band
        qcube, gt = random_instance(np.random.default_rng(4), bands=6, n=64)
        with pytest.raises(ConfigError, match="NaN"):
            greedy_select(qcube, gt, method, k=3, **{param: float("nan")})

    @pytest.mark.parametrize("method, param", [("MIFS", "beta"), ("IGBS", "lam"),
                                               ("MIBF", "threshold")])
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_weight_rejected(self, method, param, value):
        # beta=inf made a step score NaN, with numpy's RuntimeWarning
        qcube, gt = random_instance(np.random.default_rng(4), bands=6, n=64)
        with pytest.raises(ConfigError, match="infinity"):
            greedy_select(qcube, gt, method, k=3, **{param: value})

    @pytest.mark.parametrize("k", [2.5, True, float("nan")])
    def test_non_integer_k_rejected(self, k):
        # k=2.5 selected 3 bands
        qcube, gt = random_instance(np.random.default_rng(4), bands=6, n=64)
        with pytest.raises(ConfigError, match="bad k"):
            greedy_select(qcube, gt, "MIM", k=k)


# float.hex() of every step score, and the picks, of a k=8 run of each method
# on a 64x64x30, 5-class synthetic scene (4,096 labeled pixels, so a greedy
# step stacks 22-29 candidate rows of 4,096 symbols); reports print scores
# to 6 decimals, so only these pin a last-bit change in the estimators
GOLDEN_STEPS = {
    ('MIM', 16): (
        [11, 26, 3, 19, 28, 7, 29, 14],
        [
            '0x1.f3915b409a258p-1', '0x1.f2dfd4f11bd70p-1', '0x1.f2207e321c030p-1',
            '0x1.739e8ec95ed00p-1', '0x1.ea9b31406c200p-7', '0x1.b8b4b4291b400p-7',
            '0x1.a8c5b603ec600p-7', '0x1.a59958c123a00p-7',
        ],
    ),
    ('MIFS', 16): (
        [11, 26, 19, 3, 29, 12, 22, 16],
        [
            '0x1.f3915b409a258p-1', '0x1.e5163b9a41e50p-1', '0x1.101da5b0842acp-1',
            '0x1.68fe143e057d8p-2', '-0x1.79197336cb0c0p-5', '-0x1.0881931ce3680p-4',
            '-0x1.454868c0a67a0p-4', '-0x1.861e48324b8c0p-4',
        ],
    ),
    ('MRMR', 16): (
        [11, 26, 19, 3, 29, 28, 14, 22],
        [
            '0x1.f3915b409a258p-1', '0x1.d74ca24367f30p-1', '0x1.101da5b0842acp-1',
            '0x1.1e5f862560802p-1', '-0x1.0ee805b5cff40p-6', '-0x1.2b443ef455600p-6',
            '-0x1.3f0db92978656p-6', '-0x1.35e8b213664b7p-6',
        ],
    ),
    ('MIBF', 16): (
        [11, 26, 3],
        [
            '0x1.f3915b409a258p-1', '0x1.e2fd128ec9280p-2', '0x1.1b0bc94283e88p-2',
        ],
    ),
    ('IGBS', 16): (
        [11, 26, 3, 19, 28, 7, 24, 20],
        [
            '0x1.f3915b409a258p-1', '0x1.e8eb18848f910p-1', '0x1.654d6deaf1560p-1',
            '0x1.413292a87e468p-1', '0x1.2bd2e1680eb40p-6', '0x1.2841f5ac1f233p-6',
            '0x1.0f63235221ed5p-6', '0x1.fefc36f0fe0dcp-7',
        ],
    ),
    ('MIM', 4): (
        [11, 26, 3, 19, 24, 1, 4, 7],
        [
            '0x1.f16c54005eb00p-1', '0x1.effad127f1884p-1', '0x1.efd3ba8720358p-1',
            '0x1.70df5eb8d8dccp-1', '0x1.30efd26263c00p-8', '0x1.2f48fde84f400p-8',
            '0x1.1edd8f2a88400p-8', '0x1.041615d1c4e00p-8',
        ],
    ),
    ('MIFS', 4): (
        [11, 26, 19, 3, 4, 28, 20, 1],
        [
            '0x1.f16c54005eb00p-1', '0x1.ea7b6fcc063e0p-1', '0x1.1900803777384p-1',
            '0x1.8deed6b0f9440p-2', '0x1.a7f7073663000p-11', '-0x1.815e835e5e000p-12',
            '-0x1.34fbac2ce9000p-10', '-0x1.f97bc584f2800p-10',
        ],
    ),
    ('MRMR', 4): (
        [11, 26, 19, 3, 1, 4, 28, 24],
        [
            '0x1.f16c54005eb00p-1', '0x1.e4fc0e701af3cp-1', '0x1.1900803777384p-1',
            '0x1.29eb85bd5dd32p-1', '0x1.5682e986b0400p-9', '0x1.4bd4b466318cdp-9',
            '0x1.165ae57b5ea00p-9', '0x1.2427d30589e49p-9',
        ],
    ),
    ('MIBF', 4): (
        [11],
        [
            '0x1.f16c54005eb00p-1',
        ],
    ),
    ('IGBS', 4): (
        [11, 26, 3, 19, 1, 4, 24, 28],
        [
            '0x1.f16c54005eb00p-1', '0x1.e582b4f33a838p-1', '0x1.929807846bd58p-1',
            '0x1.534fac571aa99p-1', '0x1.3a81ec4a5fe00p-8', '0x1.3cc79c5b14e66p-8',
            '0x1.3b47bb85bd4abp-8', '0x1.142ae02e4e5b7p-8',
        ],
    ),
}


@pytest.mark.parametrize("levels", [16, 4])
@pytest.mark.parametrize("method", ["MIM", "MIFS", "MRMR", "MIBF", "IGBS"])
def test_step_scores_are_fixed(method, levels):
    cube, gt, _ = generate_cube(SynthSpec(rows=64, cols=64, bands=30, classes=5,
                                          informative_bands=(3, 11, 19, 26),
                                          noise_sigma=1.5, seed=4))
    res = greedy_select(quantize_cube(cube, levels), gt, method, k=8)
    selected, scores = GOLDEN_STEPS[method, levels]
    assert res.selected == selected
    assert [s.hex() for s in res.step_scores] == scores


class TestStackedStep:
    """A greedy step's stacked count against one ``mutual_information``
    call per (candidate, term), as kept verbatim in ``brute``."""

    @pytest.mark.parametrize("levels", [2, 4, 16, 256])
    def test_pair_mi_has_the_one_pair_bits(self, mi_block, levels):
        qcube, gt = random_instance(np.random.default_rng(levels), bands=9, n=300, levels=levels)
        state = init_state(qcube, gt)
        cands = [0, 1, 2, 3, 5, 6, 7, 8]  # both sides of band 4
        state.fill_pair_mi(4, cands)
        for c in cands:
            expected = brute.mutual_information(row_series(state, c), row_series(state, 4))
            assert state.pair_mi(c, 4).hex() == expected.hex()
        # the lookup is symmetric and only reads: fill_pair_mi is the one writer
        assert state.pair_mi(4, 0) == state.pair_mi(0, 4)
        cached = dict(state._pair_mi)
        with pytest.raises(KeyError):
            state.pair_mi(6, 2)
        assert state._pair_mi == cached

    @pytest.mark.parametrize("levels", [2, 4, 16, 256])
    def test_igbs_terms_have_the_one_pair_bits(self, mi_block, levels):
        qcube, gt = random_instance(np.random.default_rng(levels), bands=9, n=300, levels=levels)
        state = init_state(qcube, gt)
        for band in (1, 4, 7):
            state.select(band)
        assert state.remaining == [0, 2, 3, 5, 6, 8]
        scores = score_igbs(state.remaining, state, lam=0.75)
        est = state.rebuild_estimated_gt()
        pair = pair_series(state.labels, est)
        for c, score in zip(state.remaining, scores):
            rel = float(state.relevance[c])
            gain = (brute.mutual_information(pair, row_series(state, c)) - rel
                    - brute.mutual_information(est, row_series(state, c)))
            assert score.hex() == (rel + 0.75 * gain / 3).hex()
            # one candidate at a time counts the same bits
            assert score_igbs([c], state, lam=0.75)[0].hex() == score.hex()

    @pytest.mark.parametrize("levels", [2, 4, 16])
    def test_summed_estimate_joint_is_the_pair_count(self, levels):
        qcube, gt = random_instance(np.random.default_rng(levels), bands=9, n=300, levels=levels)
        state = init_state(qcube, gt)
        state.select(0)
        state.select(3)
        est = state.rebuild_estimated_gt()
        pair = pair_series(state.labels, est)
        # the occupied pairs, relabelled in increasing order, as IGBS counts them
        occupied, ranks = np.unique(pair.symbols, return_inverse=True)
        rows = list(state.matrix[1:])
        counts = np.concatenate(list(accel.hist2d_rows(ranks, rows, occupied.size, levels)))
        joint = estimate_fold(occupied % est.alphabet, est.alphabet)(counts)
        assert joint.dtype == np.int64
        assert np.array_equal(joint, np.stack(
            [brute.hist2d(est.symbols, row, levels, levels) for row in rows]))

    @pytest.mark.parametrize("levels", [4, 16])
    @pytest.mark.parametrize("method", ["MIM", "MIFS", "MRMR", "MIBF", "IGBS"])
    def test_greedy_steps_match_one_pair_greedy(self, mi_block, method, levels):
        rng = np.random.default_rng(9)
        qcube, gt = random_instance(rng, bands=10, n=300, levels=levels, classes=4)
        # the same pixels with bands 0 and 3 copied over 6, 8 and 9: equal
        # scores, tied to the last bit
        copied = qcube.values.copy()
        copied[[6, 8, 9]] = copied[[0, 3, 0]]
        copies = QuantizedCube(values=copied, levels=levels)
        # beta = lambda = ±1e308 overflows scores to ±inf ties
        for qc, weight in ((qcube, None), (copies, None), (copies, 1e308), (copies, -1e308)):
            params = {} if weight is None else {"beta": weight, "lam": weight}
            state = init_state(qc, gt)
            res = greedy_select(qc, gt, method, k=6, **params)
            series = [row_series(state, b) for b in range(qc.bands)]
            selected, scores = brute.greedy_scores(series, state.labels, state.matrix,
                                                   levels, method, k=6, **params)
            assert res.selected == selected
            assert [s.hex() for s in res.step_scores] == [s.hex() for s in scores]

    @pytest.mark.parametrize("method", ["MIFS", "IGBS"])
    def test_memory_is_bounded_by_the_block(self, method):
        # 40 bands of 1,024 pixels at 256 levels and 3 classes: one IGBS row
        # counts 196,608 cells, so counting every candidate at once would
        # hold 39 x 1.5 MB
        qcube, gt = random_instance(np.random.default_rng(3), bands=40, n=1024,
                                    levels=256, classes=3)
        cells = 3 * 256 * 256 if method == "IGBS" else 256 * 256
        block = 8 * max(accel.CACHE_BLOCK, 1024, cells)  # int64 bytes of one block
        tracemalloc.start()
        try:
            greedy_select(qcube, gt, method, k=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < qcube.values.nbytes + 4 * block


class TestUint8Levels:
    """uint8 band rows at 256 levels count as their int64 widening: every
    code ``x * A_y + y`` is formed in int64, since it wraps in uint8."""

    @pytest.fixture(scope="class")
    def instance(self):
        qcube, gt = random_instance(np.random.default_rng(21), bands=7, n=400,
                                    levels=256, classes=3)
        state = init_state(qcube, gt)
        assert state.matrix.dtype == np.uint8
        wide = state.matrix.astype(np.int64)
        wide_series = [DiscreteSeries(symbols=row, alphabet=256) for row in wide]
        assert wide_series[0].symbols.dtype == np.int64
        return qcube, gt, state, wide, wide_series

    def test_counts_and_pairs(self, instance):
        _, _, state, wide, wide_series = instance
        for x in (0, 4):
            others = [b for b in range(len(wide)) if b != x]
            got = np.concatenate(list(accel.hist2d_rows(state.matrix[x],
                                                        list(state.matrix[others]), 256, 256)))
            want = [brute.hist2d(wide[x], wide[b], 256, 256) for b in others]
            assert np.array_equal(got, np.stack(want))
        for a, b in ((0, 1), (5, 2)):
            narrow = pair_series(row_series(state, a), row_series(state, b))
            pair = pair_series(wide_series[a], wide_series[b])
            assert narrow.alphabet == pair.alphabet == 65536
            assert pair.symbols.max() > 255
            assert np.array_equal(narrow.symbols, pair.symbols)
            mi = mutual_information(row_series(state, a), row_series(state, b))
            assert mi.hex() == brute.mutual_information(wide_series[a], wide_series[b]).hex()
            assert entropy(row_series(state, a), row_series(state, b)).hex() == entropy(pair).hex()

    @pytest.mark.parametrize("method", ["MIFS", "MRMR", "MIBF", "IGBS"])
    def test_greedy_matches_int64_rows(self, instance, method):
        qcube, gt, state, wide, wide_series = instance
        res = greedy_select(qcube, gt, method, k=5, threshold=-1.0)
        selected, scores = brute.greedy_scores(wide_series, state.labels, wide, 256, method,
                                               k=5, threshold=-1.0)
        assert res.selected == selected and len(selected) == 5
        assert [s.hex() for s in res.step_scores] == [s.hex() for s in scores]
