import numpy as np
import pytest

from igbs import classify
from igbs.classify import (
    ConfusionMatrix,
    PairModel,
    SvmModel,
    cohen_kappa,
    evaluate,
    knn_predict,
    overall_accuracy,
    predict,
    stratified_split,
    train_svm,
)
from igbs.datamodel import GroundTruth
from igbs.errors import ConfigError, DataError, MethodError


def grid_gt(class_sizes):
    """A 1 x n ground truth with the given pixels per class (1-based ids)."""
    labels = np.concatenate(
        [np.full(n, cls + 1, dtype=np.int64) for cls, n in enumerate(class_sizes)]
    )
    return GroundTruth(labels=labels.reshape(1, -1))


def two_clusters(n_per=20, centers=((0.0, 0.0), (5.0, 5.0)), spread=0.1, seed=0):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for cls, center in enumerate(centers, start=1):
        xs.append(np.asarray(center) + spread * rng.normal(size=(n_per, 2)))
        ys.append(np.full(n_per, cls))
    return np.vstack(xs), np.concatenate(ys)


class TestStratifiedSplit:
    def test_half_split_of_46(self):
        gt = grid_gt([46, 46])
        plan = stratified_split(gt, fraction=0.5, seed=1)
        labels = gt.labels[gt.mask]
        assert (labels[plan.train_idx] == 1).sum() == 23
        assert (labels[plan.test_idx] == 1).sum() == 23

    def test_floor_rule_on_odd_class(self):
        gt = grid_gt([5, 8])
        plan = stratified_split(gt, fraction=0.5, seed=0)
        labels = gt.labels[gt.mask]
        assert (labels[plan.train_idx] == 1).sum() == 2
        assert (labels[plan.test_idx] == 1).sum() == 3

    def test_same_seed_same_plan(self):
        gt = grid_gt([10, 20, 7])
        a = stratified_split(gt, fraction=0.4, seed=9)
        b = stratified_split(gt, fraction=0.4, seed=9)
        assert (a.train_idx == b.train_idx).all()
        assert (a.test_idx == b.test_idx).all()

    def test_partition_is_exact(self):
        gt = grid_gt([11, 13, 9])
        plan = stratified_split(gt, fraction=0.3, seed=4)
        merged = np.sort(np.concatenate([plan.train_idx, plan.test_idx]))
        assert (merged == np.arange(33)).all()

    def test_tiny_class_rejected_by_name(self):
        gt = GroundTruth(labels=np.array([[1, 2, 2, 2]]))
        with pytest.raises(DataError, match="class 1"):
            stratified_split(gt, fraction=0.5, seed=0)

    def test_class_left_untrained_rejected_by_name(self):
        gt = grid_gt([10, 3])  # floor(0.3 * 3) = 0 training pixels for class 2
        with pytest.raises(DataError, match="class 2"):
            stratified_split(gt, fraction=0.3, seed=0)

    def test_fraction_bounds(self):
        gt = grid_gt([4, 4])
        with pytest.raises(ConfigError):
            stratified_split(gt, fraction=1.0, seed=0)


class TestSvm:
    def test_separable_clusters_zero_training_errors(self):
        x, y = two_clusters()
        model = train_svm(x, y, c=100.0, gamma=1.0)
        assert (predict(model, x) == y).all()

    def test_xor_four_points_exact_dual(self):
        # the symmetric optimum has all duals equal to 1/(1-1/e)^2 and b = 0
        x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([1, 1, 2, 2])
        model = train_svm(x, y, c=10.0, gamma=1.0, tol=1e-8)
        assert (predict(model, x) == y).all()
        pair = model.pairs[0]
        expected_alpha = 1.0 / (1.0 - np.exp(-1.0)) ** 2
        assert pair.alphas == pytest.approx([expected_alpha] * 4, abs=1e-4)
        assert pair.bias == pytest.approx(0.0, abs=1e-4)

    def test_dual_feasibility(self):
        x, y = two_clusters(spread=1.8, seed=3)  # overlapping -> bounded duals
        c = 2.0
        model = train_svm(x, y, c=c, gamma=0.5)
        pair = model.pairs[0]
        assert (pair.alphas >= 0).all()
        assert (pair.alphas <= c).all()
        assert float(pair.sv_coef.sum()) == pytest.approx(0.0, abs=1e-9)

    def test_training_is_deterministic(self):
        x, y = two_clusters(spread=1.0, seed=5)
        a = train_svm(x, y, c=5.0, gamma=0.7)
        b = train_svm(x, y, c=5.0, gamma=0.7)
        assert (a.pairs[0].alphas == b.pairs[0].alphas).all()
        assert a.pairs[0].bias == b.pairs[0].bias

    def test_gamma_defaults_to_one_over_dims(self):
        x, y = two_clusters()
        model = train_svm(x, y)
        assert model.gamma == pytest.approx(0.5)

    def test_multiclass_one_vs_one_pair_count(self):
        rng = np.random.default_rng(8)
        x = np.vstack([rng.normal(loc=4 * i, scale=0.2, size=(10, 3)) for i in range(4)])
        y = np.repeat([1, 2, 3, 4], 10)
        model = train_svm(x, y, gamma=1.0)
        assert len(model.pairs) == 6
        assert (predict(model, x) == y).all()

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            train_svm(np.zeros((4, 2)), np.ones(4, dtype=int))

    def test_step_limit_raises_naming_the_pair(self, monkeypatch):
        # one SMO step cannot close the KKT gap on XOR; the limit is read
        # when train_svm runs
        monkeypatch.setattr(classify, "DEFAULT_MAX_ITER", 1)
        x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([1, 1, 2, 2])
        with pytest.raises(MethodError, match=r"class pair \(1, 2\)"):
            train_svm(x, y, c=10.0, gamma=1.0)


class TestPredictRules:
    def test_far_point_decided_by_bias_sign(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([1, 1, 2, 2])
        model = train_svm(x, y, c=10.0, gamma=1.0)
        pair = model.pairs[0]
        far = np.array([[1e6, 1e6]])
        expected = pair.positive if pair.bias > 0 else pair.negative
        assert predict(model, far)[0] == expected
        # the kernel really has vanished at that distance
        assert pair.decision(far)[0] == pytest.approx(pair.bias, abs=1e-12)

    def test_vote_tie_goes_to_lowest_class(self):
        # bias-only pairs (no support vectors) produce a 2-2-2-0 vote split
        def pair(pos, neg, bias):
            empty = np.zeros((0, 2))
            return PairModel(
                positive=pos,
                negative=neg,
                sv_features=empty,
                sv_coef=np.zeros(0),
                alphas=np.zeros(0),
                bias=bias,
                iterations=0,
                gamma=1.0,
            )

        model = SvmModel(
            classes=np.array([1, 2, 3, 4]),
            pairs=[
                pair(1, 2, 1.0),   # 1
                pair(1, 3, -1.0),  # 3
                pair(1, 4, 1.0),   # 1
                pair(2, 3, 1.0),   # 2
                pair(2, 4, 1.0),   # 2
                pair(3, 4, 1.0),   # 3
            ],
            gamma=1.0,
            n_features=2,
        )
        assert predict(model, np.zeros((1, 2)))[0] == 1

    def test_dimension_mismatch_rejected(self):
        x, y = two_clusters()
        model = train_svm(x, y)
        with pytest.raises(DataError):
            predict(model, np.zeros((3, 5)))


class TestKnn:
    def test_exact_match_returns_its_label(self):
        train = np.array([[0.0, 0.0], [3.0, 3.0]])
        labels = np.array([1, 2])
        assert knn_predict(train, labels, np.array([[3.0, 3.0]]))[0] == 2

    def test_distance_tie_takes_lower_index(self):
        train = np.array([[0.0, 0.0], [2.0, 0.0]])
        labels = np.array([7, 3])
        assert knn_predict(train, labels, np.array([[1.0, 0.0]]))[0] == 7

    def test_self_prediction_is_perfect_for_distinct_points(self):
        rng = np.random.default_rng(10)
        train = rng.normal(size=(40, 4))
        labels = rng.integers(1, 5, size=40)
        assert (knn_predict(train, labels, train) == labels).all()

    def test_separated_clusters_fully_recovered(self):
        x, y = two_clusters(spread=0.1)  # centers 5*sqrt(2) apart >> 5*spread
        half = len(x) // 2
        rng = np.random.default_rng(11)
        order = rng.permutation(len(x))
        pred = knn_predict(x[order[:half]], y[order[:half]], x[order[half:]])
        assert (pred == y[order[half:]]).all()

    def test_empty_train_rejected(self):
        with pytest.raises(DataError):
            knn_predict(np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros((1, 2)))


class TestMetrics:
    def test_perfect_prediction(self):
        x = np.array([1, 2, 3, 1, 2, 3])
        report = evaluate(x, x)
        assert report.oa == 1.0
        assert report.kappa == 1.0

    def test_symmetric_confusion_hand_values(self):
        truth = np.repeat([1, 2], 50)
        pred = np.concatenate(
            [np.repeat(1, 40), np.repeat(2, 10), np.repeat(1, 10), np.repeat(2, 40)]
        )
        report = evaluate(pred, truth)
        assert report.matrix.counts.tolist() == [[40, 10], [10, 40]]
        assert report.oa == pytest.approx(0.800, abs=1e-12)
        assert report.kappa == pytest.approx(0.600, abs=1e-12)

    def test_matrix_level_metrics(self):
        cm = ConfusionMatrix(
            classes=np.array([1, 2]), counts=np.array([[40, 10], [10, 40]])
        )
        assert overall_accuracy(cm) == pytest.approx(0.8)
        assert cohen_kappa(cm) == pytest.approx(0.6)

    def test_kappa_at_most_one_and_one_iff_diagonal(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            counts = rng.integers(0, 20, size=(n, n))
            counts[0, 0] += 1  # nonempty
            cm = ConfusionMatrix(classes=np.arange(1, n + 1), counts=counts)
            kappa = cohen_kappa(cm)
            assert kappa <= 1.0 + 1e-12
            off_diag = counts.sum() - np.trace(counts)
            if kappa == pytest.approx(1.0, abs=1e-12):
                assert off_diag == 0
            if off_diag == 0:
                assert kappa == pytest.approx(1.0, abs=1e-12)

    def test_oa_invariant_under_relabeling(self):
        rng = np.random.default_rng(14)
        truth = rng.integers(1, 5, size=200)
        pred = rng.integers(1, 5, size=200)
        base = evaluate(pred, truth).oa
        perm = {1: 4, 2: 3, 3: 1, 4: 2}
        mapped = evaluate(
            np.array([perm[p] for p in pred]), np.array([perm[t] for t in truth])
        ).oa
        assert mapped == pytest.approx(base, abs=1e-12)

    def test_absent_class_is_nan_not_zero(self):
        report = evaluate(
            np.array([1, 2]), np.array([1, 2]), classes=np.array([1, 2, 3])
        )
        assert np.isnan(report.per_class[2])
        assert report.per_class[0] == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            evaluate(np.array([1, 2]), np.array([1]))
