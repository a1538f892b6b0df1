import dataclasses
import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import brute
from igbs import accel, classify
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
from igbs.datamodel import GroundTruth, QuantizedCube
from igbs.errors import ConfigError, DataError, MethodError
from igbs.pipeline import band_features


def grid_gt(class_sizes):
    """A 1 x n ground truth with the given pixels per class (1-based ids)."""
    labels = np.concatenate(
        [np.full(n, cls + 1, dtype=np.int64) for cls, n in enumerate(class_sizes)]
    )
    return GroundTruth(labels=labels.reshape(1, -1))


def new_modules(code):
    """(exit code, stderr, stdout) of ``code`` run in a fresh process after
    ``import igbs.classify``, where stdout lists the modules it imported; a
    fresh process, so a module imported lazily by an earlier test does not
    hide one."""
    code = "import sys\nimport numpy as np\nimport igbs.classify\nbefore = set(sys.modules)\n" + code
    code += "\nprint(sorted(set(sys.modules) - before))\n"
    src = os.path.dirname(os.path.dirname(classify.__file__))
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stderr, proc.stdout


def two_clusters(n_per=20, centers=((0.0, 0.0), (5.0, 5.0)), spread=0.1, seed=0):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for cls, center in enumerate(centers, start=1):
        xs.append(np.asarray(center) + spread * rng.normal(size=(n_per, 2)))
        ys.append(np.full(n_per, cls))
    return np.vstack(xs), np.concatenate(ys)


@pytest.fixture(scope="module")
def oracle_scene():
    """(x, labels, model, oracle) for 4 classes on level features: the
    trained model and, per class pair, (positive, negative, the pair's
    support rows, their duals, their y, bias) from the whole-array SMO on
    the pair's rows in pixel order."""
    rng = np.random.default_rng(17)
    labels = rng.permutation(np.repeat([1, 2, 3, 4], [40, 25, 60, 15]))
    x = labels[:, None] / 5 + 0.15 * rng.normal(size=(labels.size, 5))
    x = np.clip(np.round(15 * x), 0, 15) / 15
    model = train_svm(x, labels)
    oracle = []
    for pos, neg in itertools.combinations((1, 2, 3, 4), 2):
        rows = np.flatnonzero(np.isin(labels, [pos, neg]))
        y = np.where(labels[rows] == pos, 1.0, -1.0)
        alpha, bias = brute.smo_solve(
            brute.rbf_rows(x[rows], model.gamma), y,
            classify.DEFAULT_C, classify.DEFAULT_TOL, classify.DEFAULT_MAX_ITER,
        )[:2]
        sv = alpha > 0.0
        oracle.append((pos, neg, rows[sv], alpha[sv], y[sv], bias))
    return x, labels, model, oracle


def assert_predicts_as_oracle(model, x, oracle, queries):
    pairs = [(pos, neg, x[rows], alpha * y, bias) for pos, neg, rows, alpha, y, bias in oracle]
    expected = brute.predict(model.classes, pairs, model.gamma, queries)
    assert predict(model, queries).tolist() == expected.tolist()


class TestStratifiedSplit:
    def test_half_split_of_46(self):
        gt = grid_gt([46, 46])
        plan = stratified_split(gt, fraction=0.5, seed=1)
        labels = gt.labels[gt.labels > 0]
        assert (labels[plan.train_idx] == 1).sum() == 23
        assert (labels[plan.test_idx] == 1).sum() == 23

    def test_floor_rule_on_odd_class(self):
        gt = grid_gt([5, 8])
        plan = stratified_split(gt, fraction=0.5, seed=0)
        labels = gt.labels[gt.labels > 0]
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

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            stratified_split(grid_gt([4, 4]), fraction=0.5, seed=-1)

    def test_fractional_seed_rejected(self):
        # 1.5 ended in numpy's TypeError; an integral float is its integer
        gt = grid_gt([6, 6])
        with pytest.raises(ConfigError, match="bad seed"):
            stratified_split(gt, fraction=0.5, seed=1.5)
        with pytest.raises(ConfigError, match="bad seed"):
            stratified_split(gt, fraction=0.5, seed=float("nan"))
        a, b = stratified_split(gt, 0.5, seed=2.0), stratified_split(gt, 0.5, seed=2)
        assert np.array_equal(a.train_idx, b.train_idx)


class TestSvm:
    def test_one_gram_at_a_time(self):
        # 3 classes of 300 rows: each pair's Gram is 600 x 600 float64, and
        # holding the last pair's while the next is built would double it
        rng = np.random.default_rng(16)
        x = rng.normal(size=(900, 4)) + np.repeat(np.arange(3.0), 300)[:, None]
        y = np.repeat([1, 2, 3], 300)
        gram = 600 * 600 * 8
        tracemalloc.start()
        try:
            train_svm(x, y, c=1.0, gamma=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # SMO keeps the rows it read of one pair (0.67 Gram here); a second
        # pair's rows held beside them read 0.99
        assert peak < 0.8 * gram

    def test_training_imports_no_module(self):
        # numpy 1.24 imports numpy.ma with numpy, so there it passes
        # whatever train_svm calls
        code = (
            "x = np.arange(18.0).reshape(9, 2)\n"
            "igbs.classify.train_svm(x, np.repeat([1, 2, 3], 3), gamma=0.5)"
        )
        assert new_modules(code) == (0, "", "[]\n")

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
        # the sum of alpha * y over the one pair's support vectors
        assert float(model.coef.sum()) == pytest.approx(0.0, abs=1e-9)

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

    def test_pairs_match_the_oracle(self, oracle_scene):
        # each pair trains on its two classes' rows, in pixel order, by the
        # whole-array SMO on the kernel stacked from one-row kernels
        x, labels, model, oracle = oracle_scene
        assert len(model.pairs) == 6
        expected = np.zeros((labels.size, 4))  # alpha * y at (row, the other class's rank)
        for pair, (pos, neg, rows, alpha, y, bias) in zip(model.pairs, oracle):
            assert (pair.positive, pair.negative) == (pos, neg)
            assert pair.alphas.tobytes() == alpha.tobytes()
            assert pair.bias.hex() == float(bias).hex()
            expected[rows, np.where(y > 0.0, neg, pos) - 1] = alpha * y
        # each support row once, grouped by class, in row order within it
        used = [np.flatnonzero(expected.any(axis=1) & (labels == cls)) for cls in (1, 2, 3, 4)]
        assert sum(u.size for u in used) < sum(p.alphas.size for p in model.pairs)
        assert model.bounds.tolist() == np.cumsum([0] + [u.size for u in used]).tolist()
        assert model.sv_rows.tobytes() == x[np.concatenate(used)].tobytes()
        assert model.coef.tobytes() == expected[np.concatenate(used)].tobytes()

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            train_svm(np.zeros((4, 2)), np.ones(4, dtype=int))

    def test_non_integer_labels_rejected(self):
        # these were truncated to classes [1, 2]
        x = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
        with pytest.raises(DataError, match="labels must be integers"):
            train_svm(x, np.array([1.5, 1.7, 2.2, 2.9]))

    def test_step_limit_raises_naming_the_pair(self, monkeypatch):
        # one SMO step cannot close the KKT gap on XOR; the limit is read
        # when train_svm runs
        monkeypatch.setattr(classify, "DEFAULT_MAX_ITER", 1)
        x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([1, 1, 2, 2])
        with pytest.raises(MethodError, match=r"class pair \(1, 2\)"):
            train_svm(x, y, c=10.0, gamma=1.0)

    def test_nan_gap_is_not_convergence(self, monkeypatch):
        solve = accel.smo_solve
        monkeypatch.setattr(accel, "smo_solve",
                            lambda *a: (*solve(*a)[:3], float("nan")))
        x, y = two_clusters()
        with pytest.raises(MethodError, match="gap nan"):
            train_svm(x, y)

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    def test_overflowing_features_stop_on_a_nan_gap(self):
        # |x|^2 overflows, so the kernel and the gap are NaN; SMO ran all
        # DEFAULT_MAX_ITER steps before it stopped on them
        x = np.array([[0.0], [1e200], [2e200], [3e200]])
        with pytest.raises(MethodError, match=r"gap nan after [0-2] steps"):
            train_svm(x, np.array([1, 1, 2, 2]))

    @pytest.mark.parametrize("param", ["c", "gamma", "tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    def test_nan_or_nonpositive_parameter_rejected(self, param, value):
        # NaN fails every comparison, so it must not pass a "<= 0" test; an
        # infinite gamma made a NaN kernel and an infinite tol no step
        x, y = two_clusters()
        with pytest.raises(ConfigError, match="positive"):
            train_svm(x, y, **{param: value})

    def test_zero_width_features_rejected(self):
        # gamma = 1/d ended in ZeroDivisionError
        with pytest.raises(DataError, match=r"SVM features must be \(n, d\) with d >= 1"):
            train_svm(np.zeros((4, 0)), np.array([1, 1, 2, 2]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_training_features_rejected(self, value):
        x, y = two_clusters()
        x[7, 1] = value
        with pytest.raises(DataError, match="finite"):
            train_svm(x, y)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_features_rejected(self, value):
        x, y = two_clusters()
        model = train_svm(x, y)
        query = x[:3].copy()
        query[2, 0] = value
        with pytest.raises(DataError, match="finite"):
            predict(model, query)


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
        ff = np.einsum("ij,ij->i", far, far)
        vv = np.einsum("ij,ij->i", model.sv_rows, model.sv_rows)
        kernel = accel.rbf_kernel(far, model.sv_rows, model.gamma, ff, vv)
        kernel_term = kernel @ model.coef.sum(axis=1)
        assert kernel_term[0] == pytest.approx(0.0, abs=1e-12)

    def test_vote_tie_goes_to_lowest_class(self):
        # bias-only pairs (no support vectors) produce a 2-2-2-0 vote split
        def pair(pos, neg, bias):
            return PairModel(positive=pos, negative=neg, alphas=np.zeros(0), bias=bias)

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
            sv_rows=np.zeros((0, 2)),
            bounds=np.zeros(5, dtype=np.int64),
            coef=np.zeros((0, 4)),
        )
        assert predict(model, np.zeros((1, 2)))[0] == 1

    def test_votes_match_the_oracle(self, oracle_scene):
        x, labels, model, oracle = oracle_scene
        queries = np.vstack([x, np.random.default_rng(3).random((200, x.shape[1]))])
        assert_predicts_as_oracle(model, x, oracle, queries)

    @pytest.mark.parametrize("n", [14, 15, 17, 1, 0])
    def test_queries_cross_block_boundaries(self, oracle_scene, monkeypatch, n):
        # 7 rows a block: n rows spread over ceil(n / 7) blocks of 2 to 7
        # rows, so the tail of 15 and 17 is no one-row block
        x, labels, model, oracle = oracle_scene
        assert model.sv_rows.shape[0] > 16  # more support rows than ranks squared
        monkeypatch.setattr(accel, "QUERY_BLOCK", 7 * model.sv_rows.shape[0])
        kernel, sizes, norms = accel.rbf_kernel, [], []

        def spy(a, b, gamma, aa, bb):
            sizes.append(len(a))
            norms.append(bb)
            # each block's query norms have the bits of its rows' own einsum
            assert aa.tobytes() == np.einsum("ij,ij->i", a, a).tobytes()
            return kernel(a, b, gamma, aa, bb)

        monkeypatch.setattr(accel, "rbf_kernel", spy)
        queries = np.random.default_rng(4).random((n, x.shape[1]))
        assert_predicts_as_oracle(model, x, oracle, queries)
        assert sum(sizes) == n and len(sizes) == max(1, -(-n // 7))
        assert n < 2 or 2 <= min(sizes) <= max(sizes) <= 7
        # every block's kernel takes the one |sv_rows|^2 that predict forms
        assert all(bb is norms[0] for bb in norms) and isinstance(norms[0], np.ndarray)
        assert norms[0].tobytes() == np.einsum("ij,ij->i", model.sv_rows, model.sv_rows).tobytes()

    def test_pair_without_support_vectors(self, oracle_scene):
        # pair (1, 2) keeps only its bias: its rows' coefficients in it are 0
        x, labels, model, oracle = oracle_scene
        b0, b1, b2 = model.bounds[:3]
        coef = model.coef.copy()
        coef[b0:b1, 1] = 0.0
        coef[b1:b2, 0] = 0.0
        first = dataclasses.replace(model.pairs[0], alphas=np.zeros(0))
        model = dataclasses.replace(model, pairs=[first, *model.pairs[1:]], coef=coef)
        pos, neg, rows, alpha, y, bias = oracle[0]
        oracle = [(pos, neg, rows[:0], alpha[:0], y[:0], bias), *oracle[1:]]
        queries = np.vstack([x, np.random.default_rng(5).random((200, x.shape[1]))])
        assert_predicts_as_oracle(model, x, oracle, queries)

    def test_memory_is_under_two_blocks(self):
        # 1,600 support rows and 8,000 queries: one kernel over all of them
        # would take 102 MB, 12.8 blocks of accel.QUERY_BLOCK float64 entries
        rng = np.random.default_rng(6)
        n_sv, half = 1600, 800
        coef = np.zeros((n_sv, 2))
        coef[:half, 1], coef[half:, 0] = 1.0, -1.0
        model = SvmModel(
            classes=np.array([1, 2]),
            pairs=[PairModel(positive=1, negative=2, alphas=np.ones(n_sv), bias=0.0)],
            gamma=1.0,
            sv_rows=np.vstack([rng.random((half, 2)), rng.random((half, 2)) + 0.5]),
            bounds=np.array([0, half, n_sv]),
            coef=coef,
        )
        queries = rng.random((8000, 2))
        tracemalloc.start()
        try:
            predict(model, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block's kernel at a time; two held at once read over 2
        assert peak < 2 * accel.QUERY_BLOCK * 8

    def test_dimension_mismatch_rejected(self):
        x, y = two_clusters()
        model = train_svm(x, y)
        with pytest.raises(DataError):
            predict(model, np.zeros((3, 5)))

    def test_zero_width_features_rejected(self):
        model = train_svm(*two_clusters())
        with pytest.raises(DataError, match=r"SVM features must be \(n, d\) with d >= 1"):
            predict(model, np.zeros((3, 0)))


class TestKnn:
    def test_exact_match_returns_its_label(self):
        train = np.array([[0.0, 0.0], [3.0, 3.0]])
        labels = np.array([1, 2])
        assert knn_predict(train, labels, np.array([[3.0, 3.0]]))[0] == 2

    def test_distance_tie_takes_lower_index(self):
        train = np.array([[0.0, 0.0], [2.0, 0.0]])
        labels = np.array([7, 3])
        assert knn_predict(train, labels, np.array([[1.0, 0.0]]))[0] == 7

    # Features are levels scaled by 1/(L-1), and the rounding of that scale
    # breaks this exact tie against the contract; handing 1-NN the integer
    # levels fixes it and turns this into a plain regression test.
    @pytest.mark.xfail(strict=True, reason="1-NN on scaled features breaks exact ties")
    def test_scaled_level_tie_takes_lower_index(self):
        # at L=16 both train pixels are at squared level distance 86
        pixels = np.array([[1, 1, 4], [10, 8, 14], [3, 2, 13]])
        qcube = QuantizedCube(values=pixels.T.reshape(3, 1, 3), levels=16)
        gt = GroundTruth(labels=np.array([[1, 2, 1]]))
        features = band_features(qcube, gt, [0, 1, 2])
        assert knn_predict(features[:2], np.array([1, 2]), features[2:])[0] == 1

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

    def test_non_integer_labels_rejected(self):
        # [1.9, 2.9] predicted 1
        with pytest.raises(DataError, match="labels must be integers"):
            knn_predict(np.array([[0.0], [1.0]]), np.array([1.9, 2.9]), np.array([[0.1]]))

    @pytest.mark.parametrize("labels", [[1], [1, 2, 1, 2, 1], [[1, 2, 1]]])
    def test_one_label_per_train_row(self, labels):
        # 3 train rows; too many labels used to predict silently, too few
        # raised IndexError
        with pytest.raises(DataError, match="one label per train row"):
            knn_predict(np.zeros((3, 2)), np.array(labels), np.ones((2, 2)))

    def test_zero_width_features_rejected(self):
        # every query's nearest neighbour was train row 0
        with pytest.raises(DataError, match=r"train features must be \(n, d\) with d >= 1"):
            knn_predict(np.zeros((3, 0)), np.array([1, 2, 3]), np.zeros((2, 0)))

    @pytest.mark.parametrize("side", ["train", "test"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, side, value):
        train, test = np.zeros((3, 2)), np.ones((2, 2))
        (train if side == "train" else test)[1, 0] = value
        with pytest.raises(DataError, match="finite"):
            knn_predict(train, np.array([1, 2, 3]), test)


def broadcast_nn1_index(train, test):
    """The 1-NN kernel as it was before the matrix-product screen, verbatim:
    the oracle that accel.nn1_index must match index for index."""
    out = np.empty(test.shape[0], dtype=np.int64)
    # chunk test rows so the distance block stays small
    step = max(1, 4_000_000 // max(train.shape[0] * train.shape[1], 1))
    for s in range(0, test.shape[0], step):
        block = test[s : s + step]
        d = ((block[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
        out[s : s + step] = d.argmin(axis=1)
    return out


def scaled_levels(rng, shape, levels):
    return rng.integers(0, levels, size=shape) / (levels - 1)


def signed_magnitudes(rng, shape, low, high):
    """Random signs times 10**e, e uniform in [low, high]."""
    return rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(low, high, size=shape)


class TestNn1Index:
    def assert_matches_oracle(self, train, test):
        got = accel.nn1_index(train, test)
        assert got.dtype == np.int64
        assert np.array_equal(got, broadcast_nn1_index(train, test))

    @pytest.mark.parametrize("k", [1, 3, 10, 80])
    def test_continuous_features(self, k):
        rng = np.random.default_rng(k)
        self.assert_matches_oracle(rng.normal(size=(300, k)), rng.normal(size=(200, k)))

    @pytest.mark.parametrize("levels", [4, 16])
    @pytest.mark.parametrize("k", [2, 5, 20])
    def test_tie_heavy_level_features(self, levels, k):
        rng = np.random.default_rng(levels + k)
        train = scaled_levels(rng, (400, k), levels)
        test = scaled_levels(rng, (300, k), levels)
        if k <= 5:  # the data really ties: some query has several nearest rows
            dist = ((test[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
            assert ((dist == dist.min(axis=1, keepdims=True)).sum(axis=1) > 1).any()
        self.assert_matches_oracle(train, test)

    def test_permuted_rows_tie_in_reals_not_in_floats(self):
        # every train row is a permutation of one vector, so distances to a
        # constant query tie exactly in the reals and differ in the last bits
        rng = np.random.default_rng(3)
        base = rng.random(97)
        train = np.array([rng.permutation(base) for _ in range(60)])
        test = np.vstack([np.full((4, 97), 0.5), 0.5 + 1e-3 * rng.random((30, 97))])
        self.assert_matches_oracle(train, test)

    def test_overflowing_squares_keep_every_row(self):
        # magnitudes up to 1e300: where the screen's bound overflows, the
        # refine falls back to the whole broadcast, overflow and all
        rng = np.random.default_rng(7)
        train = rng.normal(size=(30, 3)) * 10.0 ** rng.integers(0, 300, size=(30, 3))
        test = rng.normal(size=(20, 3)) * 10.0 ** rng.integers(0, 300, size=(20, 3))
        with np.errstate(over="ignore", invalid="ignore"):
            self.assert_matches_oracle(train, test)

    def test_squares_overflow_float32_not_float64(self):
        # magnitudes 1e20..1e38: the float32 screen's squares overflow, the
        # float64 distances do not, so every train row is kept and refined
        rng = np.random.default_rng(8)
        train = signed_magnitudes(rng, (40, 4), 20, 38)
        test = signed_magnitudes(rng, (30, 4), 20, 38)
        assert np.isfinite(((test[:, None] - train[None]) ** 2).sum(axis=2)).all()
        self.assert_matches_oracle(train, test)

    def test_subnormal_in_float32(self):
        # magnitudes 1e-45..1e-38 are subnormal in float32, or flush to zero
        rng = np.random.default_rng(9)
        train = signed_magnitudes(rng, (40, 4), -45, -38)
        test = signed_magnitudes(rng, (30, 4), -45, -38)
        assert (np.abs(train.astype(np.float32)) < np.finfo(np.float32).tiny).all()
        self.assert_matches_oracle(train, test)

    def test_screen_beyond_float32_range_keeps_every_row(self):
        # 4 R^2 is above float32's range, but only the winner's |t|^2, near
        # 3.6e38, overflows the screen: without the range gate the inf score
        # drops row 0 and the finite row 1 wins
        train = np.array([[1.9e19], [-1e19]])
        test = np.array([[5e18]])
        assert broadcast_nn1_index(train, test).tolist() == [0]
        self.assert_matches_oracle(train, test)

    @pytest.mark.parametrize("k", [12, 40])
    def test_underflowing_products_need_the_absolute_slack(self, k):
        # integer patterns in [-3, 3] scaled by 1e-23: the screen's products,
        # near 1e-46, underflow float32, so its errors are absolute, far
        # above its relative bound; the slack's 2^-126 term covers them
        rng = np.random.default_rng(k)
        self.assert_matches_oracle(rng.integers(-3, 4, size=(30, k)) * 1e-23,
                                   rng.integers(-3, 4, size=(20, k)) * 1e-23)

    def test_fine_levels_at_paper_width(self):
        # L=256 levels on 80 features: near ties in the last float32 bits
        rng = np.random.default_rng(10)
        self.assert_matches_oracle(scaled_levels(rng, (1500, 80), 256),
                                   scaled_levels(rng, (600, 80), 256))

    def test_constant_train_set_refines_a_whole_block(self):
        # every train row ties, so each query row of a full block and of the
        # partial one after it has every train row as a candidate
        rng = np.random.default_rng(11)
        train = np.full((2000, 2), 0.25)
        test = rng.random((accel.QUERY_BLOCK // 2000 + 3, 2))
        got = accel.nn1_index(train, test)
        assert not got.any()
        self.assert_matches_oracle(train, test)

    def test_queries_cross_block_boundaries(self):
        rng = np.random.default_rng(4)
        train = scaled_levels(rng, (2000, 3), 16)
        rows = 2 * (accel.QUERY_BLOCK // 2000) + 7  # two full blocks and a partial one
        self.assert_matches_oracle(train, scaled_levels(rng, (rows, 3), 16))

    def test_one_train_row(self):
        rng = np.random.default_rng(5)
        self.assert_matches_oracle(rng.random((1, 4)), rng.random((9, 4)))

    def test_one_feature(self):
        rng = np.random.default_rng(6)
        self.assert_matches_oracle(scaled_levels(rng, (50, 1), 4), rng.random((40, 1)))

    def test_no_query_rows(self):
        got = accel.nn1_index(np.ones((5, 3)), np.zeros((0, 3)))
        assert got.shape == (0,) and got.dtype == np.int64


def same_solution(got, want):
    """SMO results equal bit for bit: duals, bias, step count and gap."""
    assert got[0].dtype == want[0].dtype and got[0].tobytes() == want[0].tobytes()
    assert float(got[1]).hex() == float(want[1]).hex()
    assert got[2] == want[2]
    assert float(got[3]).hex() == float(want[3]).hex()


def binary_problem(x, seed):
    """Labels +-1 from a noisy threshold on the first feature, both present."""
    rng = np.random.default_rng(seed)
    score = x[:, 0] + 0.3 * rng.normal(size=x.shape[0])
    y = np.where(score > np.median(score), 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    return y


class TestSmoSolve:
    """accel.smo_solve against the whole-array form in tests/brute.py, on the
    kernel stacked from one-row ``rbf_kernel`` calls."""

    def assert_matches_oracle(self, x, c=100.0, tol=1e-3, max_steps=1_000_000, seed=0, y=None):
        y = binary_problem(x, seed) if y is None else y
        gamma = 1.0 / x.shape[1]
        want = brute.smo_solve(brute.rbf_rows(x, gamma), y, c, tol, max_steps)
        same_solution(accel.smo_solve(x, y, gamma, c, tol, max_steps), want)
        return want

    @pytest.mark.parametrize("n, k", [(30, 2), (120, 5), (250, 20)])
    def test_continuous_pairs(self, n, k):
        rng = np.random.default_rng(n + k)
        assert self.assert_matches_oracle(rng.normal(size=(n, k)), seed=k)[2] > 10

    @pytest.mark.parametrize("levels", [4, 16])
    def test_level_features_with_duplicate_rows(self, levels):
        # rows repeat under both labels; at L=4 the solver picks such pairs,
        # whose eta <= 0 takes the 1e-12 floor
        rng = np.random.default_rng(levels)
        x = scaled_levels(rng, (100, 3), levels)
        self.assert_matches_oracle(np.vstack([x, x]), seed=levels)

    def test_small_c_puts_duals_on_the_box(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(150, 4))
        alpha = self.assert_matches_oracle(x, c=0.05, seed=9)[0]
        assert (alpha == 0.05).sum() > 50

    @pytest.mark.parametrize("max_steps", [0, 1, 7])
    def test_truncated_solve(self, max_steps):
        rng = np.random.default_rng(2)
        want = self.assert_matches_oracle(rng.normal(size=(60, 3)), max_steps=max_steps)
        assert want[2] == max_steps

    def test_rows_take_their_norms_from_the_solve(self, monkeypatch):
        # each kernel row gets its slice of the one |x|^2 the solve forms
        rng = np.random.default_rng(12)
        x = rng.normal(size=(120, 5))
        xx = np.einsum("ij,ij->i", x, x)
        kernel, seen = accel.rbf_kernel, []

        def spy(a, b, gamma, aa, bb):
            (t,) = np.flatnonzero((x == a).all(axis=1))
            assert aa.tobytes() == xx[t : t + 1].tobytes()
            seen.append(bb)
            return kernel(a, b, gamma, aa, bb)

        monkeypatch.setattr(accel, "rbf_kernel", spy)
        self.assert_matches_oracle(x)
        assert len(seen) > 10 and all(bb is seen[0] for bb in seen)
        assert seen[0].tobytes() == xx.tobytes()

    def test_two_rows(self):
        self.assert_matches_oracle(np.array([[0.0, 1.0], [1.0, 0.5]]))

    def test_separated_clusters_read_few_rows(self):
        # desk-shaped pair (k=6 level features): a few steps read at most
        # two rows each, and the other rows are never formed
        rng = np.random.default_rng(6)
        y = np.where(np.arange(1000) % 2 == 0, 1.0, -1.0)
        x = 0.5 + 0.3 * y[:, None] + 0.1 * rng.normal(size=(1000, 6))
        x = np.clip(np.round(15 * x), 0, 15) / 15
        assert self.assert_matches_oracle(x, y=y)[2] < 50
        # so the solve holds no 1000 x 1000 array, not even a product
        tracemalloc.start()
        try:
            accel.smo_solve(x, y, 1.0 / 6, 100.0, 1e-3, 1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1000 * 1000 * 8 / 10

    @pytest.mark.parametrize("y, c", [((1.0,) * 5, 1.0), ((1.0, -1.0) * 2 + (1.0,), 0.0)])
    def test_empty_working_set_takes_no_step(self, y, c):
        # one label only, or a box [0, 0]: the up or the low set starts empty
        x = np.random.default_rng(1).normal(size=(5, 2))
        y = np.array(y)
        got = accel.smo_solve(x, y, 0.5, c, 1e-3, 100)
        same_solution(got, brute.smo_solve(brute.rbf_rows(x, 0.5), y, c, 1e-3, 100))
        assert got[2] == 0


class TestRbfKernel:
    """accel.rbf_kernel against the whole-array expression in tests/brute.py."""

    def assert_matches_oracle(self, a, b, gamma=0.25):
        norms = (np.einsum("ij,ij->i", a, a), np.einsum("ij,ij->i", b, b))
        got = accel.rbf_kernel(a, b, gamma, *norms)
        want = brute.rbf_kernel(a, b, gamma)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 3, 80])
    def test_same_operand(self, k):
        # a @ a.T takes numpy's symmetric product; the oracle must see the same
        a = np.random.default_rng(k).normal(size=(90, k))
        self.assert_matches_oracle(a, a)

    @pytest.mark.parametrize("k", [1, 3, 80])
    def test_distinct_operands(self, k):
        rng = np.random.default_rng(k + 1)
        self.assert_matches_oracle(rng.normal(size=(70, k)), rng.normal(size=(110, k)))

    def test_rows_cross_block_boundaries(self, monkeypatch):
        # the module's budget, then the small-blocks one of conftest's mi_block
        for budget in (accel.CACHE_BLOCK, 1000):
            monkeypatch.setattr(accel, "CACHE_BLOCK", budget)
            rng = np.random.default_rng(3)
            cols = 500
            rows = 2 * (budget // cols) + 7  # full blocks and a partial one
            a = scaled_levels(rng, (rows, 6), 16)
            self.assert_matches_oracle(a, scaled_levels(rng, (cols, 6), 16))
            self.assert_matches_oracle(a, a)

    def test_duplicate_rows_clip_round_off(self):
        rng = np.random.default_rng(4)
        a = scaled_levels(rng, (60, 80), 16)
        a = np.vstack([a, a[::-1]])
        sq = (np.einsum("ij,ij->i", a, a)[:, None] + np.einsum("ij,ij->i", a, a)[None, :]
              - 2.0 * (a @ a.T))
        assert (sq < 0.0).any()  # the clip acts on this data
        self.assert_matches_oracle(a, a, gamma=1.0 / 80)
        self.assert_matches_oracle(a, a.copy(), gamma=1.0 / 80)

    def test_one_row_or_one_column(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(1, 4)), rng.normal(size=(40, 4))
        self.assert_matches_oracle(a, b)
        self.assert_matches_oracle(b, a)
        self.assert_matches_oracle(a, a)

    def test_given_row_norms_keep_the_bits(self):
        # smo_solve and predict form |x|^2 once and pass slices of it: a
        # row's norm has the same bits alone, in a slice or in the whole
        # array, so each one-row kernel keeps the oracle's bits
        rng = np.random.default_rng(8)
        for rows, cols, scale in ((60, 80, 1.0), (1, 1, 1e-5), (900, 120, 1e5), (333, 7, 1e3)):
            for x in (scale * scaled_levels(rng, (rows, cols), 16),
                      scale * rng.normal(size=(rows, cols))):
                xx = np.einsum("ij,ij->i", x, x)
                for t in {0, rows // 3, rows - 1}:
                    alone = x[t : t + 1]
                    assert np.einsum("ij,ij->i", alone, alone).tobytes() == xx[t : t + 1].tobytes()
                    part = x[t // 2 : (t + rows) // 2 + 1]
                    norms = np.einsum("ij,ij->i", part, part)
                    assert norms.tobytes() == xx[t // 2 : (t + rows) // 2 + 1].tobytes()
                    got = accel.rbf_kernel(alone, x, 1.0 / cols, xx[t : t + 1], xx)
                    assert got.tobytes() == brute.rbf_kernel(alone, x, 1.0 / cols).tobytes()


class TestMetrics:
    def test_default_classes_import_no_module(self):
        # a bare np.unique imports numpy.ma lazily on numpy 2.x; numpy 1.24
        # imports it with numpy, so there it passes whatever evaluate calls
        code = "igbs.classify.evaluate(np.array([1, 2]), np.array([2, 2]))"
        assert new_modules(code) == (0, "", "[]\n")
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

    def test_one_class_on_both_sides_is_full_agreement(self):
        # chance agreement p_e is 1 only when every count sits in one diagonal
        # cell, where p_o is 1 as well: (p_o - p_e) / (1 - p_e) reads 0/0
        assert evaluate(np.full(5, 3), np.full(5, 3)).kappa == 1.0
        cm = ConfusionMatrix(classes=np.array([1, 2, 3]), counts=np.diag([0, 7, 0]))
        assert cohen_kappa(cm) == 1.0

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

    @pytest.mark.parametrize("pred, truth", [([1.5, 2.0], [1, 2]), ([1, 2], [1.0, 2.5])])
    def test_non_integer_labels_rejected(self, pred, truth):
        # evaluate([1.5, 2.0], [1, 2]).oa was 1.0
        with pytest.raises(DataError, match="labels must be integers"):
            evaluate(pred, truth)

    @pytest.mark.parametrize("pred, truth", [([1, 3], [1, 2]), ([1, 2], [0, 2])])
    def test_labels_outside_the_class_list_rejected(self, pred, truth):
        with pytest.raises(DataError, match="outside the declared class list"):
            evaluate(pred, truth, classes=[1, 2])

    # [2, 1] was reported as labels outside the list, [1, 1, 2] gave a 3x3
    # matrix with a phantom row, [[1]] ended in numpy's ValueError
    @pytest.mark.parametrize("classes", [[2, 1], [1, 1, 2], [[1]], [1.0, 2.5]])
    def test_class_list_must_be_strictly_increasing_integers(self, classes):
        with pytest.raises(DataError, match="classes must be"):
            evaluate([1, 2], [1, 2], classes=classes)
