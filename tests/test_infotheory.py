import itertools

import numpy as np
import pytest

import brute
from igbs import accel
from igbs.datamodel import DiscreteSeries
from igbs.errors import DataError
from igbs.infotheory import (
    _entropy_counts,
    entropy,
    entropy_rows,
    interaction_information,
    joint_entropies,
    mutual_information,
    pair_series,
)


def series(symbols, alphabet=None):
    symbols = np.asarray(symbols, dtype=np.int64)
    if alphabet is None:
        alphabet = int(symbols.max()) + 1
    return DiscreteSeries(symbols=symbols, alphabet=alphabet)


def random_series(rng, length, alphabet):
    return series(rng.integers(0, alphabet, size=length), alphabet)


class TestJointHistogram:
    """Joint entropy over the cells of the series' joint counts."""

    def test_single_series_counts(self):
        assert entropy(series([0, 0, 1, 1])) == pytest.approx(1.0, abs=1e-12)

    def test_identical_binary_series_diagonal(self):
        x = series([0, 0, 1, 1])
        assert entropy(x, x) == entropy(x)

    def test_product_structure(self):
        h = entropy(series([0, 0, 1, 1]), series([0, 1, 0, 1]))
        assert h == pytest.approx(2.0, abs=1e-12)

    def test_three_series_counts_each_cell(self):
        rng = np.random.default_rng(2)
        trio = [random_series(rng, 60, a) for a in (2, 3, 4)]
        expected = np.zeros((2, 3, 4), dtype=np.int64)
        np.add.at(expected, tuple(s.symbols for s in trio), 1)
        p = expected[expected > 0] / 60
        assert entropy(*trio) == pytest.approx(float(-(p * np.log2(p)).sum()), abs=1e-12)

    def test_pair_is_the_entropy_of_the_paired_series(self):
        rng = np.random.default_rng(0)
        x, y = random_series(rng, 50, 3), random_series(rng, 50, 4)
        assert entropy(x, y) == entropy(pair_series(x, y))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            entropy(series([0, 1]), series([0, 1, 1]))

    def test_no_series_rejected(self):
        with pytest.raises(DataError):
            entropy()


class TestEntropy:
    def test_fair_coin_is_one_bit(self):
        assert entropy(series([0, 1, 0, 1])) == pytest.approx(1.0, abs=1e-12)

    def test_constant_series_is_zero(self):
        assert entropy(series([0, 0, 0], alphabet=1)) == 0.0

    def test_uniform_16_symbols_is_four_bits(self):
        assert entropy(series(np.arange(16))) == pytest.approx(4.0, abs=1e-12)

    def test_bounded_by_log_alphabet(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = int(rng.integers(2, 6))
            x = random_series(rng, int(rng.integers(1, 70)), a)
            h = entropy(x)
            assert -1e-12 <= h <= np.log2(a) + 1e-12


class TestMutualInformation:
    def test_self_mi_equals_entropy(self):
        x = series([0, 1, 0, 1])
        assert mutual_information(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_independent_uniform_is_zero(self):
        x = series([0, 0, 1, 1])
        y = series([0, 1, 0, 1])
        assert mutual_information(x, y) == pytest.approx(0.0, abs=1e-12)

    def test_skewed_joint_matches_hand_value(self):
        # joint counts [[3,1],[1,3]] over 8 samples
        x = series([0, 0, 0, 0, 1, 1, 1, 1])
        y = series([0, 0, 0, 1, 0, 1, 1, 1])
        expected = 0.75 * np.log2(1.5) + 0.25 * np.log2(0.5)  # 0.18872...
        assert mutual_information(x, y) == pytest.approx(expected, abs=1e-12)
        assert mutual_information(x, y) == pytest.approx(0.18872, abs=1e-5)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 64))
            x = random_series(rng, n, int(rng.integers(2, 5)))
            y = random_series(rng, n, int(rng.integers(2, 5)))
            mxy = mutual_information(x, y)
            myx = mutual_information(y, x)
            assert mxy == pytest.approx(myx, abs=1e-9)
            assert mxy >= -1e-9

    def test_self_mi_equals_entropy_random(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = random_series(rng, int(rng.integers(2, 64)), int(rng.integers(2, 5)))
            assert mutual_information(x, x) == pytest.approx(
                entropy(x), abs=1e-9
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            mutual_information(series([0, 1]), series([0, 1, 0]))


class TestInteractionInformation:
    def test_xor_is_plus_one_bit(self):
        a = series([0, 0, 1, 1])
        b = series([0, 1, 0, 1])
        c = series((a.symbols ^ b.symbols))
        assert interaction_information(a, b, c) == pytest.approx(1.0, abs=1e-12)

    def test_identical_triple_is_minus_one_bit(self):
        x = series([0, 1, 0, 1])
        assert interaction_information(x, x, x) == pytest.approx(-1.0, abs=1e-12)

    def test_jointly_independent_is_zero(self):
        combos = np.array(list(itertools.product([0, 1], repeat=3)), dtype=np.int64)
        a, b, c = (series(combos[:, i]) for i in range(3))
        assert interaction_information(a, b, c) == pytest.approx(0.0, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(2, 64))
            trio = [random_series(rng, n, int(rng.integers(2, 5))) for _ in range(3)]
            ref = interaction_information(*trio)
            for perm in itertools.permutations(trio):
                assert interaction_information(*perm) == pytest.approx(ref, abs=1e-9)

    def test_grouping_identity(self):
        # MI(A;(B,C)) must equal H(A) + H(B,C) - H(A,B,C)
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(2, 64))
            a = random_series(rng, n, int(rng.integers(2, 5)))
            b = random_series(rng, n, int(rng.integers(2, 5)))
            c = random_series(rng, n, int(rng.integers(2, 5)))
            grouped = mutual_information(a, pair_series(b, c))
            direct = (
                entropy(a)
                + entropy(b, c)
                - entropy(a, b, c)
            )
            assert grouped == pytest.approx(direct, abs=1e-9)


class TestAgainstBruteForce:
    def test_estimators_match_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 64))
            a = random_series(rng, n, int(rng.integers(2, 5)))
            b = random_series(rng, n, int(rng.integers(2, 5)))
            c = random_series(rng, n, int(rng.integers(2, 5)))
            assert entropy(a) == pytest.approx(
                brute.entropy_bits(a.symbols.tolist()), abs=1e-9
            )
            assert entropy(a, b, c) == pytest.approx(
                brute.entropy_bits(
                    a.symbols.tolist(), b.symbols.tolist(), c.symbols.tolist()
                ),
                abs=1e-9,
            )
            assert mutual_information(a, b) == pytest.approx(
                brute.mutual_info_bits(a.symbols.tolist(), b.symbols.tolist()),
                abs=1e-9,
            )
            assert interaction_information(a, b, c) == pytest.approx(
                brute.interaction_bits(
                    a.symbols.tolist(), b.symbols.tolist(), c.symbols.tolist()
                ),
                abs=1e-9,
            )


class TestStackedCount:
    """The stacked count and the row entropies against the one-pair count
    and estimator they replace (kept verbatim in ``brute``), bit for bit."""

    @staticmethod
    def _rows(levels, n=300, count=13, seed=0):
        rng = np.random.default_rng([levels, seed])
        return rng.integers(0, levels, n), [rng.integers(0, levels, n) for _ in range(count)]

    @pytest.mark.parametrize("levels", [2, 4, 16, 256])
    def test_counts_match_one_pair_count(self, mi_block, stacked_counts, levels):
        x, rows = self._rows(levels)
        counts = np.concatenate(stacked_counts(series(x, levels), rows, levels))
        assert np.array_equal(counts, np.stack([brute.hist2d(x, r, levels, levels) for r in rows]))
        assert np.array_equal(accel.hist2d(x, rows[0], levels, levels),
                              brute.hist2d(x, rows[0], levels, levels))

    def test_small_blocks_split_the_rows(self, monkeypatch, stacked_counts):
        monkeypatch.setattr(accel, "CACHE_BLOCK", 1000)
        x, rows = self._rows(16)
        assert [len(b) for b in stacked_counts(series(x, 16), rows, 16)] == [3, 3, 3, 3, 1]
        # a block holds at most CACHE_BLOCK cells, or one row
        assert [len(b) for b in stacked_counts(series(x, 16), rows[:2], 256)] == [1, 1]

    @pytest.mark.parametrize("levels", [2, 4, 16, 256])
    def test_joint_entropies_match_both_orientations(self, mi_block, levels):
        x, rows = self._rows(levels)
        forward, transposed = joint_entropies(
            series(x, levels), rows, levels, lambda c: c, lambda c: c.transpose(0, 2, 1))
        n = len(x)
        for r, row in enumerate(rows):
            assert forward[r].hex() == brute.entropy_counts(
                brute.hist2d(x, row, levels, levels).ravel(), n).hex()
            assert transposed[r].hex() == brute.entropy_counts(
                brute.hist2d(row, x, levels, levels).ravel(), n).hex()

    def test_constant_rows_have_one_nonzero_cell(self, mi_block):
        x = np.full(300, 3)
        rows = [np.full(300, v) for v in (0, 1, 1, 2, 0)]
        (h,) = joint_entropies(series(x, 4), rows, 4, lambda c: c)
        assert [v.hex() for v in h] == [brute.entropy_counts(
            brute.hist2d(x, r, 4, 4).ravel(), 300).hex() for r in rows]

    def test_one_row_one_pixel_and_no_rows(self, stacked_counts):
        (h,) = joint_entropies(series([2], 3), [np.array([1])], 3, lambda c: c)
        assert h[0].hex() == brute.entropy_counts(np.array([1]), 1).hex()
        assert [b.tolist() for b in stacked_counts(series([2], 3), [np.array([1])], 3)] == [
            [[[0, 0, 0], [0, 0, 0], [0, 1, 0]]]]
        # with no rows no form is called
        calls = []
        h = joint_entropies(series([0, 1], 2), [], 2, calls.append, calls.append)
        assert h.shape == (2, 0)
        assert calls == []

    @pytest.mark.parametrize("levels", [2, 4, 16, 256])
    def test_entropy_rows_and_one_row_cases(self, levels):
        rng = np.random.default_rng(levels)
        counts = rng.integers(0, 3, size=(5, levels, 4)) * (rng.random((5, levels, 4)) < 0.4)
        counts[2] = 0
        counts[2, 1, 1] = 7  # a single nonzero cell
        total = int(counts.sum())
        for view in (counts, counts.transpose(0, 2, 1)):
            h = entropy_rows(view, total)
            assert [v.hex() for v in h] == [
                brute.entropy_counts(np.ascontiguousarray(row).ravel(), total).hex()
                for row in view]
        for row in counts:
            assert _entropy_counts(row.ravel(), total).hex() == \
                brute.entropy_counts(row.ravel(), total).hex()

    @pytest.mark.parametrize("levels", [2, 4, 16, 256])
    def test_mutual_information_matches_one_pair_estimator(self, levels):
        x, rows = self._rows(levels, count=4)
        for row in rows:
            a, b = series(x, levels), series(row, levels)
            assert mutual_information(a, b).hex() == brute.mutual_information(a, b).hex()
            assert mutual_information(b, a).hex() == brute.mutual_information(b, a).hex()
