import itertools

import numpy as np
import pytest

import brute
from igbs.datamodel import DiscreteSeries
from igbs.errors import DataError
from igbs.infotheory import (
    entropy,
    interaction_information,
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
