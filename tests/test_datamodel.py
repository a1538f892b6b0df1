import types
import warnings

import numpy as np
import pytest

import brute

from igbs.datamodel import (
    DiscreteSeries,
    GroundTruth,
    HyperCube,
    QuantizedCube,
    labeled_matrix,
    quantize_cube,
)
from igbs.errors import DataError


def cube_from_bands(*bands):
    return HyperCube(values=np.stack([np.asarray(b, dtype=float) for b in bands]))


class TestTypes:
    def test_cube_rejects_nan_naming_band(self):
        values = np.zeros((3, 2, 2))
        values[1, 0, 1] = np.nan
        with pytest.raises(DataError, match="band 1"):
            HyperCube(values=values)

    def test_gt_needs_two_classes(self):
        with pytest.raises(DataError):
            GroundTruth(labels=np.array([[0, 1], [1, 0]]))

    @pytest.mark.parametrize("transpose", [False, True])
    def test_gt_fixes_labeled_index_and_classes(self, transpose):
        rng = np.random.default_rng(14)
        labels = rng.choice([0, 0, 2, 5, 9], size=(7, 9))
        if transpose:
            labels = labels.T  # a non-contiguous view: order stays row-major
            assert not labels.flags.c_contiguous
        gt = GroundTruth(labels=labels)
        assert np.array_equal(gt.index, np.flatnonzero(labels > 0))
        assert np.array_equal(gt.classes, np.unique(labels[labels > 0]))
        assert np.array_equal(gt.classes[gt.ranks], labels[labels > 0])

    def test_gt_rejects_negative_labels(self):
        with pytest.raises(DataError):
            GroundTruth(labels=np.array([[-1, 1], [2, 0]]))

    def test_quantized_cube_range_checked(self):
        with pytest.raises(DataError):
            QuantizedCube(values=np.full((1, 2, 2), 7), levels=4)

    def test_quantized_cube_rejects_float_values(self):
        # 1.7 was truncated to 1
        for value in (1.7, 1.0):
            with pytest.raises(DataError, match="quantized values must be integers"):
                QuantizedCube(values=np.full((1, 2, 2), value), levels=4)

    def test_quantized_cube_stores_uint8(self):
        q = QuantizedCube(values=np.arange(8).reshape(2, 2, 2) * 36, levels=256)
        assert q.values.dtype == np.uint8
        assert q.values.ravel().tolist() == [0, 36, 72, 108, 144, 180, 216, 252]
        with pytest.raises(DataError, match="outside"):
            QuantizedCube(values=np.full((1, 2, 2), 256), levels=256)  # not wrapped to 0
        with pytest.raises(DataError, match="bad levels"):
            QuantizedCube(values=np.full((1, 2, 2), 1), levels=2.5)

    @pytest.mark.parametrize("dtype, stored", [
        (np.float32, np.float32), (np.uint16, np.float32), (np.uint8, np.float32),
        (np.float64, np.float64), (np.int64, np.float64), (np.int32, np.float64),
    ])
    def test_cube_keeps_float32_where_it_is_exact(self, dtype, stored):
        values = np.arange(12, dtype=dtype).reshape(3, 2, 2)
        cube = HyperCube(values=values)
        assert cube.values.dtype == stored
        assert np.array_equal(cube.values, values)
        if dtype == stored:
            assert cube.values is values  # no copy

    def test_series_keeps_narrow_symbols_uncopied(self):
        row = np.array([0, 3, 255], dtype=np.uint8)
        assert DiscreteSeries(symbols=row, alphabet=256).symbols is row
        assert DiscreteSeries(symbols=[0, 1], alphabet=2).symbols.dtype == np.int64
        big = np.array([0, 1], dtype=np.uint64)  # int64 does not hold every uint64
        assert DiscreteSeries(symbols=big, alphabet=2).symbols.dtype == np.int64

    def test_series_rejects_non_integer_alphabet(self):
        # 2.5 was kept and used as a histogram size
        for alphabet in (2.5, np.float32(2.5), True, "two"):
            with pytest.raises(DataError, match="bad alphabet"):
                DiscreteSeries(symbols=[0, 1], alphabet=alphabet)
        series = DiscreteSeries(symbols=[0, 1], alphabet=np.int64(2))
        assert type(series.alphabet) is int and series.alphabet == 2

    def test_series_rejects_out_of_alphabet(self):
        with pytest.raises(DataError):
            DiscreteSeries(symbols=np.array([0, 3]), alphabet=3)

    def test_series_rejects_empty(self):
        with pytest.raises(DataError):
            DiscreteSeries(symbols=np.array([], dtype=np.int64), alphabet=2)

    def test_series_rejects_non_integer_symbols(self):
        # [1.7, 0.2] was truncated to [1, 0]
        with pytest.raises(DataError, match="symbols must be integers"):
            DiscreteSeries(symbols=[1.7, 0.2], alphabet=2)
        with pytest.raises(DataError, match="1-D and nonempty"):
            DiscreteSeries(symbols=[], alphabet=2)


class TestQuantize:
    def test_identity_after_scaling(self):
        cube = cube_from_bands([[0, 1], [2, 3]])
        q = quantize_cube(cube, levels=4)
        assert q.values[0].tolist() == [[0, 1], [2, 3]]

    def test_constant_band_maps_to_zero(self):
        cube = cube_from_bands([[5.0, 5.0], [5.0, 5.0]])
        q = quantize_cube(cube, levels=16)
        assert not q.values.any()

    def test_minmax_endpoints(self):
        cube = cube_from_bands([[0.0, 10.0]])
        q = quantize_cube(cube, levels=16)
        assert q.values[0].tolist() == [[0, 15]]

    def test_round_half_up(self):
        # midpoint of [0, 2] at 2 levels scales to 0.5 -> rounds up to 1
        cube = cube_from_bands([[0.0, 1.0, 2.0]])
        q = quantize_cube(cube, levels=2)
        assert q.values[0].tolist() == [[0, 1, 1]]

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            cube = HyperCube(values=rng.normal(size=(4, 6, 5)))
            q1 = quantize_cube(cube, levels=16)
            q2 = quantize_cube(HyperCube(values=q1.values.astype(float)), levels=16)
            assert (q1.values == q2.values).all()

    def test_monotone_per_band(self):
        rng = np.random.default_rng(6)
        values = np.sort(rng.normal(size=(3, 1, 40)), axis=2)
        q = quantize_cube(HyperCube(values=values), levels=8)
        assert (np.diff(q.values.astype(np.int64), axis=2) >= 0).all()

    def test_nonconstant_bands_attain_both_endpoints(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(5, 6, 6))
        values[2] = 3.25  # one constant band
        q = quantize_cube(HyperCube(values=values), levels=16)
        for band in range(5):
            plane = q.values[band]
            if band == 2:
                assert not plane.any()
            else:
                assert plane.min() == 0 and plane.max() == 15

    @pytest.mark.parametrize("levels", [2, 4, 16, 256])
    def test_matches_whole_array_expression(self, levels):
        rng = np.random.default_rng(levels)
        values = rng.normal(size=(6, 16, 17)) * 10.0 ** rng.integers(-3, 4, size=(6, 1, 1))
        values[1] = 2.5  # constant band
        # the exact half-way points of spans 7 and 13.7, where scaling in
        # another order rounds some of them the other way
        for band, span in ((2, 7.0), (3, 13.7)):
            half = (np.arange(levels - 1) + 0.5) * (span / (levels - 1))
            values[band] = np.resize(np.concatenate([[0.0, span], half]), (16, 17))
        # a range that overflows float64: scales to NaN, then clips
        values[4] = np.where(rng.random((16, 17)) < 0.5, -1.5e308, 1.5e308)
        values[4, 0, :3] = (0.0, -1.0e308, 1.0e308)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = brute.quantize(values, levels)
            got = quantize_cube(HyperCube(values=values), levels=levels).values
        assert got.dtype == np.uint8
        assert np.array_equal(got, expected)

    def test_overflowing_band_casts_no_nan(self):
        # its range overflows float64, so its scaled values are NaN; they are
        # clipped to 0 in float, and the uint8 cast never sees them
        cube = cube_from_bands([[-1.5e308, 1.5e308, 0.0, 1.5e308]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            q = quantize_cube(cube, levels=16)
        assert q.values[0].tolist() == [[0, 0, 0, 0]]
        assert not [w for w in caught if "cast" in str(w.message)]

    def test_subnormal_span_reaches_the_top_level(self):
        # (levels - 1) / 5e-324 is inf, so the maximum scales to inf; it
        # clips to the top level (an int64 cast of inf was undefined)
        cube = cube_from_bands([[0.0, 5e-324, 5e-324, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            q = quantize_cube(cube, levels=16)
        assert q.values[0].tolist() == [[0, 15, 15, 0]]

    def test_float32_cube_quantizes_as_its_float64_widening(self):
        rng = np.random.default_rng(11)
        values = (rng.normal(size=(5, 9, 8)) * 100.0).astype(np.float32)
        values[2] = 7.5  # constant band
        got = quantize_cube(HyperCube(values=values), levels=256).values
        wide = quantize_cube(HyperCube(values=values.astype(np.float64)), levels=256).values
        assert np.array_equal(got, wide)
        assert np.array_equal(got, brute.quantize(values.astype(np.float64), 256))

    def test_levels_bounds(self):
        # quantize_cube applies QuantizedCube's levels rule before it reads a
        # band: "16" once ended in a bare TypeError, and 16.5 was refused only
        # after every band had been scaled
        class Unscaled(np.ndarray):
            def __iter__(self):
                raise AssertionError("a band was scaled before levels was checked")

        unscaled = types.SimpleNamespace(values=np.zeros((1, 1, 2)).view(Unscaled))
        for levels in (1, 300, None, True, 16.5):
            with pytest.raises(DataError) as own:
                QuantizedCube(values=np.zeros((1, 1, 2), dtype=np.uint8), levels=levels)
            with pytest.raises(DataError) as got:
                quantize_cube(unscaled, levels=levels)
            assert str(got.value) == str(own.value)
        # a decimal string is an integer to that rule, as in QuantizedCube
        cube = cube_from_bands([[0.0, 1.0]])
        q = quantize_cube(cube, levels="16")
        assert q.levels == 16 and q.values.tolist() == [[[0, 15]]]


class TestLabeledSeries:
    def test_mask_count(self):
        q = QuantizedCube(values=np.arange(4).reshape(1, 2, 2), levels=4)
        gt = GroundTruth(labels=np.array([[1, 0], [2, 2]]))
        row = labeled_matrix(q, gt)[0]
        assert len(row) == 3
        assert row.tolist() == [0, 2, 3]  # row-major order

    def test_all_labeled_full_length(self):
        q = QuantizedCube(values=np.zeros((1, 3, 4), dtype=int), levels=2)
        gt = GroundTruth(labels=np.array([[1] * 4, [2] * 4, [1] * 4]))
        assert len(labeled_matrix(q, gt)[0]) == 12

    def test_paired_order_matches_labels(self):
        rng = np.random.default_rng(8)
        q = QuantizedCube(values=rng.integers(0, 4, size=(3, 5, 5)), levels=4)
        labels = rng.integers(0, 3, size=(5, 5))
        labels[0, 0], labels[0, 1] = 1, 2  # ensure two classes
        gt = GroundTruth(labels=labels)
        ls = gt.classes[gt.ranks]
        mat = labeled_matrix(q, gt)
        for band in range(3):
            bs = mat[band]
            assert len(bs) == len(ls)
            # same pixel ordering: check one known position
            flat_band = q.values[band][gt.labels > 0]
            assert (bs == flat_band).all()

    def test_labeled_matrix_agrees(self):
        rng = np.random.default_rng(9)
        q = QuantizedCube(values=rng.integers(0, 4, size=(3, 4, 4)), levels=4)
        labels = rng.integers(0, 3, size=(4, 4))
        labels[0, 0], labels[0, 1] = 1, 2
        gt = GroundTruth(labels=labels)
        mat = labeled_matrix(q, gt)
        for band in range(3):
            pixels = [q.values[band, r, c] for r in range(4) for c in range(4) if labels[r, c]]
            assert mat[band].tolist() == pixels

    def test_c_ordered_and_equal_to_mask_indexing(self):
        # each band row is what the estimators count, so it must be contiguous
        rng = np.random.default_rng(10)
        q = QuantizedCube(values=rng.integers(0, 4, size=(5, 6, 7)), levels=4)
        labels = rng.integers(0, 3, size=(6, 7))
        labels[0, 0], labels[0, 1] = 1, 2
        gt = GroundTruth(labels=labels)
        mat = labeled_matrix(q, gt)
        assert mat.flags.c_contiguous
        assert mat.dtype == q.values.dtype
        assert np.array_equal(mat, q.values[:, gt.labels > 0])

    @pytest.mark.parametrize("bands", [[0, 2, 4], [4, 0, 3], [1, 1, 3, 1], [2]])
    def test_band_subset_equals_rows_of_the_full_matrix(self, bands):
        rng = np.random.default_rng(15)
        q = QuantizedCube(values=rng.integers(0, 4, size=(5, 6, 7)), levels=4)
        labels = rng.integers(0, 3, size=(6, 7))
        labels[0, 0], labels[0, 1] = 1, 2
        gt = GroundTruth(labels=labels)
        mat = labeled_matrix(q, gt, bands)
        assert mat.flags.c_contiguous
        assert np.array_equal(mat, labeled_matrix(q, gt)[bands])

    @pytest.mark.parametrize("bands", [[5], [-1], [0, 9]])
    def test_band_out_of_range(self, bands):
        q = QuantizedCube(values=np.zeros((5, 2, 2), dtype=int), levels=2)
        gt = GroundTruth(labels=np.array([[1, 2], [0, 1]]))
        with pytest.raises(DataError, match="out of range"):
            labeled_matrix(q, gt, bands)

    @pytest.mark.parametrize("bands", [[1.5], [0.0, 1.0], [True]])
    def test_non_integer_bands_rejected(self, bands):
        # [1.5] ended in numpy's IndexError
        q = QuantizedCube(values=np.zeros((5, 2, 2), dtype=int), levels=2)
        gt = GroundTruth(labels=np.array([[1, 2], [0, 1]]))
        with pytest.raises(DataError, match="bands must be integers"):
            labeled_matrix(q, gt, bands)

    def test_no_bands_give_no_rows(self):
        q = QuantizedCube(values=np.zeros((5, 2, 2), dtype=int), levels=2)
        gt = GroundTruth(labels=np.array([[1, 2], [0, 1]]))
        assert labeled_matrix(q, gt, []).shape == (0, 3)

    def test_geometry_mismatch(self):
        q = QuantizedCube(values=np.zeros((1, 2, 2), dtype=int), levels=2)
        gt = GroundTruth(labels=np.array([[1, 2, 1], [0, 0, 0]]))
        with pytest.raises(DataError, match="geometry"):
            labeled_matrix(q, gt)
