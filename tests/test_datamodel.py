import numpy as np
import pytest

from igbs.datamodel import (
    DiscreteSeries,
    GroundTruth,
    HyperCube,
    QuantizedCube,
    label_series,
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

    def test_gt_rejects_negative_labels(self):
        with pytest.raises(DataError):
            GroundTruth(labels=np.array([[-1, 1], [2, 0]]))

    def test_quantized_cube_range_checked(self):
        with pytest.raises(DataError):
            QuantizedCube(values=np.full((1, 2, 2), 7), levels=4)

    def test_series_rejects_out_of_alphabet(self):
        with pytest.raises(DataError):
            DiscreteSeries(symbols=np.array([0, 3]), alphabet=3)

    def test_series_rejects_empty(self):
        with pytest.raises(DataError):
            DiscreteSeries(symbols=np.array([], dtype=np.int64), alphabet=2)


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
        assert (np.diff(q.values, axis=2) >= 0).all()

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

    def test_levels_bounds(self):
        cube = cube_from_bands([[0.0, 1.0]])
        with pytest.raises(DataError):
            quantize_cube(cube, levels=1)
        with pytest.raises(DataError):
            quantize_cube(cube, levels=300)


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

    def test_paired_order_matches_label_series(self):
        rng = np.random.default_rng(8)
        q = QuantizedCube(values=rng.integers(0, 4, size=(3, 5, 5)), levels=4)
        labels = rng.integers(0, 3, size=(5, 5))
        labels[0, 0], labels[0, 1] = 1, 2  # ensure two classes
        gt = GroundTruth(labels=labels)
        ls = label_series(gt)
        mat = labeled_matrix(q, gt)
        for band in range(3):
            bs = mat[band]
            assert len(bs) == len(ls)
            # same pixel ordering: check one known position
            flat_band = q.values[band][gt.mask]
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

    def test_geometry_mismatch(self):
        q = QuantizedCube(values=np.zeros((1, 2, 2), dtype=int), levels=2)
        gt = GroundTruth(labels=np.array([[1, 2, 1], [0, 0, 0]]))
        with pytest.raises(DataError, match="geometry"):
            labeled_matrix(q, gt)
