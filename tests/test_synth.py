import numpy as np
import pytest

from igbs.datamodel import DiscreteSeries, label_series, labeled_matrix, quantize_cube
from igbs.errors import DataError
from igbs.infotheory import entropy, mutual_information, pair_series
from igbs.selection import relevance_scores
from igbs.synth import SynthSpec, generate_cube, tile_labels


class TestTiling:
    def test_regions_are_contiguous_and_cover_all_classes(self):
        labels = tile_labels(8, 8, 4)
        flat = labels.ravel()
        assert set(flat.tolist()) == {1, 2, 3, 4}
        # row-major runs: label never decreases
        assert (np.diff(flat) >= 0).all()

    def test_near_equal_region_sizes(self):
        labels = tile_labels(10, 10, 3)
        counts = np.bincount(labels.ravel())[1:]
        assert counts.max() - counts.min() <= 1

    def test_impossible_tiling_rejected(self):
        with pytest.raises(DataError):
            tile_labels(2, 2, 5)


class TestGenerate:
    def test_same_seed_bit_identical(self):
        spec = SynthSpec(rows=16, cols=16, bands=10, seed=5,
                         informative_bands=(1, 4))
        cube_a, gt_a, meta_a = generate_cube(spec)
        cube_b, gt_b, meta_b = generate_cube(spec)
        assert (cube_a.values == cube_b.values).all()
        assert (gt_a.labels == gt_b.labels).all()
        assert meta_a == meta_b

    def test_noiseless_two_class_band_has_full_class_information(self):
        spec = SynthSpec(rows=16, cols=16, bands=6, classes=2,
                         informative_bands=(2,), noise_sigma=0.0, seed=1)
        cube, gt, _ = generate_cube(spec)
        rel = relevance_scores(quantize_cube(cube, 16), gt)
        h_gt = entropy(label_series(gt))
        assert rel[2] == pytest.approx(h_gt, abs=1e-12)

    def test_noiseless_planes_jointly_recover_all_classes(self):
        # one band per bit-plane: individually partial, jointly complete
        spec = SynthSpec(rows=16, cols=16, bands=6, classes=4,
                         informative_bands=(2, 5), noise_sigma=0.0, seed=1)
        cube, gt, _ = generate_cube(spec)
        qcube = quantize_cube(cube, 16)
        gt_series = label_series(gt)
        h_gt = entropy(gt_series)
        rel = relevance_scores(qcube, gt)
        assert rel[2] < h_gt and rel[5] < h_gt
        mat = labeled_matrix(qcube, gt)
        joined = pair_series(
            DiscreteSeries(symbols=mat[2], alphabet=qcube.levels),
            DiscreteSeries(symbols=mat[5], alphabet=qcube.levels),
        )
        assert mutual_information(joined, gt_series) == pytest.approx(h_gt, abs=1e-12)

    def test_no_informative_bands_relevance_near_zero(self):
        for seed in range(3):
            spec = SynthSpec(rows=64, cols=64, bands=8, classes=4,
                             informative_bands=(), noise_sigma=1.0, seed=seed)
            cube, gt, _ = generate_cube(spec)
            rel = relevance_scores(quantize_cube(cube, 16), gt)
            assert rel.max() < 0.05

    def test_ten_sigma_separation_ranks_planted_above_noise(self):
        spec = SynthSpec(rows=64, cols=64, bands=50, classes=4,
                         informative_bands=(3, 11, 25, 38, 44),
                         noise_sigma=1.0, class_separation=10.0, seed=2)
        cube, gt, meta = generate_cube(spec)
        rel = relevance_scores(quantize_cube(cube, 16), gt)
        planted = np.array(meta["informative_bands"])
        noise = np.setdiff1d(np.arange(50), planted)
        assert rel[planted].min() > rel[noise].max()

    def test_relevance_monotone_in_noise_sigma(self):
        # sweep the regime where cluster overlap drives the estimate; below
        # sigma ~ 1 the true MI is flat and only plug-in bias wobbles
        sigmas = [1.0, 2.0, 3.0, 4.0, 6.0, 8.0]
        scores = []
        for sigma in sigmas:
            spec = SynthSpec(rows=64, cols=64, bands=4, classes=4,
                             informative_bands=(0, 1), noise_sigma=sigma,
                             class_separation=10.0, seed=3)
            cube, gt, _ = generate_cube(spec)
            rel = relevance_scores(quantize_cube(cube, 16), gt)
            scores.append(rel[[0, 1]].mean())
        assert (np.diff(scores) <= 1e-9).all()

    def test_metadata_lists_exact_means(self):
        spec = SynthSpec(rows=8, cols=8, bands=4, classes=3,
                         informative_bands=(1,), class_separation=2.5, seed=0)
        _, _, meta = generate_cube(spec)
        # bit-plane 0 of class indices (0,1,2) -> levels (1,2,1)
        assert meta["class_means"][1] == [2.5, 5.0, 2.5]

    def test_mean_assignments_cycle_through_planes(self):
        spec = SynthSpec(rows=8, cols=8, bands=6, classes=4,
                         informative_bands=(0, 1, 2), class_separation=1.0, seed=0)
        _, _, meta = generate_cube(spec)
        assert meta["class_means"][0] == [1.0, 2.0, 1.0, 2.0]  # plane 0
        assert meta["class_means"][1] == [1.0, 1.0, 2.0, 2.0]  # plane 1
        assert meta["class_means"][2] == [1.0, 2.0, 1.0, 2.0]  # plane 0 again

    def test_spec_validation(self):
        with pytest.raises(DataError):
            SynthSpec(bands=4, informative_bands=(4,))
        with pytest.raises(DataError):
            SynthSpec(classes=1)
        with pytest.raises(DataError):
            SynthSpec(class_separation=0.0)
