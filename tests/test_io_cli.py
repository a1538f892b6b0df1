import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from igbs import classify, cli, pipeline, raster
from igbs.cli import main
from igbs.datamodel import GroundTruth, HyperCube
from igbs.errors import ConfigError, DataError, MethodError, build_record, read_json_object
from igbs.report import MethodOutcome, RunConfig, render_comparison, render_method_report
from igbs.synth import SynthSpec, generate_cube


@pytest.fixture
def small_dataset(tmp_path):
    spec = SynthSpec(rows=12, cols=12, bands=8, classes=3,
                     informative_bands=(1, 4, 6), noise_sigma=0.5,
                     class_separation=8.0, seed=3)
    cube, gt, meta = generate_cube(spec)
    base = str(tmp_path / "scene")
    raster.save_cube(cube, base)
    raster.save_gt(gt, base + ".gt.raw")
    return base, cube, gt


class TestCubeFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        cube, _, _ = generate_cube(SynthSpec(rows=5, cols=7, bands=3, seed=1,
                                             informative_bands=(0,)))
        base = str(tmp_path / "cube")
        header_path, raw_path = raster.save_cube(cube, base)
        loaded = raster.load_cube(header_path)
        expected = cube.values.astype("<f4").astype(np.float64)
        assert (loaded.values == expected).all()
        # writing what we loaded reproduces the raw file byte for byte
        raster.save_cube(loaded, str(tmp_path / "again"))
        assert (tmp_path / "again.raw").read_bytes() == (tmp_path / "cube.raw").read_bytes()

    def test_u16_round_trip(self, tmp_path):
        values = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        (tmp_path / "ints.hdr.json").write_text(json.dumps(
            {"rows": 3, "cols": 4, "bands": 2, "dtype": "u16",
             "interleave": "bsq", "byte_order": "little"}))
        values.astype("<u2").tofile(tmp_path / "ints.raw")
        loaded = raster.load_cube(str(tmp_path / "ints.hdr.json"))
        assert (loaded.values == values).all()

    def test_truncated_raw_fails_closed(self, tmp_path):
        cube, _, _ = generate_cube(SynthSpec(rows=4, cols=4, bands=2, seed=0,
                                             informative_bands=()))
        base = str(tmp_path / "cut")
        _, raw_path = raster.save_cube(cube, base)
        data = Path(raw_path).read_bytes()
        Path(raw_path).write_bytes(data[:-8])
        with pytest.raises(DataError, match="expected 128 bytes"):
            raster.load_cube(base + ".hdr.json")

    def test_header_path_resolves_base_and_header(self):
        assert raster.cube_header_path("d/scene") == "d/scene.hdr.json"
        assert raster.cube_header_path("d/scene.hdr.json") == "d/scene.hdr.json"

    def test_unknown_dtype_rejected(self, tmp_path):
        path = tmp_path / "bad.hdr.json"
        path.write_text(json.dumps(
            {"rows": 2, "cols": 2, "bands": 1, "dtype": "f64",
             "interleave": "bsq", "byte_order": "little"}))
        with pytest.raises(DataError, match="dtype"):
            raster.load_cube(str(path))


class TestGroundTruthFormat:
    def test_raw_needs_matching_size(self, tmp_path):
        gt = GroundTruth(labels=np.array([[1, 2], [0, 1]]))
        path = str(tmp_path / "g.gt.raw")
        raster.save_gt(gt, path)
        loaded = raster.load_gt(path, rows=2, cols=2)
        assert (loaded.labels == gt.labels).all()
        with pytest.raises(DataError, match="expected"):
            raster.load_gt(path, rows=3, cols=2)

    def test_csv_grid(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0,1,2\n2,0,1\n")
        loaded = raster.load_gt(str(path))
        assert loaded.labels.tolist() == [[0, 1, 2], [2, 0, 1]]

    def test_csv_negative_labels_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("0,1\n-1,2\n")
        with pytest.raises(DataError, match="negative"):
            raster.load_gt(str(path))

    def test_all_zero_grid_rejected(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("0,0\n0,0\n")
        with pytest.raises(DataError):
            raster.load_gt(str(path))


class TestMaps:
    def test_gt_renders_with_fixed_palette(self, tmp_path):
        grid = np.array([[0, 1], [2, 1]])
        path = str(tmp_path / "m.ppm")
        raster.export_map(grid, path)
        data = Path(path).read_bytes()
        assert data.startswith(b"P6\n2 2\n255\n")
        body = data[len(b"P6\n2 2\n255\n"):]
        expected = (
            bytes((0, 0, 0))
            + bytes(raster.PALETTE[0])
            + bytes(raster.PALETTE[1])
            + bytes(raster.PALETTE[0])
        )
        assert body == expected

    def test_constant_grid_is_single_color(self, tmp_path):
        path = str(tmp_path / "c.ppm")
        raster.export_map(np.full((3, 3), 5), path)
        body = Path(path).read_bytes().split(b"255\n", 1)[1]
        pixels = [body[i : i + 3] for i in range(0, len(body), 3)]
        assert len(set(pixels)) == 1

    def test_huge_class_id_renders_from_the_palette(self, tmp_path):
        # a color table indexed by class id would need 10**12 rows
        csv = tmp_path / "huge.csv"
        csv.write_text("1000000000000,1\n2,0\n")
        path = tmp_path / "huge.ppm"
        assert main(["render", "--gt", str(csv), "--out", str(path)]) == 0
        body = path.read_bytes()[len(b"P6\n2 2\n255\n"):]
        assert body == (bytes(raster.PALETTE[19]) + bytes(raster.PALETTE[0])
                        + bytes(raster.PALETTE[1]) + bytes(3))

    @pytest.mark.parametrize("classifier", ["svm", "1nn"])
    def test_huge_class_id_compares(self, small_dataset, tmp_path, classifier):
        # estimator histograms are sized by class rank, not by class id
        base, _, gt = small_dataset
        labels = np.where(gt.labels == 3, 10**15, gt.labels)
        csv = tmp_path / "huge.csv"
        csv.write_text("".join(",".join(map(str, row)) + "\n" for row in labels.tolist()))
        out = tmp_path / "run"
        argv = ["compare", "--cube", base, "--gt", str(csv), "--methods", "MIM,IGBS",
                "--k", "3", "--classifier", classifier, "--out", str(out)]
        assert main(argv) == 0
        assert "1000000000000000" in (out / "comparison.txt").read_text()

    def test_series_to_grid_offsets_symbols(self):
        gt = GroundTruth(labels=np.array([[1, 0], [0, 2]]))
        grid = raster.series_to_grid(np.array([0, 3]), gt, offset=1)
        assert grid.tolist() == [[1, 0], [0, 4]]


class TestRunCompare:
    def test_writes_reports_maps_and_comparison(self, small_dataset, tmp_path):
        base, _, gt = small_dataset
        out = str(tmp_path / "run")
        config = RunConfig(cube=base, gt=base + ".gt.raw", methods=("MIM", "IGBS"),
                           k=3, classifier="1nn", seed=5, out=out)
        outcomes = pipeline.run_compare(config)
        assert all(o.error is None for o in outcomes)
        for method in ("MIM", "IGBS"):
            assert os.path.exists(f"{out}/{method}.report.txt")
            assert os.path.exists(f"{out}/{method}.map.ppm")
        text = Path(f"{out}/comparison.txt").read_text()
        assert text.splitlines()[0].startswith("params:")
        assert "OA(%)" in text and "Kappa(%)" in text

    def test_identical_config_byte_identical_outputs(self, small_dataset, tmp_path):
        base, _, _ = small_dataset
        blobs = []
        for run in ("a", "b"):
            out = str(tmp_path / run)
            config = RunConfig(cube=base, gt=base + ".gt.raw", methods=("MRMR",),
                               k=3, classifier="1nn", seed=2, out=out)
            pipeline.run_compare(config)
            blobs.append(
                (
                    Path(f"{out}/MRMR.report.txt").read_bytes(),
                    Path(f"{out}/MRMR.map.ppm").read_bytes(),
                    Path(f"{out}/comparison.txt").read_bytes(),
                )
            )
        assert blobs[0] == blobs[1]

    def test_report_reruns_from_embedded_config(self, small_dataset, tmp_path):
        base, _, _ = small_dataset
        out = str(tmp_path / "first")
        config = RunConfig(cube=base, gt=base + ".gt.raw", methods=("MIFS",),
                           k=4, classifier="1nn", seed=11, out=out)
        pipeline.run_compare(config)
        report_path = f"{out}/MIFS.report.txt"
        rerun_config = RunConfig.from_report(report_path)
        rerun_config.out = str(tmp_path / "second")
        pipeline.run_compare(rerun_config)
        first = Path(report_path).read_bytes()
        second = Path(f"{rerun_config.out}/MIFS.report.txt").read_bytes()
        assert first == second

    def test_degenerate_k_all_bands_same_set_same_oa(self, tmp_path):
        # every band informative and low-noise: the MIBF gate accepts all too
        spec = SynthSpec(rows=12, cols=12, bands=6, classes=2,
                         informative_bands=tuple(range(6)), noise_sigma=0.05,
                         class_separation=8.0, seed=4)
        cube, gt, _ = generate_cube(spec)
        base = str(tmp_path / "dense")
        raster.save_cube(cube, base)
        raster.save_gt(gt, base + ".gt.raw")
        config = RunConfig(cube=base, gt=base + ".gt.raw", k=6,
                           classifier="1nn", seed=1, out=str(tmp_path / "full"))
        outcomes = pipeline.run_compare(config)
        full = set(range(6))
        oas = []
        for o in outcomes:
            assert o.error is None
            assert set(o.selection.selected) == full
            oas.append(o.report.oa)
        assert max(oas) - min(oas) == 0.0

    def test_failed_method_recorded_others_proceed(self, small_dataset, tmp_path, monkeypatch):
        base, _, _ = small_dataset
        real = pipeline.greedy_select

        def flaky(qcube, gt, method, k, **kwargs):
            if method == "MRMR":
                raise MethodError("forced failure")
            return real(qcube, gt, method, k, **kwargs)

        monkeypatch.setattr(pipeline, "greedy_select", flaky)
        out = str(tmp_path / "mixed")
        config = RunConfig(cube=base, gt=base + ".gt.raw", methods=("MIM", "MRMR"),
                           k=3, classifier="1nn", out=out)
        outcomes = pipeline.run_compare(config)
        assert outcomes[0].error is None
        assert outcomes[1].error == "forced failure"
        comparison = Path(f"{out}/comparison.txt").read_text()
        assert "failed" in comparison
        report = Path(f"{out}/MRMR.report.txt").read_text()
        assert "status = failed" in report

    def test_comparison_layout_mirrors_class_rows(self):
        config = RunConfig(methods=("MIM",), classifier="1nn")
        outcome = MethodOutcome(method="MIM", error="boom")
        text = render_comparison(config, [outcome], classes=np.array([1, 2, 3]))
        lines = text.splitlines()
        assert lines[1].split() == ["class", "MIM"]
        assert [ln.split()[0] for ln in lines[2:]] == ["1", "2", "3", "Kappa(%)", "OA(%)"]

    @pytest.mark.parametrize("gamma, shown, resolved",
                             [(0.125, "0.125000", "0.125000"), (None, "auto", "0.500000")])
    def test_report_and_comparison_bytes(self, tmp_path, gamma, shown, resolved):
        config = RunConfig(gt="scene.gt.raw", methods=("MIFS", "IGBS"), k=2, levels=8,
                           beta=0.25, threshold=-0.5, lam=2.0, svm_c=10.0, svm_gamma=gamma,
                           svm_tol=0.01, fraction=0.3, seed=7, out="ignored")
        ok = MethodOutcome(
            method="MIFS",
            selection=types.SimpleNamespace(selected=[3, 1], step_scores=[1.5, 0.25]),
            report=classify.evaluate([1, 1, 2, 2, 3], [1, 2, 2, 2, 3], classes=[1, 2, 3, 4]),
            resolved_gamma=0.5 if gamma is None else gamma,
        )
        report = render_method_report(config, ok, bands_total=6)
        assert report == (
            "report = band-selection-evaluation\nmethod = MIFS\ncube = -\n"
            "gt = scene.gt.raw\nk = 2\nlevels = 8\nbeta = 0.250000\n"
            "threshold = -0.500000\nlambda = 2.000000\nclassifier = svm\n"
            f"svm_c = 10.000000\nsvm_gamma = {shown}\nsvm_tol = 0.010000\n"
            "fraction = 0.300000\nseed = 7\nbands_total = 6\nstatus = ok\n"
            f"svm_gamma_resolved = {resolved}\nselected_bands = 3 1\n"
            "step_scores = 1.500000 0.250000\noa_percent = 80.00\nkappa_percent = 68.75\n"
            "table = per_class\nclass n_test accuracy_percent\n1 1 100.00\n2 3 66.67\n"
            "3 1 100.00\n4 0 undefined\nend = per_class\ntable = confusion\n"
            "1 0 0 0\n1 2 0 0\n0 0 1 0\n0 0 0 0\nend = confusion\n"
        )
        failed = MethodOutcome(method="IGBS", error="boom")
        assert render_comparison(config, [ok, failed], np.array([1, 2, 3, 4])) == (
            "params: k=2 levels=8 beta=0.250000 threshold=-0.500000 lambda=2.000000 "
            f"classifier=svm svm_c=10.000000 svm_gamma={shown} svm_tol=0.010000 "
            "fraction=0.300000 seed=7\n"
            "class             MIFS      IGBS\n"
            "1               100.00    failed\n"
            "2                66.67    failed\n"
            "3               100.00    failed\n"
            "4            undefined    failed\n"
            "Kappa(%)         68.75    failed\n"
            "OA(%)            80.00    failed\n"
        )
        path = tmp_path / "MIFS.report.txt"
        path.write_text(report)
        expected = dataclasses.replace(config, methods=("MIFS",), out="run")
        assert RunConfig.from_report(str(path)) == expected


# sha256 of every file two run_compare calls write on a fixed in-memory scene
# (no data paths, so reports hold none); a change to any report, map or
# comparison byte shows here
_GOLDEN = {
    "svm/IGBS.map.ppm":
        "c34ddf46f2a974f8a1a7646f90dc05892afb635eaf466397a875ab9bde510f3a",
    "svm/IGBS.report.txt":
        "8fad189af1ef6e8b71e192614608f0f22ee96eb64a99befa3600ec7ae7394db7",
    "svm/MIBF.map.ppm":
        "b07abe4023e9cf4301daf419754ce87ec9a169ff282aeba06eb1d8ce5377cf1a",
    "svm/MIBF.report.txt":
        "4677b0f73680cf67b330df7aa406a3ecac8366fe205b1e9dce031da4cf635233",
    "svm/MIFS.map.ppm":
        "c34ddf46f2a974f8a1a7646f90dc05892afb635eaf466397a875ab9bde510f3a",
    "svm/MIFS.report.txt":
        "05eb5689e12f100a9f55f9d85310d275f371d02bccaadb813013714beca7e1b4",
    "svm/MIM.map.ppm":
        "c34ddf46f2a974f8a1a7646f90dc05892afb635eaf466397a875ab9bde510f3a",
    "svm/MIM.report.txt":
        "75bb699973d2dbfcabac20265a530d2329af4a2bd6ad3d7c7e12a72b3462e106",
    "svm/MRMR.map.ppm":
        "c34ddf46f2a974f8a1a7646f90dc05892afb635eaf466397a875ab9bde510f3a",
    "svm/MRMR.report.txt":
        "98724e0ab0408785e420caac4cdda41f3496c17a1a1636e222e19e69b04bc076",
    "svm/comparison.txt":
        "5647fd578ffa0a7dde8705bd22375ad88b33a9f40097b0c086d26fec662388b9",
    "1nn/IGBS.map.ppm":
        "c34ddf46f2a974f8a1a7646f90dc05892afb635eaf466397a875ab9bde510f3a",
    "1nn/IGBS.report.txt":
        "458b2b28323d1650f639234d5cf5df051805a11c23ac61c37077de0343c01ee4",
    "1nn/MIBF.map.ppm":
        "3745888a46c78865270f631d29be32362bb3405417907d01163b382317f4ec22",
    "1nn/MIBF.report.txt":
        "fa027f8eeaef0dadf3aa7ffae4103e63d53c8d34cc4254f0e99a5221357f828b",
    "1nn/MIFS.map.ppm":
        "c34ddf46f2a974f8a1a7646f90dc05892afb635eaf466397a875ab9bde510f3a",
    "1nn/MIFS.report.txt":
        "256c05ca8229d33c8ee33402e643dd8b1b0f8e4eb43deb0f107c87ae21cc65ce",
    "1nn/MIM.map.ppm":
        "c34ddf46f2a974f8a1a7646f90dc05892afb635eaf466397a875ab9bde510f3a",
    "1nn/MIM.report.txt":
        "4001f9de7f7d7e3e2a86b8a1e026eaa7b6b54be2ea933d252245827b23d7f2e8",
    "1nn/MRMR.map.ppm":
        "c34ddf46f2a974f8a1a7646f90dc05892afb635eaf466397a875ab9bde510f3a",
    "1nn/MRMR.report.txt":
        "773c1077099c7055dbe650714821c0cc097cde1d63e5283318534b60ebbc9a0d",
    "1nn/comparison.txt":
        "8afb3a2657038361f0a0afb7e0dc460e7d5ab1246b42f2265bf5b3ebdf463c4f",
}


def test_run_compare_output_bytes_are_fixed(tmp_path):
    spec = SynthSpec(rows=16, cols=16, bands=12, classes=3, informative_bands=(1, 5, 9),
                     noise_sigma=1.0, class_separation=6.0, seed=5)
    cube, gt, _ = generate_cube(spec)
    digests = {}
    for classifier in ("svm", "1nn"):
        out = tmp_path / classifier
        config = RunConfig(k=4, seed=1, classifier=classifier, out=str(out))
        pipeline.run_compare(config, cube=cube, gt=gt)
        for path in out.iterdir():
            digests[f"{classifier}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == _GOLDEN


# sha256 of the maps `render` writes: the ground truth of the small scene, an
# estimated map on bands 1 and 4, and a CSV grid of class ids 0..47, which
# wraps the 20-color palette twice
_RENDER_GOLDEN = {
    "gt": "d6f65cb617e304851d9f08047c189a4d6f3e22de04499648b08f2a42927b37cf",
    "est": "085f7a27e2a4ca97041fb787be560b344d548295c0788cbe4f9cb27340d64b1f",
    "wrap": "f04ef3fd18a65ada346543da9d2a40eb478d0ca9b13fc9f46e45378767600071",
}


def test_render_output_bytes_are_fixed(small_dataset, tmp_path, capsys):
    base = small_dataset[0]
    csv = tmp_path / "wrap.csv"
    csv.write_text("".join(",".join(str(8 * r + c) for c in range(8)) + "\n" for r in range(6)))
    runs = {
        "gt": ["--cube", base, "--gt", base + ".gt.raw"],
        "est": ["--cube", base, "--gt", base + ".gt.raw", "--bands", "1,4"],
        "wrap": ["--gt", str(csv)],
    }
    digests = {}
    for name, argv in runs.items():
        path = tmp_path / f"{name}.ppm"
        assert main(["render", *argv, "--out", str(path)]) == 0
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == _RENDER_GOLDEN


# sha256 of what `compare --methods MIM --classifier 1nn` writes on a 4-level
# scene where 178 of the 200 test pixels have more than one nearest train
# pixel, so any change to how 1-NN distances are computed or tied shows here
_KNN_GOLDEN = {
    "MIM.map.ppm": "298b627450c01b2cdd932ace4bf3cdc31b73ce635d0440e870f099e29fb12acd",
    "MIM.report.txt": "1bedd3e6929ef43e3ecfbd23bd03a2d00696548a02408bb2b359515bb9b5bde2",
    "comparison.txt": "f575f6150a29eafb461e2802dffdc3421ff8ae1b85b8f1985ac3020f4c707733",
}


def test_knn_compare_output_bytes_are_fixed(tmp_path, monkeypatch, capsys):
    spec = SynthSpec(rows=20, cols=20, bands=10, classes=4, informative_bands=(2, 5, 8),
                     noise_sigma=2.0, class_separation=3.0, seed=7)
    cube, gt, _ = generate_cube(spec)
    monkeypatch.chdir(tmp_path)  # relative paths keep the report bytes fixed
    raster.save_cube(cube, "scene")
    raster.save_gt(gt, "scene.gt.raw")
    argv = ["compare", "--cube", "scene", "--gt", "scene.gt.raw", "--methods", "MIM",
            "--classifier", "1nn", "--levels", "4", "--k", "5", "--out", "out"]
    assert main(argv) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "out").iterdir()}
    assert digests == _KNN_GOLDEN



# sha256 of what `compare --classifier svm --svm-c 0.5` writes on the same
# 4-level scene; at this C nearly every dual ends at the box bound and many
# rows repeat, so any change to the RBF kernel or the SMO steps shows here
_SVM_GOLDEN = {
    "IGBS.map.ppm": "9afabcb35749499585369ffe7113050a395f2f6b6f60f9283d27067b6cf2c02c",
    "IGBS.report.txt": "865dca9b18254844afbe1854920ad52a6a2d0f7e01efe4682b77e53964571359",
    "MIBF.map.ppm": "04e7125da06827a1b781903fa7207beace6b4cb6351c3f37d05a2b76f8a27424",
    "MIBF.report.txt": "5f73ffcef5ae561fbdb758ff3ce9697fe0e6ad3c523f588f3ee2ab321a397688",
    "MIFS.map.ppm": "69f8910dd3f9195b6d2edce05edf4b256918c3cad56804dae0e928532b1192b5",
    "MIFS.report.txt": "eba279b83f07189be6f5c9e2e764a6e5bf57f702a93c5a18a2780422c31bc88c",
    "MIM.map.ppm": "9afabcb35749499585369ffe7113050a395f2f6b6f60f9283d27067b6cf2c02c",
    "MIM.report.txt": "6c5adc41723ddae198c187eedfbc09835e9b087fd9f37cad4246485bdf912766",
    "MRMR.map.ppm": "9afabcb35749499585369ffe7113050a395f2f6b6f60f9283d27067b6cf2c02c",
    "MRMR.report.txt": "edddbf34725fc12937e39d2cc341c0de51b459556c197b6b31531bde6f56d584",
    "comparison.txt": "72a000f3f98b6ef0426abf77d312f4588d164703b79c9b704a7091e77c357f73",
}


def test_svm_compare_output_bytes_are_fixed(tmp_path, monkeypatch, capsys):
    spec = SynthSpec(rows=20, cols=20, bands=10, classes=4, informative_bands=(2, 5, 8),
                     noise_sigma=2.0, class_separation=3.0, seed=7)
    cube, gt, _ = generate_cube(spec)
    monkeypatch.chdir(tmp_path)  # relative paths keep the report bytes fixed
    raster.save_cube(cube, "scene")
    raster.save_gt(gt, "scene.gt.raw")
    argv = ["compare", "--cube", "scene", "--gt", "scene.gt.raw", "--classifier", "svm",
            "--svm-c", "0.5", "--levels", "4", "--k", "5", "--out", "out"]
    assert main(argv) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "out").iterdir()}
    assert digests == _SVM_GOLDEN

class TestRunConfig:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            build_record(RunConfig, {"bogus": 1}, ConfigError)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(methods=("MIM", "RANDOM"))

    def test_methods_accept_comma_string(self):
        config = RunConfig(methods="mim,igbs")
        assert config.methods == ("MIM", "IGBS")

    def test_truncated_report_rejected(self, tmp_path):
        text = render_method_report(RunConfig(), MethodOutcome(method="MIM", error="x"),
                                    bands_total=8)
        path = tmp_path / "cut.report.txt"
        path.write_text("".join(text.splitlines(keepends=True)[:8]))
        with pytest.raises(ConfigError, match="lambda"):
            RunConfig.from_report(str(path))

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"k": 7, "classifier": "1nn", "methods": ["MIM"]}))
        config = build_record(RunConfig, read_json_object(str(path), ConfigError), ConfigError)
        assert config.k == 7
        assert config.classifier == "1nn"


class TestCli:
    def test_synth_select_compare_render_flow(self, tmp_path, capsys):
        base = str(tmp_path / "scene")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "rows": 12, "cols": 12, "bands": 8, "classes": 3,
            "informative_bands": [1, 4, 6], "noise_sigma": 0.5,
            "class_separation": 8.0, "seed": 3,
        }))
        assert main(["synth", "--config", str(spec_path), "--out", base]) == 0
        assert main([
            "select", "--method", "IGBS", "--cube", base, "--gt", base + ".gt.raw",
            "--k", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "selected_bands =" in out
        run_dir = str(tmp_path / "run")
        assert main([
            "compare", "--methods", "MIM,IGBS", "--cube", base,
            "--gt", base + ".gt.raw", "--k", "3", "--classifier", "1nn",
            "--out", run_dir,
        ]) == 0
        assert os.path.exists(f"{run_dir}/comparison.txt")
        map_path = str(tmp_path / "est.ppm")
        assert main([
            "render", "--cube", base, "--gt", base + ".gt.raw",
            "--bands", "1,4", "--out", map_path,
        ]) == 0
        assert Path(map_path).read_bytes()[:2] == b"P6"

    def test_classify_prints_summary(self, tmp_path, capsys):
        base = str(tmp_path / "scene")
        main(["synth", "--rows", "10", "--cols", "10", "--bands", "6",
              "--classes", "2", "--informative", "0,3", "--seed", "1",
              "--out", base])
        code = main([
            "classify", "--method", "MRMR", "--cube", base, "--gt", base + ".gt.raw",
            "--k", "2", "--classifier", "1nn", "--out", str(tmp_path / "o"),
        ])
        assert code == 0
        assert "OA" in capsys.readouterr().out

    @pytest.mark.parametrize("method, flag, selected, digest", [
        pytest.param("MIFS", "--beta=1e308", "0 1 2 3 4", "db7e63efeb84b62d", id="MIFS+"),
        pytest.param("MIFS", "--beta=-1e308", "0 2 1 3 4", "e3c0daf5c3a2e462", id="MIFS-"),
        pytest.param("IGBS", "--lambda=1e308", "0 1 4 2 3", "61b4dc1226206617", id="IGBS+"),
        pytest.param("IGBS", "--lambda=-1e308", "0 2 3 4 1", "1f92ade0a438e3b2", id="IGBS-"),
    ])
    def test_overflowing_weight_prints_no_warning(self, tmp_path, method, flag, selected,
                                                  digest):
        # bands 0, 2 and 3 are the class map (3 bits), so the weighted
        # redundancy or interaction overflows to ±inf ties; a fresh process
        # shows numpy's RuntimeWarning on stderr if one is raised
        labels = np.arange(64).reshape(8, 8) % 8 + 1
        noise = np.random.default_rng(0).integers(0, 16, size=(2, 8, 8))
        bands = np.stack([labels, noise[0], labels, labels, noise[1]]).astype(np.float64)
        base = str(tmp_path / "scene")
        raster.save_cube(HyperCube(values=bands), base)
        raster.save_gt(GroundTruth(labels=labels), base + ".gt.raw")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "igbs.cli", "select", "--method", method, flag,
             "--cube", base, "--gt", base + ".gt.raw", "--k", "5"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert f"selected_bands = {selected}\n" in proc.stdout
        assert hashlib.sha256(proc.stdout.encode()).hexdigest()[:16] == digest

    def test_missing_data_exits_3(self, tmp_path):
        assert main([
            "select", "--method", "MIM", "--cube", str(tmp_path / "nope"),
            "--gt", str(tmp_path / "nope.gt.raw"), "--k", "2",
        ]) == 3

    def test_bad_config_exits_2(self, tmp_path):
        base = str(tmp_path / "scene")
        main(["synth", "--rows", "8", "--cols", "8", "--bands", "4",
              "--classes", "2", "--informative", "0", "--seed", "0", "--out", base])
        assert main([
            "compare", "--methods", "NOPE", "--cube", base,
            "--gt", base + ".gt.raw", "--out", str(tmp_path / "r"),
        ]) == 2

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        base = str(tmp_path / "scene")
        main(["synth", "--rows", "10", "--cols", "10", "--bands", "6",
              "--classes", "2", "--informative", "0,3", "--seed", "2",
              "--out", base])
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "cube": base, "gt": base + ".gt.raw", "k": 2,
            "classifier": "1nn", "methods": ["MIM"],
        }))
        run_dir = str(tmp_path / "cfgrun")
        assert main(["compare", "--config", str(cfg), "--out", run_dir]) == 0
        assert os.path.exists(f"{run_dir}/MIM.report.txt")


# Each row once ended in a traceback or in the wrong exit code. Config rows
# run `compare` with a --config file holding only the bad field, so no flag
# overrides it.
@pytest.mark.parametrize(
    "argv, config, code",
    [
        pytest.param(["compare"], {"k": "abc"}, 2, id="config-k-not-int"),
        pytest.param(["compare"], {"methods": 5}, 2, id="config-methods-not-strings"),
        pytest.param(["compare"], {"fraction": None}, 2, id="config-fraction-null"),
        pytest.param(["compare", "--seed", "-1"], None, 2, id="seed-negative"),
        pytest.param(["compare", "--svm-gamma", "-1"], None, 2, id="svm-gamma-negative"),
        pytest.param(["compare", "--svm-c", "0"], None, 2, id="svm-c-zero"),
        pytest.param(["compare", "--svm-tol", "-1"], None, 2, id="svm-tol-negative"),
        pytest.param(["compare", "--k", "0"], None, 2, id="k-zero"),
        pytest.param(["compare", "--levels", "1"], None, 2, id="levels-one"),
        pytest.param(["render", "--bands", "1,abc"], None, 2, id="render-bands-not-int"),
        pytest.param(["render", "--bands", "99"], None, 3, id="render-band-out-of-range"),
        pytest.param(["render", "--bands", ""], None, 3, id="render-bands-empty"),
        pytest.param(["synth", "--seed", "-3"], None, 3, id="synth-seed-negative"),
        pytest.param(["synth"], {"seed": 1.5}, 2, id="synth-config-seed-fractional"),
        pytest.param(["synth"], {"informative_bands": 5}, 2, id="synth-config-bands-not-list"),
        pytest.param(["synth"], {"rows": 8.7}, 2, id="synth-config-rows-fractional"),
        pytest.param(["synth", "--informative", "0,x"], None, 2, id="synth-informative-not-int"),
        pytest.param(["render", "--levels", "1"], None, 2, id="render-levels-one"),
        pytest.param(["compare", "--k", "abc"], None, 2, id="k-not-int"),
        pytest.param(["compare", "--bogus", "1"], None, 2, id="unknown-flag"),
        pytest.param(["compare", "--beta", "nan"], None, 2, id="beta-nan"),
        pytest.param(["compare", "--threshold", "nan"], None, 2, id="threshold-nan"),
        pytest.param(["compare"], {"k": 8.7}, 2, id="config-k-fractional"),
        pytest.param(["compare"], {"seed": True}, 2, id="config-seed-boolean"),
        pytest.param(["compare", "--k", "9"], None, 2, id="compare-k-above-bands"),
        pytest.param(["classify", "--method", "MIM", "--k", "9"], None, 2,
                     id="classify-k-above-bands"),
        pytest.param(["compare", "--methods", "MIM,mim"], None, 2, id="methods-duplicate"),
        pytest.param(["compare", "--fraction", "0.01"], None, 3,
                     id="compare-fraction-trains-no-class"),
        pytest.param(["classify", "--method", "MIM", "--fraction", "0.01"], None, 3,
                     id="classify-fraction-trains-no-class"),
    ],
)
def test_bad_input_exits_with_one_line(small_dataset, tmp_path, capsys, argv, config, code):
    base = small_dataset[0]
    argv = list(argv) + ["--out", str(tmp_path / "out")]
    if argv[0] != "synth":
        argv += ["--cube", base, "--gt", base + ".gt.raw"]
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    # an exception escaping main() is the traceback a user would see
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.strip() and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# Each header text once ended in a traceback or was silently accepted.
@pytest.mark.parametrize(
    "header",
    [
        pytest.param("5", id="not-an-object"),
        pytest.param('{"rows": true, "cols": 2, "bands": 1}', id="rows-boolean"),
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deep"),
    ],
)
def test_bad_header_exits_3_with_one_line(tmp_path, capsys, header):
    base = str(tmp_path / "scene")
    (tmp_path / "scene.hdr.json").write_text(header)
    (tmp_path / "scene.raw").write_bytes(bytes(8))  # one 1x2 f32 band
    (tmp_path / "gt.csv").write_text("1,2\n")
    argv = ["render", "--cube", base, "--gt", str(tmp_path / "gt.csv"),
            "--out", str(tmp_path / "map.ppm")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.strip() and err.count("\n") == 1
    assert "Traceback" not in err


# numpy only warns on a CSV without rows, and pytest's warning capture would
# hide that warning from capsys, so warnings are raised as errors here.
@pytest.mark.parametrize("text", [pytest.param("", id="empty"), pytest.param("\n\n", id="blank")])
def test_empty_gt_csv_exits_3_with_one_line(tmp_path, capsys, text):
    (tmp_path / "gt.csv").write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["render", "--gt", str(tmp_path / "gt.csv"),
                     "--out", str(tmp_path / "map.ppm")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.strip() and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "exc",
    [
        pytest.param(MemoryError(), id="bare"),
        pytest.param(MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                                 "(1000, 100000, 100000) and data type float64"), id="numpy"),
    ],
)
def test_out_of_memory_exits_3_with_one_line(tmp_path, capsys, monkeypatch, exc):
    def generate_cube(spec):
        raise exc

    monkeypatch.setattr(cli, "generate_cube", generate_cube)
    assert main(["synth", "--out", str(tmp_path / "scene")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# The run and synth flags are generated from the record fields; these pin
# their names.
_RUN_FLAGS = {
    "cube": "--cube", "gt": "--gt", "k": "--k", "levels": "--levels", "beta": "--beta",
    "threshold": "--threshold", "lam": "--lambda", "classifier": "--classifier",
    "svm_c": "--svm-c", "svm_gamma": "--svm-gamma", "svm_tol": "--svm-tol",
    "fraction": "--fraction", "seed": "--seed", "out": "--out",
}


def test_every_run_field_has_one_row_and_a_flag():
    declared = dataclasses.fields(RunConfig)
    assert all(callable(f.metadata["cast"]) for f in declared)
    # reports open with the method, then follow field order
    assert declared[0].name == "methods"
    assert set(_RUN_FLAGS) == {f.name for f in declared} - {"methods"}
    parser = cli.build_parser()
    for verb, method_flag in (("select", "--method"), ("classify", "--method"),
                              ("compare", "--methods")):
        argv = [verb, method_flag, "MIM"]
        for name, flag in _RUN_FLAGS.items():
            argv += [flag, f"<{name}>"]
        args = parser.parse_args(argv)
        assert args.methods == "MIM"
        for name in _RUN_FLAGS:
            assert getattr(args, name) == f"<{name}>", (verb, name)


_SYNTH_FLAGS = {
    "rows": "--rows", "cols": "--cols", "bands": "--bands", "classes": "--classes",
    "seed": "--seed", "informative_bands": "--informative", "noise_sigma": "--noise-sigma",
    "class_separation": "--separation",
}


def test_every_synth_field_has_a_flag():
    assert set(_SYNTH_FLAGS) == {f.name for f in dataclasses.fields(SynthSpec)}
    argv = ["synth", "--out", "scene"]
    for name, flag in _SYNTH_FLAGS.items():
        argv += [flag, f"<{name}>"]
    args = cli.build_parser().parse_args(argv)
    for name in _SYNTH_FLAGS:
        assert getattr(args, name) == f"<{name}>", name


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--help"])
    assert exc.value.code == 0
    assert "--methods" in capsys.readouterr().out
