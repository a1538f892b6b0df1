import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from igbs import classify, cli, pipeline, raster
from igbs.cli import main
from igbs.datamodel import DiscreteSeries, GroundTruth, HyperCube, quantize_cube
from igbs.errors import ConfigError, DataError, MethodError, build_record, read_json_object
from igbs.report import MethodOutcome, RunConfig, render_comparison, render_method_report
from igbs.selection import init_state
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

    @staticmethod
    def _write_raw_cube(tmp_path, values, dtype):
        bands, rows, cols = values.shape
        (tmp_path / "c.hdr.json").write_text(json.dumps(
            {"rows": rows, "cols": cols, "bands": bands, "dtype": dtype}))
        values.astype({"f32": "<f4", "u16": "<u2"}[dtype]).tofile(tmp_path / "c.raw")
        return str(tmp_path / "c.hdr.json")

    @pytest.mark.parametrize("dtype", ["f32", "u16"])
    def test_samples_load_as_float32_and_levels_as_uint8(self, tmp_path, dtype):
        values = np.arange(36, dtype=np.float64).reshape(3, 3, 4) * 7.0
        cube = raster.load_cube(self._write_raw_cube(tmp_path, values, dtype))
        assert cube.values.dtype == np.float32
        assert np.array_equal(cube.values, values)  # exact
        qcube = quantize_cube(cube, 16)
        assert qcube.values.dtype == np.uint8
        gt = GroundTruth(labels=np.array([[1, 0, 2, 2], [0, 1, 1, 2], [2, 2, 0, 1]]))
        state = init_state(qcube, gt)
        assert state.matrix.dtype == np.uint8
        for row in state.matrix:
            series = DiscreteSeries(symbols=row, alphabet=qcube.levels)
            assert series.symbols.dtype == np.uint8
            assert np.shares_memory(series.symbols, state.matrix)  # rows, not copies

    @pytest.mark.parametrize("dtype", ["f32", "u16"])
    def test_load_and_quantize_memory_is_bounded_by_the_cube(self, tmp_path, dtype):
        # float64 samples and int64 levels would hold 16 B or more per sample
        values = np.random.default_rng(12).normal(1000.0, 100.0, size=(60, 64, 64))
        header = self._write_raw_cube(tmp_path, values, dtype)
        n, plane = values.size, values[0].size
        tracemalloc.start()
        try:
            qcube = quantize_cube(raster.load_cube(header), 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert qcube.values.nbytes == n
        # the samples as read, their float32 copy unless they are f32, one
        # byte per sample (the finite check's mask, then the levels) and four
        # float64 planes
        read = {"f32": 4, "u16": 2 + 4}[dtype]
        assert peak < read * n + n + 4 * 8 * plane

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
        both = ("d/scene.hdr.json", "d/scene.raw")
        assert raster.cube_paths("d/scene") == both
        assert raster.cube_paths("d/scene.hdr.json") == both

    def test_load_cube_takes_base_or_header_path(self, small_dataset):
        base = small_dataset[0]
        by_base, by_header = raster.load_cube(base), raster.load_cube(base + ".hdr.json")
        assert by_base.values.dtype == by_header.values.dtype
        assert np.array_equal(by_base.values, by_header.values)

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

    def test_report_keeps_the_spaces_at_a_path_edge(self, small_dataset, tmp_path, monkeypatch):
        # from_report once stripped " sp/tiny" to "sp/tiny", another path
        base, _, _ = small_dataset
        monkeypatch.chdir(tmp_path)
        (tmp_path / " sp").mkdir()
        cube, gt = " sp/tiny", " sp/tiny.gt.raw "
        for src, dst in ((".hdr.json", cube + ".hdr.json"), (".raw", cube + ".raw"),
                         (".gt.raw", gt)):
            (tmp_path / dst).write_bytes(Path(base + src).read_bytes())
        assert main(["classify", "--method", "MIM", "--cube", cube, "--gt", gt, "--k", "2",
                     "--out", "first"]) == 0
        report = (tmp_path / "first" / "MIM.report.txt").read_bytes()
        assert b"\ncube =  sp/tiny\ngt =  sp/tiny.gt.raw \n" in report
        config = RunConfig.from_report("first/MIM.report.txt")
        assert (config.cube, config.gt) == (cube, gt)
        config.out = "second"
        pipeline.run_compare(config)
        assert (tmp_path / "second" / "MIM.report.txt").read_bytes() == report

    def test_report_holds_floats_six_decimals_do_not(self, small_dataset, tmp_path, capsys):
        # svm_tol 1e-7 once printed as 0.000000, which from_report refused
        base, _, _ = small_dataset
        first = tmp_path / "first"
        assert main(["classify", "--method", "IGBS", "--cube", base, "--gt", base + ".gt.raw",
                     "--k", "3", "--svm-tol", "1e-7", "--beta", "0.6666666",
                     "--out", str(first)]) == 0
        report = (first / "IGBS.report.txt").read_bytes()
        assert b"\nbeta = 0.6666666\n" in report and b"\nsvm_tol = 1e-07\n" in report
        config = RunConfig.from_report(str(first / "IGBS.report.txt"))
        assert (config.beta, config.svm_tol) == (0.6666666, 1e-7)
        config.out = str(tmp_path / "second")
        pipeline.run_compare(config)
        assert (tmp_path / "second" / "IGBS.report.txt").read_bytes() == report

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

    @pytest.mark.parametrize("given, with_paths", [("gt", True), ("cube", False),
                                                   ("cube", True), ("gt", False)])
    def test_half_an_in_memory_input_is_refused(self, small_dataset, tmp_path, monkeypatch,
                                                given, with_paths):
        # with paths, an in-memory gt alone was ignored for the files; without,
        # an in-memory cube alone was "cube and gt paths are required"
        base, cube, gt = small_dataset

        def no_load(config):
            raise AssertionError("run_compare loaded the dataset")

        monkeypatch.setattr(pipeline, "load_dataset", no_load)
        paths = {"cube": base, "gt": base + ".gt.raw"} if with_paths else {}
        config = RunConfig(k=3, classifier="1nn", out=str(tmp_path / "out"), **paths)
        missing = "cube" if given == "gt" else "gt"
        with pytest.raises(ConfigError, match=f"{missing} is missing"):
            pipeline.run_compare(config, **{given: {"cube": cube, "gt": gt}[given]})
        assert not list(tmp_path.glob("out*"))

    def test_in_memory_geometry_mismatch_fails_before_any_work(self, small_dataset, tmp_path,
                                                               monkeypatch):
        # it was five "geometry mismatch" method failures, with their
        # reports, maps and the comparison table written
        _, cube, gt = small_dataset
        calls = []
        monkeypatch.setattr(pipeline, "quantize_cube", lambda *a: calls.append("quantize"))
        monkeypatch.setattr(pipeline, "greedy_select", lambda *a, **k: calls.append("select"))
        out = tmp_path / "out"
        with pytest.raises(DataError, match="^geometry mismatch: cube 12x12 vs ground truth 10x12$"):
            pipeline.run_compare(RunConfig(k=3, out=str(out)), cube=cube,
                                 gt=GroundTruth(labels=gt.labels[:10]))
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("verb", [["compare"], ["classify", "--method", "IGBS"]])
    def test_out_that_is_a_file_fails_before_any_work(self, small_dataset, tmp_path, capsys,
                                                      monkeypatch, verb):
        # the run once selected and classified everything, then failed in makedirs
        base = small_dataset[0]

        def no_select(*args, **kwargs):
            raise AssertionError("bands selected for an unwritable output")

        monkeypatch.setattr(pipeline, "greedy_select", no_select)
        afile = tmp_path / "out"
        afile.write_text("keep")
        for out, code, message in ((str(afile), 3, "is an existing file"),
                                   (str(afile / "sub"), 3, "lies below the existing file"),
                                   ("", 2, "out must not be empty")):
            assert main(verb + ["--cube", base, "--gt", base + ".gt.raw", "--k", "3",
                                "--out", out]) == code
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and message in err
            assert afile.read_text() == "keep"

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


def test_render_gt_map_reads_only_the_cube_header(small_dataset, tmp_path, capsys):
    # the cube lends the ground truth its geometry, and its samples are unused
    base = small_dataset[0]
    os.remove(base + ".raw")
    path = tmp_path / "m.ppm"
    assert main(["render", "--cube", base, "--gt", base + ".gt.raw", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _RENDER_GOLDEN["gt"]


def test_render_bands_without_cube_exits_2_with_one_line(small_dataset, tmp_path, capsys):
    base = small_dataset[0]
    path = tmp_path / "m.ppm"
    argv = ["render", "--bands", "1", "--gt", base + ".gt.raw", "--out", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not path.exists()


def test_select_prints_the_report_selection_lines(small_dataset, tmp_path, capsys):
    base = small_dataset[0]
    flags = ["--method", "MRMR", "--cube", base, "--gt", base + ".gt.raw", "--k", "4"]
    assert main(["select", *flags]) == 0
    printed = capsys.readouterr().out.splitlines()
    out = tmp_path / "run"
    assert main(["classify", *flags, "--classifier", "1nn", "--out", str(out)]) == 0
    report = (out / "MRMR.report.txt").read_text().splitlines()
    for key in ("selected_bands", "step_scores"):
        lines = [ln for ln in printed if ln.startswith(key + " = ")]
        assert len(lines) == 1 and lines[0] in report, key


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

    def test_classify_method_failure_exits_4(self, small_dataset, tmp_path, capsys,
                                             monkeypatch):
        def run_method(*args):
            raise MethodError("solver stalled")

        monkeypatch.setattr(pipeline, "run_method", run_method)
        base = small_dataset[0]
        out = tmp_path / "o"
        assert main(["classify", "--method", "IGBS", "--cube", base, "--gt", base + ".gt.raw",
                     "--k", "2", "--out", str(out)]) == 4
        assert capsys.readouterr().err == "IGBS: failed: solver stalled\n"
        assert "\nstatus = failed\n" in (out / "IGBS.report.txt").read_text()

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

    def test_overflowing_svm_gamma_prints_no_warning(self, small_dataset, tmp_path):
        # gamma * d overflows to inf off the diagonal, where the kernel's
        # limit is 0; a fresh process shows numpy's RuntimeWarning on stderr
        base = small_dataset[0]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "igbs.cli", "compare", "--cube", base,
             "--gt", base + ".gt.raw", "--k", "3", "--svm-gamma", "1e308",
             "--out", str(tmp_path / "big")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")

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

    def test_negative_exponent_is_a_value(self, small_dataset, tmp_path):
        # argparse alone takes -2e-2 for a flag: "expected one argument"
        base, out = small_dataset[0], tmp_path / "neg"
        assert main(["compare", "--cube", base, "--gt", base + ".gt.raw", "--k", "3",
                     "--methods", "MIBF", "--threshold", "-2e-2", "--out", str(out)]) == 0
        assert "threshold = -0.020000\n" in (out / "MIBF.report.txt").read_text()

    @pytest.mark.parametrize("argv, code, line", [
        pytest.param(["compare", "--lambda", "-inf"], 2,
                     "config error: bad lam: expected a finite number, got -inf", id="lambda-inf"),
        pytest.param(["synth", "--separation", "-1e1"], 3,
                     "data error: class separation must be positive", id="separation-exponent"),
        pytest.param(["synth", "--separation", "-10"], 3,
                     "data error: class separation must be positive", id="separation-integer"),
    ])
    def test_negative_value_reaches_the_record(self, small_dataset, tmp_path, capsys,
                                               argv, code, line):
        base = small_dataset[0]
        if argv[0] == "synth":
            data = ["--rows", "4", "--cols", "4", "--bands", "3", "--classes", "2",
                    "--informative", "0"]
        else:
            data = ["--cube", base, "--gt", base + ".gt.raw"]
        assert main(argv + data + ["--out", str(tmp_path / "out")]) == code
        assert capsys.readouterr().err == line + "\n"

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


# the bad inputs the rows of test_bad_input_exits_with_one_line read: cube
# headers (no samples: each is refused before any is read) and CSV grids
_BAD_FILES = {
    "rows0.hdr.json": '{"rows": 0, "cols": 12, "bands": 8}',
    "bil.hdr.json": '{"rows": 12, "cols": 12, "bands": 8, "interleave": "bil"}',
    "big.hdr.json": '{"rows": 12, "cols": 12, "bands": 8, "byte_order": "big"}',
    "norows.hdr.json": '{"cols": 12, "bands": 8}',
    "bad.csv": "1,2\n3,x\n",
    "shape.csv": "1,2\n3,1\n",
}


# Each row once ended in a traceback or in the wrong exit code. Config rows
# run `compare` with a --config file holding only the bad field, so no flag
# overrides it.
@pytest.mark.parametrize(
    "argv, config, code, line",
    [
        pytest.param(["compare"], {"k": "abc"}, 2, None, id="config-k-not-int"),
        pytest.param(["compare"], {"methods": 5}, 2, None, id="config-methods-not-strings"),
        pytest.param(["compare"], {"fraction": None}, 2, None, id="config-fraction-null"),
        pytest.param(["compare", "--seed", "-1"], None, 2, None, id="seed-negative"),
        pytest.param(["compare", "--svm-gamma", "-1"], None, 2, None, id="svm-gamma-negative"),
        pytest.param(["compare", "--svm-c", "0"], None, 2, None, id="svm-c-zero"),
        pytest.param(["compare", "--svm-tol", "-1"], None, 2, None, id="svm-tol-negative"),
        pytest.param(["compare", "--k", "0"], None, 2, None, id="k-zero"),
        pytest.param(["compare", "--levels", "1"], None, 2, None, id="levels-one"),
        pytest.param(["render", "--bands", "1,abc"], None, 2, None, id="render-bands-not-int"),
        pytest.param(["render", "--bands", "99"], None, 3, None, id="render-band-out-of-range"),
        pytest.param(["render", "--bands", ""], None, 3, None, id="render-bands-empty"),
        pytest.param(["synth", "--seed", "-3"], None, 3, None, id="synth-seed-negative"),
        pytest.param(["synth"], {"seed": 1.5}, 2, None, id="synth-config-seed-fractional"),
        pytest.param(["synth"], {"informative_bands": 5}, 2, None,
                     id="synth-config-bands-not-list"),
        pytest.param(["synth"], {"rows": 8.7}, 2, None, id="synth-config-rows-fractional"),
        pytest.param(["synth", "--informative", "0,x"], None, 2, None,
                     id="synth-informative-not-int"),
        pytest.param(["synth", "--rows", "4", "--cols", "4", "--bands", "3", "--classes", "2",
                      "--informative", "0", "--separation", "1e308"], None, 3, None,
                     id="synth-separation-overflows"),
        pytest.param(["synth", "--rows", "4", "--cols", "4", "--bands", "3", "--classes", "2",
                      "--informative", "0", "--noise-sigma", "1e308"], None, 3, None,
                     id="synth-noise-sigma-overflows"),
        pytest.param(["synth", "--rows", "4", "--cols", "4", "--bands", "3", "--classes", "2",
                      "--informative", "0", "--separation", "1e308", "--noise-sigma", "1e308"],
                     None, 3, None, id="synth-both-overflow"),
        pytest.param(["render", "--levels", "1"], None, 2, None, id="render-levels-one"),
        pytest.param(["compare", "--k", "abc"], None, 2, None, id="k-not-int"),
        pytest.param(["compare", "--bogus", "1"], None, 2, None, id="unknown-flag"),
        pytest.param(["compare", "--beta", "nan"], None, 2, None, id="beta-nan"),
        pytest.param(["compare", "--threshold", "nan"], None, 2, None, id="threshold-nan"),
        pytest.param(["compare"], {"k": 8.7}, 2, None, id="config-k-fractional"),
        pytest.param(["compare"], {"seed": True}, 2, None, id="config-seed-boolean"),
        pytest.param(["compare", "--k", "9"], None, 2, None, id="compare-k-above-bands"),
        pytest.param(["classify", "--method", "MIM", "--k", "9"], None, 2, None,
                     id="classify-k-above-bands"),
        pytest.param(["compare", "--methods", "MIM,mim"], None, 2, None, id="methods-duplicate"),
        pytest.param(["compare", "--fraction", "0.01"], None, 3, None,
                     id="compare-fraction-trains-no-class"),
        pytest.param(["classify", "--method", "MIM", "--fraction", "0.01"], None, 3, None,
                     id="classify-fraction-trains-no-class"),
        # rows that name --cube or --gt bring their own data flags; each
        # pins its one stderr line ({base} is the scene, {tmp} the test's folder)
        pytest.param(["compare", "--cube", "{tmp}/rows0", "--gt", "{base}.gt.raw"], None, 3,
                     "data error: header dimensions must all be >= 1", id="header-rows-zero"),
        pytest.param(["compare", "--cube", "{tmp}/bil", "--gt", "{base}.gt.raw"], None, 3,
                     "data error: unsupported interleave 'bil'", id="header-interleave-bil"),
        pytest.param(["compare", "--cube", "{tmp}/big", "--gt", "{base}.gt.raw"], None, 3,
                     "data error: unsupported byte order 'big'", id="header-byte-order-big"),
        pytest.param(["compare", "--cube", "{tmp}/norows", "--gt", "{base}.gt.raw"], None, 3,
                     "data error: missing CubeHeader fields: ['rows']", id="header-rows-missing"),
        pytest.param(["compare", "--cube", "{base}", "--gt", "{tmp}/bad.csv"], None, 3,
                     "data error: cannot parse {tmp}/bad.csv: could not convert string 'x' "
                     "to int64 at row 1, column 2.", id="gt-csv-unparsable"),
        pytest.param(["compare", "--cube", "{base}", "--gt", "{tmp}/shape.csv"], None, 3,
                     "data error: {tmp}/shape.csv: ground truth is 2x2, cube is 12x12",
                     id="gt-csv-wrong-shape"),
        pytest.param(["render", "--gt", "{base}.gt.raw"], None, 3,
                     "data error: raw ground truth needs rows and cols from the cube",
                     id="render-raw-gt-without-cube"),
        pytest.param(["synth", "--informative", "1,1"], None, 3,
                     "data error: informative bands must be distinct",
                     id="synth-informative-twice"),
        pytest.param(["synth", "--noise-sigma", "-1"], None, 3,
                     "data error: noise sigma must be nonnegative",
                     id="synth-noise-sigma-negative"),
        pytest.param(["synth", "--rows", "0"], None, 3,
                     "data error: rows, cols and bands must all be >= 1", id="synth-rows-zero"),
        pytest.param(["select", "--method", "MIM", "--gt", "{base}.gt.raw"], None, 2,
                     "config error: cube and gt paths are required", id="select-without-cube"),
        pytest.param(["select", "--method", "MIM", "--cube", "{base}"], None, 2,
                     "config error: cube and gt paths are required", id="select-without-gt"),
        pytest.param(["compare"], {"classifier": 5}, 2,
                     "config error: bad classifier: expected a string, got 5",
                     id="config-classifier-not-string"),
        pytest.param(["classify", "--method", "MIM,IGBS"], None, 2,
                     "config error: --method takes one method, got 'MIM,IGBS'",
                     id="classify-two-methods"),
    ],
)
def test_bad_input_exits_with_one_line(small_dataset, tmp_path, capsys, argv, config, code,
                                      line):
    base = small_dataset[0]
    for name, text in _BAD_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [arg.format(base=base, tmp=tmp_path) for arg in argv]
    if argv[0] != "synth" and "--cube" not in argv and "--gt" not in argv:
        argv += ["--cube", base, "--gt", base + ".gt.raw"]
    argv += ["--out", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    # an exception escaping main() is the traceback a user would see
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.strip() and err.count("\n") == 1
    assert "Traceback" not in err
    assert line is None or err == line.format(tmp=tmp_path) + "\n"
    # synth writes <out>.hdr.json, <out>.raw, ... and never <out> itself
    assert not list(tmp_path.glob("out*"))


# A NUL byte in a configured path once crashed `compare`: in os.makedirs
# after every method had run (out), or stat-ing the raw ground truth (gt).
@pytest.mark.parametrize("field, value", [
    pytest.param("cube", "scene\0", id="cube"),
    pytest.param("gt", "scene.gt\0.raw", id="gt"),
    pytest.param("out", "out\0b", id="out"),
])
def test_nul_in_config_path_exits_2_before_reading(small_dataset, tmp_path, capsys,
                                                   field, value):
    base = small_dataset[0]
    config = {"cube": base, "gt": base + ".gt.raw", "out": str(tmp_path / "out"),
              "k": 2, "classifier": "1nn", "methods": ["MIM"]}
    config[field] = str(tmp_path / value)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    assert main(["compare", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "NUL" in err and err.count("\n") == 1
    assert not list(tmp_path.glob("out*"))


def test_nul_in_raster_path_is_a_data_error(small_dataset):
    base = small_dataset[0]
    with pytest.raises(DataError):
        raster.load_cube(base + "\0")
    with pytest.raises(DataError):
        raster.load_gt(base + ".gt\0.raw", rows=12, cols=12)


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


def test_synth_labels_beyond_u16_write_nothing(tmp_path, capsys):
    # the cube was written before the ground truth failed its u16 check
    argv = ["synth", "--classes", "70000", "--rows", "300", "--cols", "300", "--bands", "1",
            "--informative", "0", "--out", str(tmp_path / "big")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


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
