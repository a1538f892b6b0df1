import json
import os

import numpy as np
import pytest

from igbs import pipeline, raster
from igbs.cli import main
from igbs.datamodel import GroundTruth, HyperCube
from igbs.errors import ConfigError, DataError, MethodError
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
        base = str(tmp_path / "ints")
        raster.save_cube(HyperCube(values=values), base, dtype="u16")
        loaded = raster.load_cube(base + ".hdr.json")
        assert (loaded.values == values).all()

    def test_truncated_raw_fails_closed(self, tmp_path):
        cube, _, _ = generate_cube(SynthSpec(rows=4, cols=4, bands=2, seed=0,
                                             informative_bands=()))
        base = str(tmp_path / "cut")
        _, raw_path = raster.save_cube(cube, base)
        data = open(raw_path, "rb").read()
        open(raw_path, "wb").write(data[:-8])
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
        data = open(path, "rb").read()
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
        body = open(path, "rb").read().split(b"255\n", 1)[1]
        pixels = [body[i : i + 3] for i in range(0, len(body), 3)]
        assert len(set(pixels)) == 1

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
        text = open(f"{out}/comparison.txt").read()
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
                    open(f"{out}/MRMR.report.txt", "rb").read(),
                    open(f"{out}/MRMR.map.ppm", "rb").read(),
                    open(f"{out}/comparison.txt", "rb").read(),
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
        first = open(report_path, "rb").read()
        second = open(f"{rerun_config.out}/MIFS.report.txt", "rb").read()
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
        comparison = open(f"{out}/comparison.txt").read()
        assert "failed" in comparison
        report = open(f"{out}/MRMR.report.txt").read()
        assert "status = failed" in report

    def test_comparison_layout_mirrors_class_rows(self):
        config = RunConfig(methods=("MIM",), classifier="1nn")
        outcome = MethodOutcome(method="MIM", error="boom")
        text = render_comparison(config, [outcome], classes=np.array([1, 2, 3]))
        lines = text.splitlines()
        assert lines[1].split() == ["class", "MIM"]
        assert [ln.split()[0] for ln in lines[2:]] == ["1", "2", "3", "Kappa(%)", "OA(%)"]


class TestRunConfig:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"bogus": 1})

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
        config = RunConfig.from_json(str(path))
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
        assert open(map_path, "rb").read(2) == b"P6"

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
        pytest.param(["synth", "--seed", "-3"], None, 3, id="synth-seed-negative"),
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
