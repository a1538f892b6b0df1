import dataclasses
import hashlib
import json
import os
import types
import warnings

import numpy as np
import pytest

from igbs import classify, pipeline, raster
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


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--help"])
    assert exc.value.code == 0
    assert "--methods" in capsys.readouterr().out
