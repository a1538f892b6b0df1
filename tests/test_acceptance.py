"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
go by. The full-scale reproduction (criterion 9) needs user-supplied
datasets and is skipped otherwise; see the README for the conversion
recipe and the IGBS_INDIAN_PINES / IGBS_PAVIA environment variables.
"""

import itertools
import os
import time
from pathlib import Path

import numpy as np
import pytest

import brute
from igbs import accel, pipeline, raster
from igbs.classify import (
    ConfusionMatrix,
    cohen_kappa,
    evaluate,
    knn_predict,
    overall_accuracy,
    predict,
    stratified_split,
    train_svm,
)
from igbs.cli import main
from igbs.datamodel import DiscreteSeries, GroundTruth, QuantizedCube, label_series, quantize_cube
from igbs.infotheory import entropy, interaction_information, mutual_information
from igbs.report import RunConfig
from igbs.selection import METHODS, greedy_select, init_state
from igbs.synth import SynthSpec, generate_cube


def _report_line(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail and not ok else ""
    print(f"[acceptance] criterion {criterion} {name}: {status}{suffix}")
    assert ok, f"criterion {criterion} {name}: {detail}"


def _series(symbols, alphabet=None):
    symbols = np.asarray(symbols, dtype=np.int64)
    if alphabet is None:
        alphabet = int(symbols.max()) + 1
    return DiscreteSeries(symbols=symbols, alphabet=alphabet)


def _warm_kernels():
    x = np.array([0, 1], dtype=np.int64)
    accel.hist2d(x, x, 2, 2)
    f = np.zeros((2, 2))
    accel.rbf_kernel(f, f, 1.0)
    accel.nn1_index(f, f)
    accel.smo_solve(np.eye(2), np.array([1.0, -1.0]), 1.0, 1e-3, 10)


def test_criterion_1_estimator_oracle_equivalence():
    _warm_kernels()
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 65))
        trio = [
            _series(rng.integers(0, a, size=n), a)
            for a in rng.integers(2, 5, size=3)
        ]
        a, b, c = trio
        pairs = [
            (entropy(a), brute.entropy_bits(a.symbols.tolist())),
            (
                mutual_information(a, b),
                brute.mutual_info_bits(a.symbols.tolist(), b.symbols.tolist()),
            ),
            (
                interaction_information(a, b, c),
                brute.interaction_bits(
                    a.symbols.tolist(), b.symbols.tolist(), c.symbols.tolist()
                ),
            ),
        ]
        worst = max(worst, max(abs(got - want) for got, want in pairs))
    elapsed = time.perf_counter() - start
    _report_line(
        1,
        "estimator-oracle-equivalence",
        worst <= 1e-9 and elapsed < 5.0,
        f"max deviation {worst:.2e}, elapsed {elapsed:.2f}s",
    )


def test_criterion_2_analytic_fixtures():
    fair = _series([0, 1, 0, 1])
    checks = [abs(entropy(fair) - 1.0)]
    rng = np.random.default_rng(1002)
    x = _series(rng.integers(0, 3, size=40), 3)
    checks.append(abs(mutual_information(x, x) - entropy(x)))
    a = _series([0, 0, 1, 1])
    b = _series([0, 1, 0, 1])
    c = _series(a.symbols ^ b.symbols)
    checks.append(abs(interaction_information(a, b, c) - 1.0))
    checks.append(abs(interaction_information(fair, fair, fair) - (-1.0)))
    worst = max(checks)
    _report_line(2, "analytic-fixtures", worst <= 1e-9, f"max deviation {worst:.2e}")


def test_criterion_3_symmetry_suites():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 65))
        x, y, z = (
            _series(rng.integers(0, a, size=n), a)
            for a in rng.integers(2, 5, size=3)
        )
        worst = max(worst, abs(mutual_information(x, y) - mutual_information(y, x)))
        ref = interaction_information(x, y, z)
        for perm in itertools.permutations((x, y, z)):
            worst = max(worst, abs(interaction_information(*perm) - ref))
    _report_line(3, "symmetry-suites", worst <= 1e-9, f"max deviation {worst:.2e}")


def test_criterion_4_greedy_vs_oracle():
    rng = np.random.default_rng(1004)
    matched = 0
    cases = 50
    for case in range(cases):
        rows = rng.integers(0, 4, size=(6, 256))
        labels = rng.integers(1, 4, size=256)
        labels[0], labels[1] = 1, 2
        qcube = QuantizedCube(values=rows.reshape(6, 1, 256), levels=4)
        gt = GroundTruth(labels=labels.reshape(1, 256))
        ok = True
        for method in METHODS:
            got = greedy_select(qcube, gt, method, k=3).selected
            want = brute.greedy_reference(rows.tolist(), labels.tolist(), method, k=3)
            if got != want:
                ok = False
        matched += ok
    _report_line(4, "greedy-vs-oracle", matched == cases, f"{matched}/{cases} cases")


def test_criterion_5_synthetic_recovery():
    _warm_kernels()
    start = time.perf_counter()
    spec = SynthSpec(
        rows=64, cols=64, bands=50, classes=4,
        informative_bands=(4, 13, 22, 31, 45),
        noise_sigma=1.0, class_separation=10.0, seed=1005,
    )
    cube, gt, meta = generate_cube(spec)
    qcube = quantize_cube(cube, 16)
    planted = set(meta["informative_bands"])

    placements = {}
    for method in ("IGBS", "MRMR", "MIFS"):
        first6 = greedy_select(qcube, gt, method, k=6).selected
        placements[method] = len(planted & set(first6))
    placement_ok = all(v >= 4 for v in placements.values())

    labels = label_series(gt).symbols
    split = stratified_split(gt, fraction=0.5, seed=0)
    igbs5 = greedy_select(qcube, gt, "IGBS", k=5).selected
    worst5 = np.argsort(init_state(qcube, gt).relevance, kind="stable")[:5].tolist()

    def knn_oa(bands):
        feats = pipeline.band_features(qcube, gt, bands)
        pred = knn_predict(
            feats[split.train_idx], labels[split.train_idx], feats[split.test_idx]
        )
        return evaluate(pred, labels[split.test_idx]).oa

    oa_best = knn_oa(igbs5)
    oa_worst = knn_oa(worst5)
    elapsed = time.perf_counter() - start
    ok = placement_ok and oa_best >= 0.95 and oa_worst <= 0.60 and elapsed < 30.0
    _report_line(
        5,
        "synthetic-recovery",
        ok,
        f"placements {placements}, OA(IGBS-5) {oa_best:.3f}, "
        f"OA(bottom-5) {oa_worst:.3f}, elapsed {elapsed:.1f}s",
    )


def test_criterion_6_metrics():
    cm = ConfusionMatrix(classes=np.array([1, 2]), counts=np.array([[40, 10], [10, 40]]))
    perfect = evaluate(np.array([1, 2, 1]), np.array([1, 2, 1]))
    ok = (
        overall_accuracy(cm) == 0.800
        and cohen_kappa(cm) == 0.600
        and perfect.oa == 1.0
        and perfect.kappa == 1.0
    )
    _report_line(
        6,
        "metrics",
        ok,
        f"OA {overall_accuracy(cm)}, kappa {cohen_kappa(cm)}",
    )


def test_criterion_7_svm_sanity():
    rng = np.random.default_rng(1007)
    pos = rng.normal(loc=(0, 0), scale=0.15, size=(25, 2))
    neg = rng.normal(loc=(4, 4), scale=0.15, size=(25, 2))
    x = np.vstack([pos, neg])
    y = np.repeat([1, 2], 25)
    c = 100.0
    model = train_svm(x, y, c=c, gamma=1.0)
    separable_errors = int((predict(model, x) != y).sum())
    duals_ok = all(
        (p.alphas >= 0).all() and (p.alphas <= c).all() for p in model.pairs
    )

    xor_x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    xor_y = np.array([1, 1, 2, 2])
    xor_model = train_svm(xor_x, xor_y, c=10.0, gamma=1.0)
    xor_acc = float((predict(xor_model, xor_x) == xor_y).mean())
    xor_duals_ok = all(
        (p.alphas >= 0).all() and (p.alphas <= 10.0).all() for p in xor_model.pairs
    )
    ok = separable_errors == 0 and duals_ok and xor_acc == 1.0 and xor_duals_ok
    _report_line(
        7,
        "svm-sanity",
        ok,
        f"separable errors {separable_errors}, xor accuracy {xor_acc}",
    )


def test_criterion_8_compare_determinism(tmp_path):
    spec = {"rows": 12, "cols": 12, "bands": 6, "classes": 3,
            "informative_bands": (0, 2, 4), "noise_sigma": 0.4,
            "class_separation": 6.0, "seed": 1008}
    cube, gt, _ = generate_cube(SynthSpec(**spec))
    base = str(tmp_path / "scene")
    raster.save_cube(cube, base)
    raster.save_gt(gt, base + ".gt.raw")
    blobs = []
    for run in ("one", "two"):
        out = str(tmp_path / run)
        code = main([
            "compare", "--cube", base, "--gt", base + ".gt.raw",
            "--k", "3", "--classifier", "svm", "--seed", "9", "--out", out,
        ])
        assert code == 0
        files = sorted(os.listdir(out))
        blobs.append({f: Path(out, f).read_bytes() for f in files})
    ok = blobs[0] == blobs[1]
    _report_line(8, "compare-determinism", ok, f"files {sorted(blobs[0])}")


_PUBLISHED_CASES = [
    ("indian_pines", "IGBS_INDIAN_PINES", 95.25),
    ("pavia_university", "IGBS_PAVIA", 96.83),
]


@pytest.mark.parametrize("name,env,target_oa", _PUBLISHED_CASES)
def test_criterion_9_conditional_published_reproduction(name, env, target_oa, tmp_path):
    """Requires user-supplied data; NOT runnable at desk scale otherwise.

    Point the environment variable at the converted dataset base path (so
    ``$VAR.hdr.json``, ``$VAR.raw`` and ``$VAR.gt.raw`` all exist; see the
    README recipe). With k=80, L=16 and a 50/50 split the method ordering
    IGBS > MRMR >= {MIFS, MIBF} must hold on OA, and the IGBS OA must land
    within +-3 percentage points of the published value.
    """
    base = os.environ.get(env)
    if not base:
        pytest.skip(f"{env} not set: {name} data must be supplied by the user")
    config = RunConfig(
        cube=base, gt=base + ".gt.raw", methods=("MIFS", "MRMR", "MIBF", "IGBS"),
        k=80, levels=16, classifier="svm", fraction=0.5, seed=0,
        out=str(tmp_path / name),
    )
    outcomes = {o.method: o for o in pipeline.run_compare(config)}
    failed = [m for m, o in outcomes.items() if o.error is not None]
    oa = {m: 100 * o.report.oa for m, o in outcomes.items() if o.error is None}
    ordering_ok = (
        not failed
        and oa["IGBS"] > oa["MRMR"]
        and oa["MRMR"] >= min(oa["MIFS"], oa["MIBF"])
    )
    band_ok = not failed and abs(oa["IGBS"] - target_oa) <= 3.0
    _report_line(
        9,
        f"published-results-{name}",
        ordering_ok and band_ok,
        f"failed {failed}, OA {oa}",
    )
