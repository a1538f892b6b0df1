"""End-to-end orchestration: load and quantize (once per run, in
``load_dataset``) -> select -> split -> train -> predict -> evaluate, for one
method or a whole comparison run.

A method that fails on its data or in its solver is recorded as failed in its
report and in the comparison table, and the remaining methods still run; a
configuration error, such as k above the cube's band count, ends the run.
Nothing here consumes wall-clock state, so identical configurations produce
byte-identical outputs.
"""

from __future__ import annotations

import os

import numpy as np

from . import classify, raster
from .datamodel import GroundTruth, HyperCube, QuantizedCube, labeled_matrix, quantize_cube
from .errors import ConfigError, DataError, MethodError
from .report import MethodOutcome, RunConfig, render_comparison, render_method_report
from .selection import greedy_select


def load_dataset(config: RunConfig) -> tuple[QuantizedCube, GroundTruth]:
    """The configured cube, quantized to ``config.levels`` (its float samples
    are dropped on return), and its ground truth."""
    if not config.cube or not config.gt:
        raise ConfigError("cube and gt paths are required")
    # by header path, the form the benchmark's tracer sizes the cube files from
    cube = raster.load_cube(raster.cube_paths(config.cube)[0])
    gt = raster.load_gt(config.gt, rows=cube.rows, cols=cube.cols)
    return quantize_cube(cube, config.levels), gt


def band_features(qcube: QuantizedCube, gt: GroundTruth, bands) -> np.ndarray:
    """Selected bands' quantized values at labeled pixels, scaled to [0, 1],
    as a C-ordered (n_labeled, |bands|) array."""
    mat = labeled_matrix(qcube, gt, bands)
    return np.ascontiguousarray(mat.T, dtype=np.float64) / (qcube.levels - 1)


def run_method(
    qcube: QuantizedCube,
    gt: GroundTruth,
    method: str,
    config: RunConfig,
    split: classify.SplitPlan,
) -> MethodOutcome:
    """Run one method end to end; returns its selection, evaluation and the
    full-scene predicted labels (over all labeled pixels)."""
    selection = greedy_select(qcube, gt, method, config.k,
                              beta=config.beta, threshold=config.threshold, lam=config.lam)
    features = band_features(qcube, gt, selection.selected)
    labels = gt.classes[gt.ranks]
    train_x, train_y = features[split.train_idx], labels[split.train_idx]
    gamma = None
    if config.classifier == "svm":
        model = classify.train_svm(
            train_x, train_y, c=config.svm_c, gamma=config.svm_gamma, tol=config.svm_tol
        )
        gamma = model.gamma
        full_pred = classify.predict(model, features)
    else:
        full_pred = classify.knn_predict(train_x, train_y, features)
    # the test pixels are a subset of the labeled scene: predict once, slice
    report = classify.evaluate(
        full_pred[split.test_idx], labels[split.test_idx], classes=gt.classes
    )
    return MethodOutcome(method=method, selection=selection, report=report,
                         resolved_gamma=gamma, prediction=full_pred)


def run_compare(
    config: RunConfig,
    cube: HyperCube | None = None,
    gt: GroundTruth | None = None,
) -> list[MethodOutcome]:
    """Run every configured method and write reports, maps and the
    comparison table under ``config.out``. An in-memory ``cube`` and ``gt``
    come together or not at all."""
    if (cube is None) != (gt is None):
        missing = "gt" if gt is None else "cube"
        raise ConfigError(f"an in-memory cube and gt go together: {missing} is missing")
    near = config.out  # out's nearest existing ancestor, or out itself
    while near and not os.path.exists(near):
        near = os.path.dirname(near)
    if near == config.out and not os.path.isdir(near):
        raise DataError(f"output directory {config.out} is an existing file")
    if near and not os.path.isdir(near):
        raise DataError(f"output directory {config.out} lies below the existing file {near}")
    if cube is None:
        qcube, gt = load_dataset(config)
    else:
        qcube = quantize_cube(cube, config.levels)
    split = classify.stratified_split(gt, fraction=config.fraction, seed=config.seed)
    outcomes = []
    for method in config.methods:
        try:
            outcomes.append(run_method(qcube, gt, method, config, split))
        except (DataError, MethodError) as exc:
            outcomes.append(MethodOutcome(method=method, error=str(exc)))
    write_outputs(config, qcube, gt, outcomes)
    return outcomes


def write_outputs(config, qcube, gt, outcomes) -> None:
    os.makedirs(config.out, exist_ok=True)
    for outcome in outcomes:
        path = os.path.join(config.out, f"{outcome.method}.report.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_method_report(config, outcome, bands_total=qcube.bands))
        if outcome.error is None:
            grid = raster.series_to_grid(outcome.prediction, gt, offset=0)
            raster.export_map(grid, os.path.join(config.out, f"{outcome.method}.map.ppm"))
    comparison = render_comparison(config, outcomes, gt.classes)
    with open(os.path.join(config.out, "comparison.txt"), "w", encoding="utf-8") as fh:
        fh.write(comparison)
