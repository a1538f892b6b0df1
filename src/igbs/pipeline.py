"""End-to-end orchestration: load and quantize (once per run, in
``load_dataset``) -> select -> split -> train -> predict -> evaluate, for one
method or a whole comparison run.

A method that fails on its data or in its solver is recorded as failed in its
report and in the comparison table, and the remaining methods still run; a
configuration error, such as k above the cube's band count, ends the run.
Nothing here consumes wall-clock state, so identical configurations produce
byte-identical outputs.

``run_compare`` selects every method's bands in its own process. Where the
host can fork, has a second CPU and numpy's OpenBLAS thread count can be set,
each method but the last then finishes (features, classifier, evaluation) in
a forked child while the next method's bands are selected, every process
using one BLAS thread, and the children's outcomes are joined in method
order. A child's data or solver failure is recorded as the method's, any
other error is raised at the method's place, and a child that ends without a
result has its method finished inline; the outputs are the same bytes either
way.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import threading
import warnings

import numpy as np

from . import classify, raster
from .datamodel import GroundTruth, HyperCube, QuantizedCube, labeled_matrix, quantize_cube
from .errors import ConfigError, DataError, MethodError
from .report import MethodOutcome, RunConfig, render_comparison, render_method_report
from .selection import SelectionResult, greedy_select


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


def _select(qcube: QuantizedCube, gt: GroundTruth, method: str, config: RunConfig):
    return greedy_select(qcube, gt, method, config.k,
                         beta=config.beta, threshold=config.threshold, lam=config.lam)


def run_method(
    qcube: QuantizedCube,
    gt: GroundTruth,
    method: str,
    config: RunConfig,
    split: classify.SplitPlan,
    selection: SelectionResult | None = None,
) -> MethodOutcome:
    """Run one method end to end; returns its selection, evaluation and the
    full-scene predicted labels (over all labeled pixels). A ``selection``
    already made for ``method`` skips the greedy search."""
    if selection is None:
        selection = _select(qcube, gt, method, config)
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
    last = len(config.methods) - 1
    blas = _fork_blas() if last > 0 else None  # (get, set) of the BLAS thread count
    threads = blas[0]() if blas else None
    pending = []  # per method started, in order: its MethodOutcome or the _Child making it
    try:
        if blas:
            # one BLAS thread per process while children run: the pools of
            # two processes on the same CPUs spin against each other
            blas[1](1)
        try:
            for i, method in enumerate(config.methods):
                step = _fork_method if blas and i < last else run_method
                pending.append(_recorded(method, step, qcube, gt, method, config, split))
        except Exception:
            # an error in an earlier method's child comes first, as it would inline
            _join(pending)
            raise
        outcomes = _join(pending)
    finally:
        for child in pending:
            if isinstance(child, _Child):
                child.kill()
        if blas:
            blas[1](threads)
    write_outputs(config, qcube, gt, outcomes)
    return outcomes


def _recorded(method: str, run, *args) -> MethodOutcome:
    """``run(*args)``, with a data or solver failure recorded as ``method``'s
    outcome."""
    try:
        return run(*args)
    except (DataError, MethodError) as exc:
        return MethodOutcome(method=method, error=str(exc))


def _fork_blas():
    """The BLAS thread-count controls when forked children can run beside
    this process, else None. That takes ``os.fork``, a second CPU of ours,
    no other Python thread (one could hold a lock that the child would
    inherit held) and an OpenBLAS whose thread count can be set."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1 and threading.active_count() == 1):
        return None
    return _openblas_threads()


# the thread-count functions OpenBLAS builds export: numpy 2 wheels
# (scipy-openblas), numpy 1 wheels (64-bit integers), a plain build
_OPENBLAS_NAMES = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                   "openblas_{}_num_threads")


def _openblas_threads():
    """``(get, set)`` for the thread count of the OpenBLAS mapped into this
    process, or None when there is none (another BLAS, or no
    ``/proc/self/maps``)."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return None
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # the loaded library itself, not a second copy
        except OSError:
            continue
        for name in _OPENBLAS_NAMES:
            get = getattr(lib, name.format("get"), None)
            put = getattr(lib, name.format("set"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _fork_method(qcube, gt, method, config, split):
    """Select ``method``'s bands here, then finish the method in a forked
    child; a host that cannot fork one now finishes it inline."""
    selection = _select(qcube, gt, method, config)

    def finish():
        return _recorded(method, run_method, qcube, gt, method, config, split, selection)

    try:
        return _Child(finish)
    except OSError:
        return finish()


def _join(pending: list) -> list[MethodOutcome]:
    return [p.result() if isinstance(p, _Child) else p for p in pending]


class _Child:
    """A forked process running ``finish``, which returns a MethodOutcome.
    The child sends the outcome, or the exception ``finish`` raised, back
    through a pipe and leaves only through ``os._exit``."""

    def __init__(self, finish):
        self.finish = finish
        read, write = os.pipe()
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns on fork while other threads exist. The
                # only ones here are OpenBLAS's pool, whose atfork handlers
                # quiesce it around the fork; any other Python thread keeps
                # the run inline (_fork_blas).
                warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks",
                                        DeprecationWarning)
                self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(read)
                try:
                    payload = (finish(), None)
                except Exception as exc:  # the parent raises it at this method's place
                    payload = (None, exc)
                with open(write, "wb") as fh:
                    fh.write(pickle.dumps(payload))
                code = 0
            finally:
                os._exit(code)  # never return into the caller, whatever was raised
        os.close(write)
        self.pipe = open(read, "rb")

    def result(self) -> MethodOutcome:
        """The child's outcome, its exception raised here, or, when it ended
        without a result, the method finished inline."""
        with self.pipe:
            data = self.pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if os.waitstatus_to_exitcode(status) != 0:
            return self.finish()
        outcome, exc = pickle.loads(data)
        if exc is not None:
            raise exc
        return outcome

    def kill(self) -> None:
        """End and reap the child unless ``result`` has joined it."""
        self.pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


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
