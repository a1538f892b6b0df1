"""Spans and counters recorded from outside the program.

``install`` replaces the public functions of each ``igbs`` module, at every
call site a ``compare`` run uses, with wrappers that time them. Several
modules bind names at import time (``from .selection import greedy_select``),
so a function is patched in the namespace that calls it, not only where it
is defined. Spans nest strictly (the program is single-threaded), so a
span's self time is its duration minus the time of the spans it encloses.
Stats are aggregated per span name in memory and written once, at exit.
"""

from __future__ import annotations

import functools
import json
import os
import time


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> [calls, inclusive s, self s]
        self.counters = {}
        self.last = {}  # span name -> inclusive s of its latest call
        self._stack = []  # child seconds of each open span
        self._state = None  # SelectionState of the greedy run in progress
        self.missing = []  # call sites install() could not find

    def add(self, name: str, value=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, fn, name, on_return=None):
        """``name`` is a span name, or a function of the call's arguments
        that returns one. ``on_return(args, kwargs, result, seconds)`` runs
        after the span closes, so its cost falls to the caller's self time."""
        stack, last, clock = self._stack, self.last, time.perf_counter
        fixed = None if callable(name) else self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if fixed is not None else name(args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += seconds
                stats = fixed or self.stats.setdefault(span, [0, 0.0, 0.0])
                stats[0] += 1
                stats[1] += seconds
                stats[2] += seconds - child
                last[span] = seconds
            if on_return is not None:
                on_return(args, kwargs, result, seconds)
            return result

        return wrapper

    def dump(self, path: str, **extra) -> None:
        record = {"stats": self.stats, "counters": self.counters,
                  "missing": self.missing, **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, sort_keys=True)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def install(t: Tracer) -> None:
    """Patch every layer boundary a ``compare`` run crosses."""
    from igbs import accel, classify, cli, pipeline, raster, selection

    def patch(module, attr, span, on_return=None):
        if not hasattr(module, attr):
            # the call site moved; the coverage check reports the span
            t.missing.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, t.wrap(getattr(module, attr), span, on_return))

    # cli -> pipeline
    patch(cli, "run_compare", "pipeline.run_compare",
          lambda a, k, outcomes, s: t.add(
              "pipeline.failed_methods", sum(o.error is not None for o in outcomes)))

    # pipeline's own stages, called through its module globals
    patch(pipeline, "load_dataset", "pipeline.load_dataset")
    patch(pipeline, "run_method", "pipeline.run_method")
    patch(pipeline, "band_features", "pipeline.band_features")
    patch(pipeline, "write_outputs", "pipeline.write_outputs")

    # raster, through `raster.<fn>` attribute lookups in pipeline
    def cube_bytes(a, k, r, s):
        header = _arg(a, k, 0, "header_path")
        raw = header[: -len(".hdr.json")] + ".raw"
        t.add("raster.bytes_read", os.path.getsize(header) + os.path.getsize(raw))

    patch(raster, "load_cube", "raster.load_cube", cube_bytes)
    patch(raster, "load_gt", "raster.load_gt",
          lambda a, k, r, s: t.add("raster.bytes_read",
                                   os.path.getsize(_arg(a, k, 0, "path"))))
    patch(raster, "export_map", "raster.export_map",
          lambda a, k, path, s: t.add("raster.bytes_written", os.path.getsize(path)))

    # datamodel, bound by name in pipeline and selection
    patch(pipeline, "quantize_cube", "datamodel.quantize_cube")
    patch(pipeline, "labeled_matrix", "datamodel.labeled_matrix")
    patch(selection, "labeled_matrix", "datamodel.labeled_matrix")

    # report, bound by name in pipeline
    def rendered(a, k, text, s):
        t.add("report.bytes_written", len(text.encode("utf-8")))

    patch(pipeline, "render_method_report", "report.render_method_report", rendered)
    patch(pipeline, "render_comparison", "report.render_comparison", rendered)

    # selection: one span name per method, so each criterion's cost shows
    def greedy_done(a, k, result, seconds):
        method = result.method
        t.add(f"selection.step_s.{method}", seconds - t.last["selection.init_state"])
        t.add(f"selection.steps.{method}", max(len(result.selected) - 1, 0))
        t.add("selection.pair_mi_misses", len(t._state._pair_mi))
        t._state = None

    def state_made(a, k, state, s):
        t._state = state

    patch(pipeline, "greedy_select",
          lambda a, k: f"selection.greedy_select.{str(_arg(a, k, 2, 'method')).upper()}",
          greedy_done)
    patch(selection, "init_state", "selection.init_state", state_made)
    patch(selection, "relevance_scores", "selection.relevance_scores")
    patch(selection.SelectionState, "rebuild_estimated_gt", "selection.rebuild_estimated_gt")
    pair_mi = getattr(selection.SelectionState, "pair_mi", None)

    def counted_pair_mi(self, i, j):
        # a count, not a span: most calls are cache hits that cost less than
        # a wrapper would, and the misses show up as MI spans
        t.counters["selection.pair_mi_calls"] = t.counters.get("selection.pair_mi_calls", 0) + 1
        return pair_mi(self, i, j)

    if pair_mi is None:
        t.missing.append("SelectionState.pair_mi")
    else:
        selection.SelectionState.pair_mi = counted_pair_mi

    # infotheory, bound by name in selection
    patch(selection, "mutual_information", "infotheory.mutual_information")

    # accel, through `accel.<fn>` attribute lookups in infotheory and classify
    patch(accel, "hist2d", "accel.hist2d",
          lambda a, k, r, s: t.add("accel.hist2d_symbols", len(a[0])))

    def rbf_work(a, k, r, s):
        (na, d), nb = a[0].shape, a[1].shape[0]
        t.add("accel.rbf_kernel_entries", na * nb)
        # GEMM, row norms, combine and scale; exp is not counted
        t.add("accel.rbf_kernel_flop", 2 * na * nb * d + 2 * d * (na + nb) + 4 * na * nb)

    patch(accel, "rbf_kernel", "accel.rbf_kernel", rbf_work)
    patch(accel, "smo_solve", "accel.smo_solve",
          lambda a, k, r, s: t.add("accel.smo_iterations", int(r[2])))

    def nn1_work(a, k, r, s):
        (n_train, d), n_test = a[0].shape, a[1].shape[0]
        t.add("accel.nn1_distance_evals", n_train * n_test)
        t.add("accel.nn1_flop", 3 * n_train * n_test * d)  # subtract, square, add

    patch(accel, "nn1_index", "accel.nn1_index", nn1_work)

    # classify, through `classify.<fn>` attribute lookups in pipeline
    patch(classify, "stratified_split", "classify.stratified_split")
    patch(classify, "train_svm", "classify.train_svm",
          lambda a, k, model, s: t.add(
              "classify.support_vectors", sum(p.alphas.size for p in model.pairs)))
    patch(classify, "predict", "classify.predict",
          lambda a, k, r, s: t.add("classify.predict_rows", len(r)))
    patch(classify, "knn_predict", "classify.knn_predict",
          lambda a, k, r, s: t.add("classify.knn_query_rows", len(r)))
    patch(classify, "evaluate", "classify.evaluate")
