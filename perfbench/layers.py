"""Per-layer metrics of a traced iteration, and the boundaries each workload
must cross.

Times are self times (a span minus the spans it encloses) unless a metric's
note says otherwise; counts and computed FLOPs are exact. The layer names
are the modules of ``src/igbs``.
"""

from __future__ import annotations

import scenes

LAYERS = ("cli", "raster", "datamodel", "selection", "infotheory", "accel",
          "classify", "pipeline", "report")

# every compare run crosses these, whatever its methods and classifier
COMMON_BOUNDARIES = (
    "cli.main", "pipeline.run_compare", "pipeline.load_dataset", "raster.load_cube",
    "raster.load_gt", "datamodel.quantize_cube", "classify.stratified_split",
    "pipeline.run_method", "selection.init_state", "selection.relevance_scores",
    "datamodel.labeled_matrix", "infotheory.mutual_information", "accel.hist2d",
    "pipeline.band_features", "classify.evaluate", "pipeline.write_outputs",
    "raster.export_map", "report.render_method_report", "report.render_comparison",
)
SVM_BOUNDARIES = ("classify.train_svm", "accel.rbf_kernel", "accel.smo_solve", "classify.predict")
KNN_BOUNDARIES = ("classify.knn_predict", "accel.nn1_index")


def expected_boundaries(workload) -> set:
    """Span names (and the pair-MI counter) that must fire on a traced
    iteration of the workload, derived from its invocations."""
    names = set(COMMON_BOUNDARIES)
    for args in workload.invocations:
        for method, _, _ in scenes.selections(args):
            names.add(f"selection.greedy_select.{method}")
            if method in ("MIFS", "MRMR"):
                names.add("selection.pair_mi_calls")
            if method == "IGBS":
                names.add("selection.rebuild_estimated_gt")
        names.update(SVM_BOUNDARIES if scenes.classifier(args) == "svm" else KNN_BOUNDARIES)
    return names


def merge(traces: list) -> dict:
    """Sum the stats and counters of one iteration's child traces."""
    stats, counters, startup, missing = {}, {}, 0.0, set()
    for tr in traces:
        for name, (calls, incl, self_s) in tr["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        for name, value in tr["counters"].items():
            counters[name] = counters.get(name, 0) + value
        startup += tr["startup_s"]
        missing.update(tr["missing"])
    return {"stats": stats, "counters": counters, "startup_s": startup,
            "missing": sorted(missing)}


def fired(merged: dict) -> set:
    names = {n for n, st in merged["stats"].items() if st[0] > 0}
    return names | {n for n, v in merged["counters"].items() if v > 0}


def layer_self_times(merged: dict) -> dict:
    """Self seconds per layer; start-up (launch to ``import igbs.cli``) is
    the cli layer's."""
    out = {layer: 0.0 for layer in LAYERS}
    out["cli"] += merged["startup_s"]
    for name, (_, _, self_s) in merged["stats"].items():
        out[name.split(".", 1)[0]] += self_s
    return out


def compute(merged: dict) -> tuple:
    """Returns (metric -> value, metric -> reason it is n/a). An n/a metric
    reads 0: its boundary did not fire, or its denominator is 0."""
    stats, counters = merged["stats"], merged["counters"]
    values, na = {}, {}

    def span(name, field):
        st = stats.get(name, [0, 0.0, 0.0])
        return st[field]

    def self_s(metric, *names):
        values[metric] = sum(span(n, 2) for n in names)
        if not any(span(n, 0) for n in names):
            na[metric] = f"{' / '.join(names)} did not run on this workload"

    def count(metric, value):
        values[metric] = value

    def ratio(metric, num, den, scale, why):
        values[metric] = num / den * scale if den else 0.0
        if not den:
            na[metric] = why

    values["cli.startup_s"] = merged["startup_s"]
    self_s("cli.main_self_s", "cli.main")

    self_s("raster.load_cube_s", "raster.load_cube")
    self_s("raster.load_gt_s", "raster.load_gt")
    count("raster.bytes_read", counters.get("raster.bytes_read", 0))
    self_s("raster.export_map_s", "raster.export_map")
    count("raster.bytes_written", counters.get("raster.bytes_written", 0))

    self_s("datamodel.quantize_cube_s", "datamodel.quantize_cube")
    count("datamodel.labeled_matrix_calls", span("datamodel.labeled_matrix", 0))
    self_s("datamodel.labeled_matrix_s", "datamodel.labeled_matrix")

    for method in scenes.ALL_METHODS:
        self_s(f"selection.greedy_s.{method}", f"selection.greedy_select.{method}")
    for method in scenes.ALL_METHODS[1:]:
        ratio(f"selection.step_ms.{method}", counters.get(f"selection.step_s.{method}", 0.0),
              counters.get(f"selection.steps.{method}", 0), 1e3,
              f"no {method} greedy step ran on this workload")
    count("selection.relevance_calls", span("selection.relevance_scores", 0))
    self_s("selection.relevance_s", "selection.relevance_scores")
    calls = counters.get("selection.pair_mi_calls", 0)
    count("selection.pair_mi_calls", calls)
    ratio("selection.pair_mi_hit_ratio", calls - counters.get("selection.pair_mi_misses", 0),
          calls, 1.0, "no pair-MI lookups on this workload (no MIFS or MRMR)")
    self_s("selection.rebuild_estimated_gt_s", "selection.rebuild_estimated_gt")

    mi = "infotheory.mutual_information"
    count("infotheory.mi_calls", span(mi, 0))
    self_s("infotheory.mi_s", mi)
    ratio("infotheory.mi_us_per_call", span(mi, 1), span(mi, 0), 1e6, "no MI calls")

    count("accel.hist2d_calls", span("accel.hist2d", 0))
    self_s("accel.hist2d_s", "accel.hist2d")
    count("accel.hist2d_symbols", counters.get("accel.hist2d_symbols", 0))
    count("accel.rbf_kernel_calls", span("accel.rbf_kernel", 0))
    self_s("accel.rbf_kernel_s", "accel.rbf_kernel")
    count("accel.rbf_kernel_entries", counters.get("accel.rbf_kernel_entries", 0))
    count("accel.rbf_kernel_gflop", counters.get("accel.rbf_kernel_flop", 0) / 1e9)
    count("accel.smo_solve_calls", span("accel.smo_solve", 0))
    self_s("accel.smo_solve_s", "accel.smo_solve")
    iters = counters.get("accel.smo_iterations", 0)
    count("accel.smo_iterations", iters)
    ratio("accel.smo_us_per_iter", span("accel.smo_solve", 1), iters, 1e6,
          "no SMO iterations on this workload")
    self_s("accel.nn1_index_s", "accel.nn1_index")
    count("accel.nn1_distance_evals", counters.get("accel.nn1_distance_evals", 0))
    count("accel.nn1_gflop", counters.get("accel.nn1_flop", 0) / 1e9)

    self_s("classify.stratified_split_s", "classify.stratified_split")
    self_s("classify.train_svm_self_s", "classify.train_svm")
    self_s("classify.predict_self_s", "classify.predict")
    count("classify.predict_rows", counters.get("classify.predict_rows", 0))
    count("classify.support_vectors", counters.get("classify.support_vectors", 0))
    self_s("classify.knn_predict_self_s", "classify.knn_predict")
    count("classify.knn_query_rows", counters.get("classify.knn_query_rows", 0))
    self_s("classify.evaluate_s", "classify.evaluate")

    self_s("pipeline.run_method_self_s", "pipeline.run_method")
    self_s("pipeline.band_features_s", "pipeline.band_features")
    self_s("pipeline.write_outputs_self_s", "pipeline.write_outputs")
    count("pipeline.failed_methods", counters.get("pipeline.failed_methods", 0))

    self_s("report.render_s", "report.render_method_report", "report.render_comparison")
    count("report.bytes_written", counters.get("report.bytes_written", 0))
    return values, na
