#!/usr/bin/env python3
"""Paired comparison of benchmark results from a parent commit and a change.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS
    python3 perfbench/compare.py --summary RESULTS

Each argument is a results directory (``.bench_work/results/`` of a
checkout) or a single record file written by ``run.py``. Untraced records
pair up by workload and seed; run at least ten pairs, alternating which
side runs first. Each workload prints on its own row with, per end-to-end
metric, each side's median and quartiles, the share of pairs the change
won (ties count for neither side) and a verdict:

- improved: the change won at least nine tenths of the pairs and the
  medians differ, in the metric's better direction, by more than the
  parent's own quartile distance;
- worse: the change's median is worse than the parent's by more than the
  metric's bound and the parent's spread is within the bound;
- no worse: the change's median is within the bound of the parent's, and
  the parent's spread is within the bound too, or every change run reads
  better than every parent run;
- unresolved: anything else, including a spread wider than the bound.

A change with more failed method runs than the parent is never "improved".
Each row also gives each side's ``wall_s`` tail: the highest percentile
with at least ten samples beyond it, over the untraced iterations of all
its runs pooled (one run holds too few). ``--summary`` prints one side's
medians, quartiles and tail per workload, with the median per-layer
breakdown of its traced records, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_records(path: str) -> list:
    files = (
        [os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".json")]
        if os.path.isdir(path) else [path]
    )
    records = []
    for name in files:
        with open(name, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(samples: list):
    """Highest percentile with at least ten samples beyond it, as
    (percent, value), or None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10  # samples at or below the percentile
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def wall_tail(records: list) -> dict:
    walls = [it["wall_s"] for r in records for it in r["iterations"] if not it["traced"]]
    tail = tail_percentile(walls)
    return {"percentile": tail[0] if tail else None, "value": tail[1] if tail else None,
            "samples": len(walls)}


def _fmt_tail(tail: dict) -> str:
    if tail["percentile"] is None:
        return f"n/a ({tail['samples']} iterations, needs 11)"
    return f"p{tail['percentile']:.1f} {tail['value']:.4g} s of {tail['samples']} iterations"


def verdict(metric: dict, parent: list, change: list, pairs: list, more_failures: bool) -> tuple:
    lower = metric["better"] == "lower"
    sign = 1.0 if lower else -1.0
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    gain = sign * (pm - cm)  # positive when the change is better
    bound = metric["bound"] * abs(pm)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if pairs and wins >= 0.9 * len(pairs) and gain > (p3 - p1) and not more_failures:
        word = "improved"
    elif -gain > bound and spread <= metric["bound"]:
        word = "worse"
    elif (-gain <= bound and spread <= metric["bound"]) or all_better:
        word = "no worse"
    else:
        word = "unresolved"
    return wins, word


def untraced_by_workload(records: list) -> dict:
    out = {}
    for rec in records:
        if not rec["trace"]:
            out.setdefault(rec["workload"], {}).setdefault(rec["seed"], []).append(rec)
    return out


def _fmt(q: tuple) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def compare(parent_records: list, change_records: list, spec: dict) -> list:
    parent = untraced_by_workload(parent_records)
    change = untraced_by_workload(change_records)
    lines = []
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs = parent.get(workload, {})
        c_runs = change.get(workload, {})
        seeds = sorted(set(p_runs) & set(c_runs))
        if not seeds:
            lines.append(f"{workload}: no paired runs")
            continue
        p_failed = sum(r["checks"]["failed"] for s in seeds for r in p_runs[s])
        c_failed = sum(r["checks"]["failed"] for s in seeds for r in c_runs[s])
        cells = [f"{workload} ({len(seeds)} pairs, failed {p_failed} -> {c_failed})"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pairs = [
                (statistics.median(r["end_to_end"][name] for r in p_runs[s]),
                 statistics.median(r["end_to_end"][name] for r in c_runs[s]))
                for s in seeds
            ]
            p_vals = [p for p, _ in pairs]
            c_vals = [c for _, c in pairs]
            wins, word = verdict(metric, p_vals, c_vals, pairs, c_failed > p_failed)
            cells.append(
                f"{name}: parent {_fmt(quartiles(p_vals))} change {_fmt(quartiles(c_vals))} "
                f"{metric['unit']}, change won {wins}/{len(pairs)}, {word}"
            )
        p_tail, c_tail = (wall_tail([r for s in seeds for r in runs[s]])
                          for runs in (p_runs, c_runs))
        cells.append(f"wall_s tail: parent {_fmt_tail(p_tail)}, change {_fmt_tail(c_tail)}")
        lines.append(" | ".join(cells))
    return lines


def summary(records: list, spec: dict) -> dict:
    out = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [r for r in records if r["workload"] == workload]
        untraced = [r for r in runs if not r["trace"]]
        traced = [r for r in runs if r["trace"]]
        entry = {"runs": len(untraced), "seeds": sorted(r["seed"] for r in untraced),
                 "failed": sum(r["checks"]["failed"] for r in runs),
                 "attempted": sum(r["checks"]["attempted"] for r in runs)}
        for metric in spec["end_to_end"]:
            values = [r["end_to_end"][metric["name"]] for r in untraced]
            if values:
                q1, q2, q3 = quartiles(values)
                entry[metric["name"]] = {"q1": q1, "median": q2, "q3": q3,
                                         "spread": (q3 - q1) / q2 if q2 else None,
                                         "unit": metric["unit"]}
        entry["wall_s_tail"] = wall_tail(untraced)
        if traced:
            entry["traced_runs"] = len(traced)
            entry["per_layer_median"] = {
                m["name"]: statistics.median(r["per_layer"][m["name"]] for r in traced)
                for m in spec["per_layer"]
            }
            entry["per_layer_na"] = traced[0]["per_layer_na"]
        if runs:
            entry["environment"] = runs[0]["environment"]
        out[workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="paired comparison of benchmark results")
    parser.add_argument("results", nargs="+", help="PARENT CHANGE, or one RESULTS with --summary")
    parser.add_argument("--summary", action="store_true")
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.summary:
        if len(args.results) != 1:
            parser.error("--summary takes one results path")
        print(json.dumps(summary(load_records(args.results[0]), spec), indent=1, sort_keys=True))
        return 0
    if len(args.results) != 2:
        parser.error("give PARENT and CHANGE results")
    parent, change = (load_records(p) for p in args.results)
    print("\n".join(compare(parent, change, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
