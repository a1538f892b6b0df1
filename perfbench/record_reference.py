#!/usr/bin/env python3
"""Record the reference outputs that every benchmark run checks.

For each workload and each seed in ``SEEDS`` it runs one untraced iteration
exactly as a benchmark run does: it writes the scene and runs the
workload's ``compare`` invocations through the CLI. The result,
``perfbench/reference.json``, keeps per scene and seed every selection the
invocations made, and per workload and seed a digest of each invocation's
output tree (reports, maps and the comparison table). It also lists the
selections that covered every planted informative band on every recorded
seed; runs on seeds outside ``SEEDS`` check that property instead.

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import os
import sys
from multiprocessing.pool import ThreadPool

import run
import scenes

SEEDS = range(100)


def _by_seed(table: dict) -> dict:
    return dict(sorted(table.items(), key=lambda kv: int(kv[0])))


def record_one(task):
    name, seed = task
    # no run deadline here: a recording runs beside others and may be slow
    runner = run.Runner(scenes.WORKLOADS[name], seed, 0, False, deadline_s=3600.0)
    return name, seed, runner.reference()


def main() -> int:
    if not scenes.program_present():
        print(f"no igbs sources under {scenes.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, scenes.SRC)
    import igbs.synth  # noqa: F401  (imported once, before the worker threads)

    selected = {w.scene_name: {} for w in scenes.WORKLOADS.values()}
    outputs = {name: {} for name in scenes.WORKLOADS}
    covered = {}
    tasks = [(name, seed) for name in scenes.WORKLOADS for seed in SEEDS]
    # each task spends its time in child processes; one per usable CPU
    with ThreadPool(len(os.sched_getaffinity(0))) as pool:
        for name, seed, (planted, picks, trees) in pool.imap_unordered(record_one, tasks):
            scene = scenes.WORKLOADS[name].scene_name
            selected[scene][str(seed)] = picks
            outputs[name][str(seed)] = trees
            ok = {key for key, sel in picks.items() if set(planted) <= set(sel)}
            covered[scene] = covered.get(scene, ok) & ok
            print(f"{name} seed {seed}: {len(picks)} selections", flush=True)
    reference = {
        "selected": {scene: _by_seed(seeds) for scene, seeds in selected.items()},
        "outputs": {name: _by_seed(seeds) for name, seeds in outputs.items()},
        "planted_covered": {scene: sorted(keys) for scene, keys in covered.items()},
    }
    with open(scenes.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {scenes.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
