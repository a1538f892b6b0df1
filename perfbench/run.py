#!/usr/bin/env python3
"""igbs benchmark: drives the real CLI (``igbs compare``) on seeded
synthetic scenes and reports end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it imports ``igbs`` from ``src/`` and
works under ``.bench_work/``. Closed loop, one client: each iteration runs
the workload's ``compare`` invocations back to back, each a fresh
``python3 -m igbs.cli`` process, so start-up is paid the way users pay it.
Iterations repeat while the next one is expected to end within
``--seconds``; there is always at least one.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs two untraced iterations around one traced iteration (the
second is skipped if it could not end before the deadline) and reports the
per-layer metrics of the traced one, plus the tracing overhead.

Every run checks each iteration's outputs: each invocation exits 0 with no
failed method, and every selection and output tree equals the reference
recorded for the seed (``reference.json``). Seeds without a record check
the planted bands and band counts instead, and that all iterations write
byte-identical output trees. A traced run also checks that every layer
boundary the workload should cross fired. Each mismatch counts as a failed method run. The last line of
standard output is one JSON object; the exit code is 1 when a check failed.
The full record, with the environment, goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import layers
import scenes

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170.0  # children still running this long after the start are killed


def _median(values):
    return statistics.median(values) if values else 0.0


class Runner:
    def __init__(self, workload, seed, seconds, trace, deadline_s=DEADLINE_S):
        self.w = workload
        self.deadline_s = deadline_s
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.start = time.monotonic()
        self.work = os.path.join(
            scenes.WORK, f"run-{workload.name}-s{seed}-t{int(trace)}-{os.getpid()}"
        )
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (scenes.SRC, os.environ.get("PYTHONPATH")) if p
        )

    # -- processes ---------------------------------------------------------

    def launch(self, cmd, stderr_path):
        """Run one child to completion; returns its exit code, timing and
        resource use. A child still running at the deadline is killed."""
        with open(stderr_path, "wb") as err:
            launched = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            remaining = max(1.0, self.deadline_s - (launched - self.start))
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            exited = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(stderr_path, encoding="utf-8", errors="replace") as err:
            last_line = (err.read().strip().splitlines() or [""])[-1]
        return {
            "code": proc.returncode,
            "stderr": last_line,
            "launched": launched,
            "exited": exited,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "max_rss_kb": usage.ru_maxrss,
        }

    def iteration(self, idx, traced):
        it_dir = os.path.join(self.work, f"iter-{idx}")
        os.makedirs(it_dir)
        invocations = []
        for j, extra in enumerate(self.w.invocations):
            out = os.path.join(f"iter-{idx}", f"out-{j:02d}")
            flags = ["compare", "--cube", scenes.SCENE_BASE,
                     "--gt", scenes.SCENE_BASE + ".gt.raw", "--out", out, *extra]
            trace_path = os.path.join(it_dir, f"trace-{j:02d}.json")
            if traced:
                cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_path,
                       repr(time.monotonic()), *flags]
            else:
                cmd = [sys.executable, "-m", "igbs.cli", *flags]
            inv = self.launch(cmd, os.path.join(it_dir, f"stderr-{j:02d}.txt"))
            inv["out"] = os.path.join(self.work, out)
            inv["trace"] = trace_path if traced else None
            invocations.append(inv)
        return {
            "traced": traced,
            "wall_s": invocations[-1]["exited"] - invocations[0]["launched"],
            "cpu_s": sum(inv["cpu_s"] for inv in invocations),
            "max_rss_kb": max(inv["max_rss_kb"] for inv in invocations),
            "invocations": invocations,
        }

    # -- the run -----------------------------------------------------------

    def setup(self):
        base = os.path.join(self.work, scenes.SCENE_BASE)
        times, generate = [], []
        for _ in range(self.w.setup_repeats):
            t0 = time.perf_counter()
            planted, gen_s = scenes.write_scene(self.w.scene, self.seed, base)
            times.append(time.perf_counter() - t0)
            generate.append(gen_s)
        return planted, times, generate

    def _in_workdir(self, body):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        try:
            return body()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def execute(self):
        return self._in_workdir(self._execute)

    def reference(self):
        """Write the scene once and run one untraced iteration. Returns the
        planted bands, every selection made (key -> bands) and each
        invocation's output-tree digest; raises if an invocation failed."""
        return self._in_workdir(self._reference)

    def _reference(self):
        base = os.path.join(self.work, scenes.SCENE_BASE)
        planted, _ = scenes.write_scene(self.w.scene, self.seed, base)
        it = self.iteration(0, False)
        picks = {}
        for inv, args in zip(it["invocations"], self.w.invocations):
            if inv["code"] != 0:
                raise RuntimeError(f"{self.w.name} seed {self.seed}: exit code "
                                   f"{inv['code']}: {inv['stderr']}")
            for method, k, levels in scenes.selections(args):
                key = scenes.selection_key(method, k, levels)
                selected = read_selected(inv["out"], method)
                if picks.setdefault(key, selected) != selected:
                    raise RuntimeError(f"{self.w.name} seed {self.seed}: {key} differs "
                                       "between invocations")
        return planted, picks, [tree_digest(inv["out"]) for inv in it["invocations"]]

    def _execute(self):
        # imported here so that no set-up sample pays for the import
        import igbs.synth  # noqa: F401

        planted, setup_times, generate_times = self.setup()
        # compiles bytecode and pages in the libraries; not timed
        warm = self.launch([sys.executable, "-c", "import igbs.cli"],
                           os.path.join(self.work, "warmup-stderr.txt"))
        if warm["code"] != 0:
            raise RuntimeError(f"cannot import igbs.cli: {warm['stderr']}")

        iterations = []
        if self.trace:
            iterations.append(self.iteration(0, False))
            iterations.append(self.iteration(1, True))
            # a second untraced iteration, unless it could not end before
            # the deadline
            longest = max(it["wall_s"] for it in iterations)
            if time.monotonic() - self.start + longest <= self.deadline_s - 10:
                iterations.append(self.iteration(2, False))
        else:
            measure_start = time.monotonic()
            while True:
                iterations.append(self.iteration(len(iterations), False))
                now = time.monotonic()
                longest = max(it["wall_s"] for it in iterations)
                if now - measure_start + longest > self.seconds or \
                        now - self.start + longest > self.deadline_s - 10:
                    break

        checks = Checks(self.w, self.seed, planted)
        for idx, it in enumerate(iterations):
            checks.iteration(idx, it)
        result = {
            "workload": self.w.name,
            "seed": self.seed,
            "trace": int(self.trace),
            "seconds": self.seconds,
            "setup_s_samples": setup_times,
            "generate_s_samples": generate_times,
            "iterations": [
                {k: it[k] for k in ("traced", "wall_s", "cpu_s", "max_rss_kb")}
                | {"codes": [inv["code"] for inv in it["invocations"]]}
                for it in iterations
            ],
        }
        untraced = [it for it in iterations if not it["traced"]]
        walls = [it["wall_s"] for it in untraced]
        result["end_to_end"] = {
            "wall_s": _median(walls),
            "setup_s": _median(setup_times),
            "peak_rss_mb": max(it["max_rss_kb"] for it in untraced) * 1024 / 1e6,
            "oa_pct": checks.mean_oa([i for i, it in enumerate(iterations) if not it["traced"]]),
        }
        if self.trace:
            traced = next(it for it in iterations if it["traced"])
            merged = layers.merge([_read_json(inv["trace"]) for inv in traced["invocations"]])
            checks.coverage(merged, iterations.index(traced))
            values, na = layers.compute(merged)
            cpu = _median([it["cpu_s"] for it in untraced])
            values["process.cpu_s"] = cpu
            values["process.cpu_util"] = cpu / result["end_to_end"]["wall_s"]
            values["trace.overhead_s"] = traced["wall_s"] - result["end_to_end"]["wall_s"]
            values["synth.generate_cube_s"] = _median(generate_times)
            self_times = layers.layer_self_times(merged)
            for layer, secs in self_times.items():
                values[f"layer.{layer}_s"] = secs
            values["layer.unattributed_s"] = traced["wall_s"] - sum(self_times.values())
            values["trace.wall_s"] = traced["wall_s"]
            result["per_layer"] = values
            result["per_layer_na"] = na
            result["trace_stats"] = merged
        result["checks"] = checks.summary()
        return result


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return {"stats": {}, "counters": {}, "startup_s": 0.0, "missing": []}


def tree_digest(root):
    """One digest of every file's relative path and bytes under ``root``."""
    paths = sorted(os.path.join(d, name) for d, _, files in os.walk(root) for name in files)
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()[:16]


def read_oa(out_dir):
    """Method -> OA percent (None when the method failed), from
    ``comparison.txt``; None when the table is missing or malformed."""
    try:
        with open(os.path.join(out_dir, "comparison.txt"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        methods = lines[1].split()[1:]
        oa_row = next(line for line in lines if line.startswith("OA(%)")).split()[1:]
    except (OSError, IndexError, StopIteration):
        return None
    if len(oa_row) != len(methods):
        return None
    return {m: (None if cell == "failed" else float(cell)) for m, cell in zip(methods, oa_row)}


def read_selected(out_dir, method):
    try:
        with open(os.path.join(out_dir, f"{method}.report.txt"), encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("selected_bands ="):
                    return [int(b) for b in line.split("=", 1)[1].split()]
    except (OSError, ValueError):
        pass
    return None


class Checks:
    """Correctness gate. Every method run of every iteration is one
    attempt; a run with any problem is one failure."""

    def __init__(self, workload, seed, planted):
        self.w = workload
        self.planted = set(planted)
        with open(scenes.REFERENCE_PATH, encoding="utf-8") as fh:
            reference = json.load(fh)
        self.recorded = reference["selected"].get(workload.scene_name, {}).get(str(seed))
        self.recorded_trees = reference["outputs"].get(workload.name, {}).get(str(seed))
        self.planted_covered = set(reference["planted_covered"].get(workload.scene_name, ()))
        self.attempted = 0
        self.problems = []  # (iteration, invocation, method, what)
        self.oa = []  # (iteration, oa)
        self.notes = []
        self.first_trees = {}  # invocation -> digest of its first output tree

    def _fail(self, idx, j, method, what):
        self.problems.append((idx, j, method, what))

    def iteration(self, idx, it):
        for j, (inv, args) in enumerate(zip(it["invocations"], self.w.invocations)):
            sels = scenes.selections(args)
            self.attempted += len(sels)
            oa = read_oa(inv["out"])
            # exit code 4 means some method failed; the table says which
            if oa is None or inv["code"] not in (0, 4) or \
                    (inv["code"] == 4) != (None in oa.values()):
                for method, _, _ in sels:
                    self._fail(idx, j, method, f"exit code {inv['code']} does not match the "
                                               f"comparison table: {inv['stderr']}")
                continue
            # the recorded tree covers every band, prediction and table
            # cell; seeds without one compare iterations with each other
            tree = tree_digest(inv["out"])
            if self.recorded_trees is not None:
                tree_problem = (None if tree == self.recorded_trees[j]
                                else "output tree differs from the reference")
            else:
                tree_problem = (None if self.first_trees.setdefault(j, tree) == tree
                                else "output tree differs from the first iteration")
            for method, k, levels in sels:
                problem = self._method_problem(oa, inv["out"], method, k, levels) or tree_problem
                if problem is None:
                    self.oa.append((idx, oa[method]))
                else:
                    self._fail(idx, j, method, problem)

    def _method_problem(self, oa, out, method, k, levels):
        if method not in oa:
            return "missing from the comparison table"
        if oa[method] is None:
            return "method failed"
        selected = read_selected(out, method)
        if selected is None:
            return "no selected_bands in its report"
        key = scenes.selection_key(method, k, levels)
        if self.recorded is not None:
            if selected != self.recorded.get(key):
                return f"selection differs from the reference for {key}"
        else:
            if key in self.planted_covered and not self.planted <= set(selected):
                return "a planted informative band is missing from the selection"
            if len(selected) > k or (method != "MIBF" and len(selected) != k):
                return f"selected {len(selected)} bands, k={k}"
        return None

    def coverage(self, merged, idx):
        """Every boundary the workload should cross must have fired; if one
        did not, the traced iteration's method runs all count as failed."""
        missing = sorted(layers.expected_boundaries(self.w) - layers.fired(merged))
        if merged["missing"]:
            self.notes.append("tracer: call sites not found: " + ", ".join(merged["missing"]))
        if missing:
            self.notes.append("tracer coverage: did not fire: " + ", ".join(missing))
            for j, args in enumerate(self.w.invocations):
                for method, _, _ in scenes.selections(args):
                    self._fail(idx, j, method, "tracer coverage incomplete")

    def mean_oa(self, indices):
        values = [oa for idx, oa in self.oa if idx in indices]
        return statistics.fmean(values) if values else 0.0

    @property
    def failed(self):
        return len({(i, j, m) for i, j, m, _ in self.problems})

    def summary(self):
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "reference": "recorded" if self.recorded_trees is not None else "planted-bands",
            "problems": [list(p) for p in self.problems[:50]],
            "notes": self.notes,
        }


def load_benchmark_spec():
    with open(os.path.join(scenes.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def print_report(result, spec, metrics_key):
    chk = result["checks"]
    print(f"igbs benchmark: workload {result['workload']}, seed {result['seed']}, "
          f"trace {result['trace']}")
    env = result["environment"]
    print(f"environment: nproc {env['nproc']}, {env['cpu_model']}, caches {env['caches']}, "
          f"python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"numba imports: {env['numba_imports']}")
    walls = ", ".join(f"{it['wall_s']:.3f}{' (traced)' if it['traced'] else ''}"
                      for it in result["iterations"])
    print(f"iterations: {len(result['iterations'])}, wall s: {walls}")
    untraced = sum(1 for it in result["iterations"] if not it["traced"])
    print(f"wall_s: median of {untraced} untraced iterations")
    units = {m["name"]: m["unit"] for m in spec[metrics_key]}
    na = result.get("per_layer_na", {})
    for name, unit in units.items():
        value = result["metrics"][name]
        note = f"  n/a: {na[name]}" if name in na else ""
        print(f"  {name:<34} {value:>16.6f} {unit}{note}")
    ratio = chk["failed"] / chk["attempted"] if chk["attempted"] else 1.0
    print(f"  {'failed_ratio':<34} {ratio:>16.6f} ratio ({chk['failed']}/{chk['attempted']})")
    if result["trace"]:
        pl = result["per_layer"]
        parts = [f"{layer} {pl[f'layer.{layer}_s']:.3f}" for layer in layers.LAYERS]
        print("traced wall_s {:.3f} = {} + unattributed {:.3f}".format(
            pl["trace.wall_s"], " + ".join(parts), pl["layer.unattributed_s"]))
    print(f"checks: outputs against the {chk['reference']} reference; "
          f"{chk['failed']} of {chk['attempted']} method runs failed")
    for note in chk["notes"]:
        print(f"  {note}")
    for problem in chk["problems"][:10]:
        print(f"  iteration {problem[0]} invocation {problem[1]} {problem[2]}: {problem[3]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="igbs end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(scenes.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not scenes.program_present():
        print(f"benchmark: no igbs sources under {scenes.SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, scenes.SRC)
    spec = load_benchmark_spec()

    import envinfo

    result = Runner(scenes.WORKLOADS[args.workload], args.seed, args.seconds,
                    bool(args.trace)).execute()
    result["environment"] = envinfo.record()
    metrics_key = "per_layer" if args.trace else "end_to_end"
    source = result["per_layer"] if args.trace else result["end_to_end"]
    missing = [m["name"] for m in spec[metrics_key] if m["name"] not in source]
    if missing:
        print(f"benchmark: metrics not computed: {missing}", file=sys.stderr)
        return 2
    result["metrics"] = {m["name"]: source[m["name"]] for m in spec[metrics_key]}
    chk = result["checks"]
    correct = chk["failed"] == 0 and not chk["notes"]

    results_dir = os.path.join(scenes.WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                                     f"{stamp}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    print_report(result, spec, metrics_key)
    print(f"record: {os.path.relpath(path, scenes.ROOT)}")
    units = {m["name"]: m["unit"] for m in spec[metrics_key]}
    print(json.dumps({
        "correct": correct,
        "attempted": chk["attempted"],
        "failed": chk["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
