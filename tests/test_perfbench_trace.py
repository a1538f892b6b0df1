"""The benchmark's tracer contract, checked on a tiny scene.

``perfbench/tracer.py`` wraps named call sites of ``igbs``; a renamed or
moved name, or a crash in a wrapper, would otherwise show only in a full
``--trace 1`` benchmark run. Each invocation here runs through
``perfbench/traced_cli.py`` exactly as a traced iteration does, and every
boundary the benchmark expects of it must fire.
"""

import json
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

SCENE = {
    "rows": 24,
    "cols": 24,
    "bands": 20,
    "classes": 3,
    "informative_bands": (2, 9, 15),
    "noise_sigma": 1.0,
    "class_separation": 10.0,
    "unlabeled_share": 0.3,
}


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    import scenes

    return layers, scenes


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(("--k", "4"), id="all-methods-svm"),
        pytest.param(("--methods", "MIM", "--k", "4", "--classifier", "1nn"), id="mim-1nn"),
    ],
)
def test_every_expected_boundary_fires(bench, tmp_path, args):
    layers, scenes = bench
    scenes.write_scene(SCENE, 0, str(tmp_path / "scene"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    trace = tmp_path / "trace.json"
    cmd = [sys.executable, os.path.join(PERFBENCH, "traced_cli.py"), str(trace),
           repr(time.monotonic()), "compare", "--cube", "scene", "--gt", "scene.gt.raw",
           "--out", "out", *args]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    merged = layers.merge([json.loads(trace.read_text())])
    assert merged["missing"] == []
    workload = scenes.Workload(name="tiny", scene_name="tiny", scene=SCENE,
                               setup_repeats=1, invocations=(args,), why="")
    assert layers.expected_boundaries(workload) - layers.fired(merged) == set()
