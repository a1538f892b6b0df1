"""Workload definitions: the seeded scenes the benchmark writes to disk and
the ``igbs compare`` invocations it runs on them.

The program under test only ever sees the generated files; the workload
seed is a benchmark argument that picks the scene.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE_PATH = os.path.join(ROOT, "perfbench", "reference.json")


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "igbs", "cli.py"))

# Indian-Pines-shaped scene (criterion 9 of the acceptance suite): about half
# the pixels are unlabeled, as in the real scene.
PAPER_SCENE = {
    "rows": 145,
    "cols": 145,
    "bands": 220,
    "classes": 16,
    "informative_bands": tuple(range(0, 220, 7)),
    "noise_sigma": 4.0,
    "class_separation": 10.0,
    "unlabeled_share": 0.5,
}

# Criterion-5 desk-scale scene, fully labeled.
DESK_SCENE = {
    "rows": 64,
    "cols": 64,
    "bands": 50,
    "classes": 4,
    "informative_bands": (4, 13, 22, 31, 45),
    "noise_sigma": 1.0,
    "class_separation": 10.0,
    "unlabeled_share": 0.0,
}

SCENE_BASE = "scene"


@dataclass(frozen=True)
class Workload:
    name: str
    scene_name: str
    scene: dict
    # setups per run; setup_s is their median, so the small scene repeats
    # more to make its tiny time readable
    setup_repeats: int
    # one entry per `compare` process of one iteration: its CLI arguments
    # after the scene and output flags
    invocations: tuple
    why: str


ALL_METHODS = ("MIM", "MIFS", "MRMR", "MIBF", "IGBS")


def _flag(args, name, default):
    return args[args.index(name) + 1] if name in args else default


def _methods(args) -> tuple:
    return tuple(_flag(args, "--methods", ",".join(ALL_METHODS)).split(","))


def selections(args) -> list:
    """The ``(method, k, levels)`` selections one invocation makes; the CLI
    defaults apply to flags the invocation leaves out."""
    k, levels = int(_flag(args, "--k", "10")), int(_flag(args, "--levels", "16"))
    return [(m, k, levels) for m in _methods(args)]


def classifier(args) -> str:
    return _flag(args, "--classifier", "svm")


def selection_key(method: str, k: int, levels: int) -> str:
    return f"{method}@k{k}@L{levels}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper",
            scene_name="paper",
            scene=PAPER_SCENE,
            setup_repeats=5,
            # MIBF is left out: on this scene it keeps 14-33 bands depending
            # on the seed, and its SVM's cost, memory and accuracy jump with
            # that (OA about 45% or about 90%), which would make every
            # end-to-end metric bimodal across seeds. desk-sweep runs it.
            # 1-NN runs on MIM's bands alone: memory-bound 1-NN is the
            # noisiest kernel on a shared host, and as a separate workload
            # its run-to-run spread came close to the widest bound allowed.
            invocations=(
                ("--methods", "MIFS,MRMR,IGBS", "--k", "80", "--levels", "16",
                 "--fraction", "0.5", "--classifier", "svm", "--seed", "0"),
                ("--methods", "MIM", "--k", "80", "--levels", "16",
                 "--fraction", "0.5", "--classifier", "1nn", "--seed", "0"),
            ),
            why=(
                "Paper scale (k=80, L=16, 50/50 split): MIFS/MRMR/IGBS with SVM, "
                "MIM with 1-NN. Traced shares: 1-NN distances 44%, SMO 16%, hist2d "
                "14%, Gram blocks 12%, MI 7%, start-up 1%."
            ),
        ),
        Workload(
            name="desk-sweep",
            scene_name="desk",
            scene=DESK_SCENE,
            setup_repeats=25,
            invocations=tuple(
                ("--k", "6", "--classifier", "svm", "--seed", str(s)) for s in range(16)
            ),
            why=(
                "16 small compare runs, all five methods, SVM. Traced shares: Gram "
                "blocks 51%, start-up 19%, SMO 10%, MI 4%; file I/O, quantization "
                "and reports under 3% together."
            ),
        ),
    )
}


def write_scene(scene: dict, seed: int, base_path: str):
    """Generate the seeded scene and write ``<base>.hdr.json``, ``<base>.raw``
    and ``<base>.gt.raw``. Returns the planted informative bands and the
    seconds spent in ``synth.generate_cube``.

    ``igbs`` is imported here, from the checkout under test, once the caller
    has put its ``src`` directory on the path.
    """
    import numpy as np
    from igbs import raster, synth

    spec = synth.SynthSpec(
        rows=scene["rows"],
        cols=scene["cols"],
        bands=scene["bands"],
        classes=scene["classes"],
        informative_bands=scene["informative_bands"],
        noise_sigma=scene["noise_sigma"],
        class_separation=scene["class_separation"],
        seed=seed,
    )
    start = time.perf_counter()
    cube, gt, meta = synth.generate_cube(spec)
    generate_s = time.perf_counter() - start
    labels = gt.labels
    if scene["unlabeled_share"] > 0:
        # a separate stream from the cube's noise, still a pure function of seed
        rng = np.random.default_rng([seed, 1])
        labels = labels.copy()
        labels[rng.random(labels.shape) < scene["unlabeled_share"]] = 0
    raster.save_cube(cube, base_path)
    raster.save_gt(type(gt)(labels=labels), base_path + ".gt.raw")
    return meta["informative_bands"], generate_s
