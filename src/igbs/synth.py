"""Synthetic hypercube generator with planted informative bands.

Stands in for real sensor data in tests and benchmarks: the ground truth
tiles the grid into contiguous class regions, informative bands carry
class-dependent means, and the rest is class-independent Gaussian noise.

Informative bands are complementary rather than copies of each other: band
``j`` (by position in ``informative_bands``) encodes bit-plane ``j mod B``
of the zero-based class index, where ``B = ceil(log2(classes))``. Its two
mean levels sit ``class_separation`` apart, so classes on opposite sides of
that band's split are far apart while classes on the same side coincide.
Any ``B`` consecutive informative bands jointly pin down the class exactly,
while a single band carries only its own split: selection methods that
handle redundancy and complementarity can be graded against the planted
set. Everything is a pure function of the seed, and the returned metadata
lists the planted bands and the exact per-class mean of every one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datamodel import GroundTruth, HyperCube
from .errors import ConfigError, DataError, cast_fields, finite, integer, sequence, typed


@dataclass(frozen=True)
class SynthSpec:
    rows: int = typed(integer, 64)
    cols: int = typed(integer, 64)
    bands: int = typed(integer, 50)
    classes: int = typed(integer, 4)
    informative_bands: tuple = typed(sequence(integer), (0, 10, 20, 30, 40), flag="--informative",
                                     help="comma-separated informative band indices")
    noise_sigma: float = typed(finite, 1.0)
    class_separation: float = typed(finite, 10.0, flag="--separation")
    seed: int = typed(integer, 0)

    def __post_init__(self):
        # a value of the wrong type is a configuration error, one out of
        # range a data error
        cast_fields(self, ConfigError)
        if min(self.rows, self.cols, self.bands) < 1:
            raise DataError("rows, cols and bands must all be >= 1")
        if self.classes < 2:
            raise DataError("need at least 2 classes")
        bad = [b for b in self.informative_bands if not 0 <= b < self.bands]
        if bad:
            raise DataError(f"informative bands out of range: {bad}")
        if len(set(self.informative_bands)) != len(self.informative_bands):
            raise DataError("informative bands must be distinct")
        if self.class_separation <= 0:
            raise DataError("class separation must be positive")
        if self.noise_sigma < 0:
            raise DataError("noise sigma must be nonnegative")
        if self.seed < 0:
            raise DataError("seed must be nonnegative")


def tile_labels(rows: int, cols: int, classes: int) -> np.ndarray:
    """Contiguous near-equal class regions in row-major order (1-based)."""
    n = rows * cols
    if classes > n:
        raise DataError(f"cannot tile {classes} classes onto {n} pixels")
    rank = np.arange(n, dtype=np.int64)
    return (1 + (rank * classes) // n).reshape(rows, cols)


def class_mean_levels(classes: int, plane: int) -> np.ndarray:
    """Mean level (1 or 2) per class for one bit-plane of the class index."""
    idx = np.arange(classes, dtype=np.int64)
    return ((idx >> plane) & 1) + 1


def generate_cube(spec: SynthSpec):
    """Returns (cube, ground truth, oracle metadata).

    An informative band's value is ``class_separation * level(class) +
    noise`` with the bit-plane levels described in the module docstring.
    The noise field is drawn once per seed and scaled, so sweeps over
    ``noise_sigma`` at a fixed seed are coupled sample-by-sample.
    """
    labels = tile_labels(spec.rows, spec.cols, spec.classes)
    rng = np.random.default_rng(spec.seed)
    noise = rng.standard_normal((spec.bands, spec.rows, spec.cols))
    values = spec.noise_sigma * noise
    n_planes = max(1, math.ceil(math.log2(spec.classes)))
    class_means = {}
    for pos, band in enumerate(spec.informative_bands):
        levels = class_mean_levels(spec.classes, pos % n_planes)
        values[band] += spec.class_separation * levels[labels - 1]
        class_means[int(band)] = [
            float(spec.class_separation * lvl) for lvl in levels
        ]
    metadata = {
        "informative_bands": sorted(int(b) for b in spec.informative_bands),
        "class_means": class_means,
        "noise_sigma": float(spec.noise_sigma),
        "class_separation": float(spec.class_separation),
        "seed": int(spec.seed),
    }
    return HyperCube(values=values), GroundTruth(labels=labels), metadata
