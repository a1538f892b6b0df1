"""Raster data types, quantization and labeled-pixel extraction.

A hypercube is stored band-major (bands, rows, cols). Quantization is
per-band min-max scaling onto ``[0, levels-1]`` with round-half-up, which is
the alphabet every information estimator downstream operates on. Probability
estimates only ever see pixels with a nonzero ground-truth label.

``GroundTruth`` fixes those pixels at construction (``gt.index``, their flat
row-major indices, ``gt.classes`` and ``gt.ranks``, each one's index into
``gt.classes``); ``labeled_matrix(qcube, gt, bands=None)`` reads their values.
``check_geometry`` is the one grid rule, and ``QuantizedCube`` the one levels rule.

A ``HyperCube`` keeps float32 samples as float32 (u16 samples widen to it
exactly) and anything wider as float64; quantization computes in float64
one band at a time, and a ``QuantizedCube`` holds its levels as uint8, so
the labeled matrix and the band series are uint8 too. Every symbol code
(``x * A_y + y``) is formed in int64, since it overflows uint8.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, cast_value, integer

DEFAULT_LEVELS = 16
MAX_LEVELS = 256


def integers(values, what: str, widen: bool = True) -> np.ndarray:
    """``values`` as an int64 array, or with ``widen=False`` in its own
    integer dtype wherever int64 holds every value of that dtype, so a uint8
    row is not copied. A nonempty array of any other kind (float, even
    integral, or bool) raises DataError naming ``what``. Empty input passes
    through, so the caller's shape check names it."""
    values = np.asarray(values)
    if values.size and not np.issubdtype(values.dtype, np.integer):
        raise DataError(f"{what} must be integers")
    if widen or not np.can_cast(values.dtype, np.int64):
        values = values.astype(np.int64, copy=False)
    return values


@dataclass(frozen=True, eq=False)
class _BandMajor:
    """The geometry shared by cubes: ``values`` has shape (bands, rows, cols)."""

    values: np.ndarray

    def _store(self, values: np.ndarray, kind: str) -> np.ndarray:
        if values.ndim != 3 or min(values.shape) < 1:
            raise DataError(f"{kind} must be 3-D (bands, rows, cols), got shape {values.shape}")
        object.__setattr__(self, "values", values)
        return values

    @property
    def bands(self) -> int:
        return self.values.shape[0]

    @property
    def rows(self) -> int:
        return self.values.shape[1]

    @property
    def cols(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True, eq=False)
class HyperCube(_BandMajor):
    """Band-major raster of radiance values: float32 where float32 holds
    every value of the given dtype exactly (f32 and u16 samples), else
    float64."""

    def __post_init__(self):
        values = np.asarray(self.values)
        dtype = np.float32 if np.can_cast(values.dtype, np.float32) else np.float64
        values = self._store(np.asarray(values, dtype=dtype), "cube")
        if not np.isfinite(values).all():
            bad = np.where(~np.isfinite(values).all(axis=(1, 2)))[0]
            raise DataError(f"non-finite values in band {int(bad[0])}")


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Per-pixel class labels: 0 = unlabeled, a positive id only names a class."""

    labels: np.ndarray
    index: np.ndarray = field(init=False)  # labeled pixels' flat indices, row-major
    classes: np.ndarray = field(init=False)  # sorted distinct nonzero labels
    ranks: np.ndarray = field(init=False)  # each labeled pixel's index into classes

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 2 or min(labels.shape) < 1:
            raise DataError(f"ground truth must be 2-D, got shape {labels.shape}")
        labels = integers(labels, "ground truth labels")
        if (labels < 0).any():
            raise DataError("ground truth labels must be nonnegative")
        index = np.flatnonzero(labels)
        classes, ranks = np.unique(np.take(labels, index), return_inverse=True)
        if classes.size < 2:
            raise DataError("ground truth needs at least 2 distinct nonzero labels")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "ranks", ranks)

    @property
    def rows(self) -> int:
        return self.labels.shape[0]

    @property
    def cols(self) -> int:
        return self.labels.shape[1]


@dataclass(frozen=True, eq=False)
class QuantizedCube(_BandMajor):
    """Cube geometry with integer values in [0, levels-1], held as uint8."""

    levels: int

    def __post_init__(self):
        values = self._store(integers(self.values, "quantized values", widen=False),
                             "quantized cube")
        levels = cast_value(self.levels, integer, DataError, "levels")
        if not 2 <= levels <= MAX_LEVELS:
            raise DataError(f"levels must be in [2, {MAX_LEVELS}], got {levels}")
        if values.min() < 0 or values.max() >= levels:
            raise DataError("quantized values outside [0, levels-1]")
        object.__setattr__(self, "values", values.astype(np.uint8, copy=False))
        object.__setattr__(self, "levels", levels)


@dataclass(frozen=True, eq=False)
class DiscreteSeries:
    """A sequence of symbols drawn from the alphabet {0, ..., alphabet-1};
    the symbols keep a narrow integer dtype (a uint8 band row is not
    copied)."""

    symbols: np.ndarray
    alphabet: int

    def __post_init__(self):
        symbols = integers(self.symbols, "series symbols", widen=False)
        if symbols.ndim != 1 or symbols.shape[0] < 1:
            raise DataError("series must be 1-D and nonempty")
        alphabet = cast_value(self.alphabet, integer, DataError, "alphabet")
        if alphabet < 1:
            raise DataError("alphabet must be >= 1")
        if symbols.min() < 0 or symbols.max() >= alphabet:
            raise DataError("series symbols outside [0, alphabet-1]")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "alphabet", alphabet)

    def __len__(self) -> int:
        return self.symbols.shape[0]


def round_half_up(x: np.ndarray) -> np.ndarray:
    """Ties at .5 always round up, so independent implementations agree."""
    return np.floor(x + 0.5)


def quantize_cube(cube: HyperCube, levels: int = DEFAULT_LEVELS) -> QuantizedCube:
    """Discretize each band to ``levels`` uint8 values by min-max scaling.

    Each band is scaled linearly so its minimum maps to 0 and its maximum to
    ``levels - 1``, then rounded half-up. A constant band maps entirely to 0.
    The arithmetic is float64 whatever the cube's dtype (float32 widens
    exactly) and runs one band at a time, so besides the cube and its levels
    only one band's float64 buffer is held.
    """
    # built before any band is scaled, so its check refuses a bad levels first
    out = QuantizedCube(values=np.zeros(cube.values.shape, dtype=np.uint8), levels=levels)
    scaled = np.empty(cube.values.shape[1:])
    for band, plane in enumerate(cube.values):
        np.copyto(scaled, plane)
        lo = scaled.min()
        span = scaled.max() - lo
        # round_half_up((plane - lo) * ((levels - 1) / span)), one operation
        # at a time in one buffer; a constant band has plane - lo == 0
        # exactly, so it maps to 0
        scaled -= lo
        scaled *= (out.levels - 1) / (span if span != 0 else 1.0)
        scaled += 0.5
        np.floor(scaled, out=scaled)
        # a range that overflows float64 scales to NaN and a subnormal span
        # scales the top to inf; casting either to an integer is undefined,
        # so clip in float first (fmax sends NaN to 0)
        np.fmax(scaled, 0.0, out=scaled)
        np.fmin(scaled, out.levels - 1, out=scaled)
        out.values[band] = scaled
    return out


def check_geometry(cube: _BandMajor, gt: GroundTruth) -> None:
    """DataError unless ``cube`` (float or quantized) and ``gt`` share a grid."""
    if (cube.rows, cube.cols) != (gt.rows, gt.cols):
        raise DataError(f"geometry mismatch: cube {cube.rows}x{cube.cols} "
                        f"vs ground truth {gt.rows}x{gt.cols}")


def labeled_matrix(qcube: QuantizedCube, gt: GroundTruth, bands=None) -> np.ndarray:
    """The labeled-pixel series of ``bands`` (default: every band), in that
    order, as one C-ordered (len(bands), n_labeled) array with pixels in
    ``gt.index`` order, so each band's series is a contiguous row."""
    check_geometry(qcube, gt)
    planes = qcube.values.reshape(qcube.bands, -1)
    if bands is not None:
        bands = integers(list(bands), "bands")
        bad = bands[(bands < 0) | (bands >= qcube.bands)]
        if bad.size:
            raise DataError(f"bands out of range [0, {qcube.bands}): {bad.tolist()}")
        planes = planes[bands]
    # one copy; values[:, mask] is the same array in Fortran order
    return np.take(planes, gt.index, axis=1)

