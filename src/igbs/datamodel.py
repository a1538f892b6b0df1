"""Raster data types, quantization and labeled-pixel extraction.

A hypercube is stored band-major (bands, rows, cols). Quantization is
per-band min-max scaling onto ``[0, levels-1]`` with round-half-up, which is
the alphabet every information estimator downstream operates on. Probability
estimates only ever see pixels with a nonzero ground-truth label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

DEFAULT_LEVELS = 16
MAX_LEVELS = 256


@dataclass(frozen=True, eq=False)
class HyperCube:
    """Band-major raster of radiance values, shape (bands, rows, cols)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 3 or min(values.shape) < 1:
            raise DataError(
                f"cube must be 3-D (bands, rows, cols), got shape {values.shape}"
            )
        if not np.isfinite(values).all():
            bad = np.where(~np.isfinite(values).all(axis=(1, 2)))[0]
            raise DataError(f"non-finite values in band {int(bad[0])}")
        object.__setattr__(self, "values", values)

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
class GroundTruth:
    """Per-pixel class labels, 0 = unlabeled, 1..C = classes."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 2 or min(labels.shape) < 1:
            raise DataError(f"ground truth must be 2-D, got shape {labels.shape}")
        if not np.issubdtype(labels.dtype, np.integer):
            raise DataError("ground truth labels must be integers")
        labels = labels.astype(np.int64, copy=False)
        if (labels < 0).any():
            raise DataError("ground truth labels must be nonnegative")
        if len(np.unique(labels[labels > 0])) < 2:
            raise DataError("ground truth needs at least 2 distinct nonzero labels")
        object.__setattr__(self, "labels", labels)

    @property
    def rows(self) -> int:
        return self.labels.shape[0]

    @property
    def cols(self) -> int:
        return self.labels.shape[1]

    @property
    def classes(self) -> np.ndarray:
        """Sorted distinct nonzero labels."""
        return np.unique(self.labels[self.labels > 0])

    @property
    def mask(self) -> np.ndarray:
        return self.labels > 0

    @property
    def n_labeled(self) -> int:
        return int(np.count_nonzero(self.labels))


@dataclass(frozen=True, eq=False)
class QuantizedCube:
    """Cube geometry with integer values in [0, levels-1]."""

    values: np.ndarray
    levels: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.int64)
        if values.ndim != 3 or min(values.shape) < 1:
            raise DataError(f"quantized cube must be 3-D, got shape {values.shape}")
        if not 2 <= self.levels <= MAX_LEVELS:
            raise DataError(f"levels must be in [2, {MAX_LEVELS}], got {self.levels}")
        if values.min() < 0 or values.max() >= self.levels:
            raise DataError("quantized values outside [0, levels-1]")
        object.__setattr__(self, "values", values)

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
class DiscreteSeries:
    """A sequence of symbols drawn from the alphabet {0, ..., alphabet-1}."""

    symbols: np.ndarray
    alphabet: int

    def __post_init__(self):
        symbols = np.asarray(self.symbols, dtype=np.int64)
        if symbols.ndim != 1 or symbols.shape[0] < 1:
            raise DataError("series must be 1-D and nonempty")
        if self.alphabet < 1:
            raise DataError("alphabet must be >= 1")
        if symbols.min() < 0 or symbols.max() >= self.alphabet:
            raise DataError("series symbols outside [0, alphabet-1]")
        object.__setattr__(self, "symbols", symbols)

    def __len__(self) -> int:
        return self.symbols.shape[0]


def round_half_up(x: np.ndarray) -> np.ndarray:
    """Ties at .5 always round up, so independent implementations agree."""
    return np.floor(x + 0.5)


def quantize_cube(cube: HyperCube, levels: int = DEFAULT_LEVELS) -> QuantizedCube:
    """Discretize each band to ``levels`` values by min-max scaling.

    Each band is scaled linearly so its minimum maps to 0 and its maximum to
    ``levels - 1``, then rounded half-up. A constant band maps entirely to 0.
    """
    if not 2 <= levels <= MAX_LEVELS:
        raise DataError(f"levels must be in [2, {MAX_LEVELS}], got {levels}")
    values = cube.values
    lo = values.min(axis=(1, 2), keepdims=True)
    hi = values.max(axis=(1, 2), keepdims=True)
    span = hi - lo
    flat = span[:, 0, 0] == 0
    span = np.where(span == 0, 1.0, span)
    scaled = (values - lo) * ((levels - 1) / span)
    q = round_half_up(scaled).astype(np.int64)
    q[flat] = 0
    np.clip(q, 0, levels - 1, out=q)
    return QuantizedCube(values=q, levels=levels)


def labeled_matrix(qcube: QuantizedCube, gt: GroundTruth) -> np.ndarray:
    """All bands' labeled-pixel series as one C-ordered (bands, n_labeled)
    array, with pixels in row-major order, so each band's series is a
    contiguous row."""
    if (qcube.rows, qcube.cols) != (gt.rows, gt.cols):
        raise DataError(
            f"geometry mismatch: cube {qcube.rows}x{qcube.cols} "
            f"vs ground truth {gt.rows}x{gt.cols}"
        )
    # one copy; values[:, mask] is the same array in Fortran order
    return np.take(qcube.values.reshape(qcube.bands, -1), np.flatnonzero(gt.mask), axis=1)


def label_series(gt: GroundTruth) -> DiscreteSeries:
    """The class labels of the labeled pixels, in the same row-major order."""
    labels = gt.labels[gt.mask]
    return DiscreteSeries(symbols=labels, alphabet=int(labels.max()) + 1)
