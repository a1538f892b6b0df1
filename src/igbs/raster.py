"""File formats: raw band-sequential cubes with JSON sidecar headers,
raw/CSV ground-truth grids, and P6 portable-pixmap class maps.

A cube lives in two files: ``<name>.hdr.json`` describing the geometry and
``<name>.raw`` holding the samples band-sequentially, little-endian; cube
readers and writers take the base path or the header path, and ``cube_paths``
alone forms the two names.
Ground truth is a row-major little-endian u16 grid (``<name>.gt.raw``) or a
plain CSV grid. All loaders fail closed: a size mismatch never yields a
partial raster.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .datamodel import GroundTruth, HyperCube
from .errors import DataError, build_record, cast_fields, integer, read_json_object, text, typed

_DTYPES = {"u16": "<u2", "f32": "<f4"}

# Fixed class palette (documented in the README): entry i colors class i+1,
# class 0 (unlabeled) is always black.
PALETTE = (
    (230, 25, 75), (60, 180, 75), (255, 225, 25), (0, 130, 200),
    (245, 130, 48), (145, 30, 180), (70, 240, 240), (240, 50, 230),
    (210, 245, 60), (250, 190, 212), (0, 128, 128), (220, 190, 255),
    (170, 110, 40), (255, 250, 200), (128, 0, 0), (170, 255, 195),
    (128, 128, 0), (255, 215, 180), (0, 0, 128), (128, 128, 128),
)


@dataclass(frozen=True)
class CubeHeader:
    rows: int = typed(integer)
    cols: int = typed(integer)
    bands: int = typed(integer)
    dtype: str = typed(text, "f32")
    interleave: str = typed(text, "bsq")
    byte_order: str = typed(text, "little")

    def __post_init__(self):
        cast_fields(self, DataError)
        if min(self.rows, self.cols, self.bands) < 1:
            raise DataError("header dimensions must all be >= 1")
        if self.dtype not in _DTYPES:
            raise DataError(f"unknown dtype {self.dtype!r}, expected u16 or f32")
        if self.interleave != "bsq":
            raise DataError(f"unsupported interleave {self.interleave!r}")
        if self.byte_order != "little":
            raise DataError(f"unsupported byte order {self.byte_order!r}")


def cube_paths(path: str) -> tuple[str, str]:
    """The ``(<base>.hdr.json, <base>.raw)`` files of a cube given by base
    path or header path."""
    base = path.removesuffix(".hdr.json")
    return base + ".hdr.json", base + ".raw"


def _read_raw(path: str, dtype: str, shape: tuple) -> np.ndarray:
    """The little-endian ``dtype`` samples of a raw file, shaped ``shape``;
    the file must hold exactly that many bytes."""
    try:
        actual = os.path.getsize(path)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise DataError(f"cannot stat {path}: {exc}") from exc
    expected = math.prod(shape) * np.dtype(_DTYPES[dtype]).itemsize
    if actual != expected:
        raise DataError(
            f"{path}: expected {expected} bytes "
            f"({'x'.join(str(n) for n in shape)} {dtype}), got {actual}"
        )
    return np.fromfile(path, dtype=_DTYPES[dtype]).reshape(shape)


def read_header(path: str) -> CubeHeader:
    """The checked header of the cube at ``path``; reads no samples."""
    return build_record(CubeHeader, read_json_object(cube_paths(path)[0], DataError), DataError)


def load_cube(path: str) -> HyperCube:
    """Decode a band-sequential cube; u16 samples widen to float."""
    header = read_header(path)
    raw = _read_raw(cube_paths(path)[1], header.dtype, (header.bands, header.rows, header.cols))
    return HyperCube(values=raw)


def save_cube(cube: HyperCube, base_path: str) -> tuple[str, str]:
    """Write ``<base>.hdr.json`` + ``<base>.raw`` as f32; returns the two
    paths."""
    header = CubeHeader(rows=cube.rows, cols=cube.cols, bands=cube.bands)
    header_path, raw_path = cube_paths(base_path)
    with open(header_path, "w", encoding="utf-8") as fh:
        json.dump(header.__dict__, fh, indent=2, sort_keys=True)
        fh.write("\n")
    cube.values.astype("<f4").tofile(raw_path)
    return header_path, raw_path


def load_gt(path: str, rows: int | None = None, cols: int | None = None) -> GroundTruth:
    """Load a ground-truth grid from a raw u16 file or a CSV grid.

    The raw form carries no geometry of its own, so rows/cols must come from
    the companion cube.
    """
    if path.endswith(".csv"):
        try:
            with warnings.catch_warnings():
                # numpy only warns on a file without rows; it is refused below
                warnings.simplefilter("ignore", UserWarning)
                grid = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2)
        except (OSError, ValueError) as exc:
            raise DataError(f"cannot parse {path}: {exc}") from exc
        if grid.size == 0:
            raise DataError(f"{path}: ground truth CSV has no rows")
    else:
        if rows is None or cols is None:
            raise DataError("raw ground truth needs rows and cols from the cube")
        grid = _read_raw(path, "u16", (rows, cols))
    if rows is not None and cols is not None and grid.shape != (rows, cols):
        raise DataError(
            f"{path}: ground truth is {grid.shape[0]}x{grid.shape[1]}, "
            f"cube is {rows}x{cols}"
        )
    return GroundTruth(labels=grid)


def save_gt(gt: GroundTruth, path: str) -> str:
    if gt.labels.max() > 65535:
        raise DataError("labels exceed u16 range")
    gt.labels.astype("<u2").tofile(path)
    return path


def series_to_grid(values: np.ndarray, gt: GroundTruth, offset: int = 1) -> np.ndarray:
    """Scatter a labeled-pixel series back onto the grid.

    The offset shifts values up so that symbol 0 stays distinguishable from
    the unlabeled (black) background.
    """
    values = np.asarray(values)
    if values.shape[0] != gt.index.size:
        raise DataError("series length does not match the labeled pixel count")
    grid = np.zeros((gt.rows, gt.cols), dtype=np.int64)
    np.put(grid, gt.index, values + offset)
    return grid


def export_map(grid: np.ndarray, path: str) -> str:
    """Render an integer grid as a P6 pixmap; 0 is black, value v takes
    ``PALETTE`` color (v-1) mod len(PALETTE)."""
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise DataError("map grid must be 2-D")
    if (grid < 0).any():
        raise DataError("map grid values must be nonnegative")
    pixels = np.asarray(PALETTE, dtype=np.uint8)[(grid - 1) % len(PALETTE)]
    pixels[grid == 0] = 0
    with open(path, "wb") as fh:
        fh.write(f"P6\n{grid.shape[1]} {grid.shape[0]}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
    return path
