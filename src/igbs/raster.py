"""File formats: raw band-sequential cubes with JSON sidecar headers,
raw/CSV ground-truth grids, and P6 portable-pixmap class maps.

A cube lives in two files: ``<name>.hdr.json`` describing the geometry and
``<name>.raw`` holding the samples band-sequentially, little-endian.
Ground truth is a row-major little-endian u16 grid (``<name>.gt.raw``) or a
plain CSV grid. All loaders fail closed: a size mismatch never yields a
partial raster.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .datamodel import GroundTruth, HyperCube
from .errors import DataError, build_record, cast_fields, integer, read_json_object, text

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

_HEADER_CASTS = (("rows", integer), ("cols", integer), ("bands", integer),
                 ("dtype", text), ("interleave", text), ("byte_order", text))


@dataclass(frozen=True)
class CubeHeader:
    rows: int
    cols: int
    bands: int
    dtype: str = "f32"
    interleave: str = "bsq"
    byte_order: str = "little"

    def __post_init__(self):
        cast_fields(self, _HEADER_CASTS, DataError)
        if min(self.rows, self.cols, self.bands) < 1:
            raise DataError("header dimensions must all be >= 1")
        if self.dtype not in _DTYPES:
            raise DataError(f"unknown dtype {self.dtype!r}, expected u16 or f32")
        if self.interleave != "bsq":
            raise DataError(f"unsupported interleave {self.interleave!r}")
        if self.byte_order != "little":
            raise DataError(f"unsupported byte order {self.byte_order!r}")

    @property
    def expected_bytes(self) -> int:
        return self.rows * self.cols * self.bands * np.dtype(_DTYPES[self.dtype]).itemsize


def cube_header_path(path: str) -> str:
    """The ``.hdr.json`` header for a cube given by base path or header path."""
    return path if path.endswith(".hdr.json") else path + ".hdr.json"


def load_cube(header_path: str) -> HyperCube:
    """Decode a band-sequential cube; u16 samples widen to float."""
    header = build_record(CubeHeader, read_json_object(header_path, DataError), DataError)
    raw_path = header_path[: -len(".hdr.json")] + ".raw"
    try:
        actual = os.path.getsize(raw_path)
    except OSError as exc:
        raise DataError(f"cannot stat {raw_path}: {exc}") from exc
    if actual != header.expected_bytes:
        raise DataError(
            f"{raw_path}: expected {header.expected_bytes} bytes "
            f"({header.bands}x{header.rows}x{header.cols} {header.dtype}), "
            f"got {actual}"
        )
    data = np.fromfile(raw_path, dtype=_DTYPES[header.dtype])
    values = data.reshape(header.bands, header.rows, header.cols).astype(np.float64)
    return HyperCube(values=values)


def save_cube(cube: HyperCube, base_path: str, dtype: str = "f32") -> tuple[str, str]:
    """Write ``<base>.hdr.json`` + ``<base>.raw``; returns the two paths."""
    header = CubeHeader(rows=cube.rows, cols=cube.cols, bands=cube.bands, dtype=dtype)
    if dtype == "u16":
        values = cube.values
        if (values < 0).any() or (values > 65535).any() or (values % 1 != 0).any():
            raise DataError("u16 export needs integral values in [0, 65535]")
        out = values.astype("<u2")
    else:
        out = cube.values.astype("<f4")
    header_path = base_path + ".hdr.json"
    raw_path = base_path + ".raw"
    with open(header_path, "w", encoding="utf-8") as fh:
        json.dump(header.__dict__, fh, indent=2, sort_keys=True)
        fh.write("\n")
    out.tofile(raw_path)
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
        try:
            actual = os.path.getsize(path)
        except OSError as exc:
            raise DataError(f"cannot stat {path}: {exc}") from exc
        if actual != rows * cols * 2:
            raise DataError(
                f"{path}: expected {rows * cols * 2} bytes ({rows}x{cols} u16), "
                f"got {actual}"
            )
        grid = np.fromfile(path, dtype="<u2").reshape(rows, cols).astype(np.int64)
    if rows is not None and cols is not None and grid.shape != (rows, cols):
        raise DataError(
            f"{path}: ground truth is {grid.shape[0]}x{grid.shape[1]}, "
            f"cube is {rows}x{cols}"
        )
    if (grid < 0).any():
        raise DataError(f"{path}: negative labels")
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
    if values.shape[0] != gt.n_labeled:
        raise DataError("series length does not match the labeled pixel count")
    grid = np.zeros((gt.rows, gt.cols), dtype=np.int64)
    grid[gt.mask] = values + offset
    return grid


def export_map(grid: np.ndarray, path: str) -> str:
    """Render an integer grid as a P6 pixmap; 0 is black, value v takes
    ``PALETTE`` color (v-1) mod len(PALETTE)."""
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise DataError("map grid must be 2-D")
    if (grid < 0).any():
        raise DataError("map grid values must be nonnegative")
    colors = np.zeros((int(grid.max()) + 1, 3), dtype=np.uint8)
    for v in range(1, colors.shape[0]):
        colors[v] = PALETTE[(v - 1) % len(PALETTE)]
    pixels = colors[grid]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{grid.shape[1]} {grid.shape[0]}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
    return path
