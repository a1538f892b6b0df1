"""Exception hierarchy (the CLI maps it onto exit codes) and the one path
from loose input, such as a JSON file or CLI strings, to a typed record."""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, field, fields


class IgbsError(Exception):
    """Base class for all package errors."""


class ConfigError(IgbsError):
    """Invalid configuration or parameters (CLI exit code 2)."""


class DataError(IgbsError):
    """Invalid or inconsistent input data (CLI exit code 3)."""


class MethodError(IgbsError):
    """A selection or classification stage failed (CLI exit code 4)."""


def integer(value) -> int:
    """An int from an int, an integral float or a decimal string; booleans
    and fractional or non-finite floats are rejected."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def finite(value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value}")
    return value


def text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def optional(cast):
    return lambda value: None if value is None else cast(value)


def sequence(cast):
    """A tuple of cast items from a sequence or a comma-separated string
    (whose blank items are dropped)."""
    def cast_items(value) -> tuple:
        if isinstance(value, str):
            value = [item for item in value.split(",") if item.strip()]
        return tuple(cast(item) for item in value)
    return cast_items


def typed(cast, default=MISSING, **metadata):
    """A dataclass field that declares its own ``cast``; further metadata,
    such as a report key or CLI help, rides along for other readers."""
    return field(default=default, metadata={"cast": cast, **metadata})


def cast_fields(record, error) -> None:
    """Coerce each field of ``record`` in place by its declared cast; a
    failed cast raises ``error``. Frozen dataclasses are written through
    object."""
    for f in fields(record):
        try:
            object.__setattr__(record, f.name, f.metadata["cast"](getattr(record, f.name)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise error(f"bad {f.name}: {exc}") from exc


def read_json_object(path: str, error) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"cannot parse {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise error(f"{path} must hold a JSON object, got {type(raw).__name__}")
    return raw


def build_record(cls, raw, error):
    """The dataclass ``cls`` from a mapping of its field names; anything that
    is not a mapping, an unknown field or a missing required one raises
    ``error``. Casting and range checks are the record's own."""
    if not isinstance(raw, dict):
        raise error(f"{cls.__name__} needs a mapping of fields, got {type(raw).__name__}")
    unknown = sorted(str(name) for name in set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise error(f"unknown {cls.__name__} fields: {unknown}")
    missing = [f.name for f in fields(cls) if f.name not in raw and f.default is MISSING]
    if missing:
        raise error(f"missing {cls.__name__} fields: {missing}")
    return cls(**raw)
