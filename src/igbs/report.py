"""Run configuration and the line-oriented report format.

Reports are plain text: one ``key = value`` line per parameter, then
rectangular table blocks bracketed by ``table = <name>`` / ``end = <name>``.
No timestamps are written, so identical runs produce byte-identical files
and diffs stay trivial. Every report embeds the full configuration it was
produced from; ``RunConfig.from_report`` turns a report back into the
config that reproduces it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .datamodel import MAX_LEVELS
from .errors import ConfigError
from .selection import (
    DEFAULT_BETA,
    DEFAULT_LAMBDA,
    DEFAULT_THRESHOLD,
    METHODS,
    SelectionResult,
)

CLASSIFIERS = ("svm", "1nn")


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _optional(cast):
    return lambda value: None if value is None else cast(value)


def _methods(value) -> tuple:
    if isinstance(value, str):
        value = value.split(",")
    if not all(isinstance(m, str) for m in value):
        raise TypeError(f"expected a string or a sequence of strings, got {value!r}")
    return tuple(m.strip().upper() for m in value if m.strip())


# how each RunConfig field is coerced; a failed cast becomes ConfigError
_CASTS = {
    "cube": _optional(_text),
    "gt": _optional(_text),
    "methods": _methods,
    "k": int,
    "levels": int,
    "beta": float,
    "threshold": float,
    "lam": float,
    "classifier": _text,
    "svm_c": float,
    "svm_gamma": _optional(float),
    "svm_tol": float,
    "fraction": float,
    "seed": int,
    "out": _text,
}

# report keys that differ from the field names, and the report's None markers
_REPORT_KEYS = {"methods": "method", "lam": "lambda"}
_REPORT_NONE = {"cube": "-", "gt": "-", "svm_gamma": "auto"}


def read_json_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return raw


@dataclass
class RunConfig:
    cube: str | None = None
    gt: str | None = None
    methods: tuple = METHODS
    k: int = 10
    levels: int = 16
    beta: float = DEFAULT_BETA
    threshold: float = DEFAULT_THRESHOLD
    lam: float = DEFAULT_LAMBDA
    classifier: str = "svm"
    svm_c: float = 100.0
    svm_gamma: float | None = None  # None resolves to 1/n_selected_bands
    svm_tol: float = 1e-3
    fraction: float = 0.5
    seed: int = 0
    out: str = "run"

    def __post_init__(self):
        """The one place a run's configuration is checked: every field is
        coerced to its type, and anything malformed raises ConfigError."""
        for name, cast in _CASTS.items():
            try:
                setattr(self, name, cast(getattr(self, name)))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad {name}: {exc}") from exc
        unknown = [m for m in self.methods if m not in METHODS]
        # written so that NaN fails every range check
        checks = (
            (not unknown, f"unknown methods {unknown}, expected subset of {METHODS}"),
            (bool(self.methods), "at least one method is required"),
            (self.classifier in CLASSIFIERS,
             f"unknown classifier {self.classifier!r}, expected one of {CLASSIFIERS}"),
            (self.k >= 1, f"k must be >= 1, got {self.k}"),
            (2 <= self.levels <= MAX_LEVELS,
             f"levels must be in [2, {MAX_LEVELS}], got {self.levels}"),
            (self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
            (0.0 < self.fraction < 1.0, f"fraction must be in (0, 1), got {self.fraction}"),
            (self.svm_c > 0.0, f"svm_c must be > 0, got {self.svm_c}"),
            (self.svm_tol > 0.0, f"svm_tol must be > 0, got {self.svm_tol}"),
            (self.svm_gamma is None or self.svm_gamma > 0.0,
             f"svm_gamma must be > 0, got {self.svm_gamma}"),
        )
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        extra = set(raw) - known
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        return cls(**raw)

    @classmethod
    def from_json(cls, path: str) -> "RunConfig":
        return cls.from_dict(read_json_config(path))

    @classmethod
    def from_report(cls, path: str) -> "RunConfig":
        """Rebuild the configuration embedded in a report file."""
        values: dict = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("table ="):
                    break
                if "=" not in line:
                    continue
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
        if "method" not in values:
            raise ConfigError(f"{path} does not look like a method report")
        raw = {}
        for name in _CASTS:
            if name == "out":  # reports do not record where they were written
                continue
            key = _REPORT_KEYS.get(name, name)
            if key not in values:
                raise ConfigError(f"{path}: report has no {key!r} line")
            value = values[key]
            raw[name] = None if value == _REPORT_NONE.get(name) else value
        return cls(**raw)


@dataclass
class MethodOutcome:
    method: str
    selection: SelectionResult | None = None
    report: object | None = None  # classify.EvalReport
    resolved_gamma: float | None = None
    error: str | None = None
    extras: dict = field(default_factory=dict)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _config_lines(config: RunConfig, method: str) -> list[str]:
    gamma = "auto" if config.svm_gamma is None else _fmt(config.svm_gamma)
    return [
        "report = band-selection-evaluation",
        f"method = {method}",
        f"cube = {config.cube or '-'}",
        f"gt = {config.gt or '-'}",
        f"k = {config.k}",
        f"levels = {config.levels}",
        f"beta = {_fmt(config.beta)}",
        f"threshold = {_fmt(config.threshold)}",
        f"lambda = {_fmt(config.lam)}",
        f"classifier = {config.classifier}",
        f"svm_c = {_fmt(config.svm_c)}",
        f"svm_gamma = {gamma}",
        f"svm_tol = {_fmt(config.svm_tol)}",
        f"fraction = {_fmt(config.fraction)}",
        f"seed = {config.seed}",
    ]


def render_method_report(config: RunConfig, outcome: MethodOutcome, bands_total: int) -> str:
    lines = _config_lines(config, outcome.method)
    lines.append(f"bands_total = {bands_total}")
    if outcome.error is not None:
        lines.append("status = failed")
        lines.append(f"error = {outcome.error}")
        return "\n".join(lines) + "\n"
    sel, rep = outcome.selection, outcome.report
    lines.append("status = ok")
    if outcome.resolved_gamma is not None:
        lines.append(f"svm_gamma_resolved = {_fmt(outcome.resolved_gamma)}")
    lines.append("selected_bands = " + " ".join(str(b) for b in sel.selected))
    lines.append("step_scores = " + " ".join(_fmt(s) for s in sel.step_scores))
    lines.append(f"oa_percent = {100 * rep.oa:.2f}")
    lines.append(f"kappa_percent = {100 * rep.kappa:.2f}")
    lines.append("table = per_class")
    lines.append("class n_test accuracy_percent")
    row_totals = rep.matrix.counts.sum(axis=1)
    for idx, cls in enumerate(rep.matrix.classes):
        acc = rep.per_class[idx]
        cell = "undefined" if np.isnan(acc) else f"{100 * acc:.2f}"
        lines.append(f"{int(cls)} {int(row_totals[idx])} {cell}")
    lines.append("end = per_class")
    lines.append("table = confusion")
    for row in rep.matrix.counts:
        lines.append(" ".join(str(int(v)) for v in row))
    lines.append("end = confusion")
    return "\n".join(lines) + "\n"


def render_comparison(config: RunConfig, outcomes: list, classes) -> str:
    """Comparison table: one column per method, per-class accuracy rows and
    Kappa/OA footer rows."""
    gamma = "auto" if config.svm_gamma is None else _fmt(config.svm_gamma)
    params = (
        f"params: k={config.k} levels={config.levels} beta={_fmt(config.beta)} "
        f"threshold={_fmt(config.threshold)} lambda={_fmt(config.lam)} "
        f"classifier={config.classifier} svm_c={_fmt(config.svm_c)} "
        f"svm_gamma={gamma} svm_tol={_fmt(config.svm_tol)} "
        f"fraction={_fmt(config.fraction)} seed={config.seed}"
    )
    name_width = max(12, max((len(str(int(c))) for c in classes), default=1))
    col_width = 10

    def row(label, cells):
        out = f"{label:<{name_width}}"
        for cell in cells:
            out += f"{cell:>{col_width}}"
        return out

    lines = [params, row("class", [o.method for o in outcomes])]
    for pos, cls in enumerate(classes):
        cells = []
        for o in outcomes:
            if o.error is not None:
                cells.append("failed")
                continue
            idx = list(o.report.matrix.classes).index(cls)
            acc = o.report.per_class[idx]
            cells.append("undefined" if np.isnan(acc) else f"{100 * acc:.2f}")
        lines.append(row(str(int(cls)), cells))
    lines.append(
        row(
            "Kappa(%)",
            [
                "failed" if o.error is not None else f"{100 * o.report.kappa:.2f}"
                for o in outcomes
            ],
        )
    )
    lines.append(
        row(
            "OA(%)",
            [
                "failed" if o.error is not None else f"{100 * o.report.oa:.2f}"
                for o in outcomes
            ],
        )
    )
    return "\n".join(lines) + "\n"
