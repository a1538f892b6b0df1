"""Run configuration and the line-oriented report format.

Reports are plain text: one ``key = value`` line per parameter, then
rectangular table blocks bracketed by ``table = <name>`` / ``end = <name>``.
No timestamps are written, so identical runs produce byte-identical files
and diffs stay trivial. Every report embeds the full configuration it was
produced from; ``RunConfig.from_report`` turns a report back into the
config that reproduces it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .classify import DEFAULT_C, DEFAULT_FRACTION, DEFAULT_TOL
from .datamodel import DEFAULT_LEVELS, MAX_LEVELS
from .errors import ConfigError, cast_fields
from .errors import finite, integer, optional, path_text, sequence, text, typed
from .selection import (
    DEFAULT_BETA,
    DEFAULT_LAMBDA,
    DEFAULT_THRESHOLD,
    METHODS,
    SelectionResult,
)

CLASSIFIERS = ("svm", "1nn")


@dataclass
class RunConfig:
    """A run's parameters. Each field declares, in report order, its cast,
    its report ``key`` (default: its name), the report text of ``none`` and
    its CLI ``help``. A report writes the method it ran under ``method`` and
    does not record ``out``, the directory it was written to. The CLI's run
    flags are generated from these fields."""

    methods: tuple = typed(sequence(lambda m: text(m).strip().upper()), METHODS, key="method")
    cube: str | None = typed(optional(path_text), None, none="-",
                             help="cube base path or .hdr.json path")
    gt: str | None = typed(optional(path_text), None, none="-",
                           help="ground truth path (.gt.raw or .csv)")
    k: int = typed(integer, 10, help="number of bands to select")
    levels: int = typed(integer, DEFAULT_LEVELS, help="quantization levels")
    beta: float = typed(finite, DEFAULT_BETA, help="MIFS redundancy weight")
    threshold: float = typed(finite, DEFAULT_THRESHOLD, help="MIBF acceptance threshold")
    lam: float = typed(finite, DEFAULT_LAMBDA, key="lambda", help="IGBS interaction weight")
    classifier: str = typed(text, "svm", help="svm or 1nn")
    svm_c: float = typed(finite, DEFAULT_C)
    # None resolves to 1/n_selected_bands
    svm_gamma: float | None = typed(optional(finite), None, none="auto")
    svm_tol: float = typed(finite, DEFAULT_TOL)
    fraction: float = typed(finite, DEFAULT_FRACTION, help="train fraction of labeled pixels")
    seed: int = typed(integer, 0)
    out: str = typed(path_text, "run", key=None, help="output directory")

    def __post_init__(self):
        """The one place a run's configuration is checked: every field is
        coerced to its type, and anything malformed raises ConfigError."""
        cast_fields(self, ConfigError)
        unknown = [m for m in self.methods if m not in METHODS]
        # written so that NaN fails every range check
        checks = (
            (not unknown, f"unknown methods {unknown}, expected subset of {METHODS}"),
            (bool(self.methods), "at least one method is required"),
            (len(set(self.methods)) == len(self.methods),
             f"duplicate methods in {list(self.methods)}"),
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
            (self.out != "", "out must not be empty"),
        )
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)

    @classmethod
    def from_report(cls, path: str) -> "RunConfig":
        """Rebuild the configuration embedded in a report file."""
        values: dict = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("table ="):
                    break
                key, eq, value = line.partition("=")
                if eq:
                    values[key.strip()] = value.strip()
        if "method" not in values:
            raise ConfigError(f"{path} does not look like a method report")
        raw = {}
        for name, key, none in _reported():
            if key not in values:
                raise ConfigError(f"{path}: report has no {key!r} line")
            raw[name] = None if values[key] == none else values[key]
        return cls(**raw)


@dataclass
class MethodOutcome:
    method: str
    selection: SelectionResult | None = None
    report: object | None = None  # classify.EvalReport
    resolved_gamma: float | None = None
    error: str | None = None
    prediction: np.ndarray | None = None  # labels over all labeled pixels


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _percent(share) -> str:
    """A share as a percent cell; a class with no test pixel has none."""
    return "undefined" if np.isnan(share) else f"{100 * share:.2f}"


def selection_lines(sel: SelectionResult) -> list[str]:
    """A selection's lines of a method report, which ``select`` prints too."""
    return ["selected_bands = " + " ".join(map(str, sel.selected)),
            "step_scores = " + " ".join(map(_fmt, sel.step_scores))]


def _reported():
    """(field, report key, report text of None) of every reported RunConfig
    field, in report order."""
    for f in fields(RunConfig):
        key = f.metadata.get("key", f.name)
        if key is not None:
            yield f.name, key, f.metadata.get("none")


def _report_items(config: RunConfig, method: str) -> list[tuple[str, str]]:
    """(report key, text) of every reported field, in report order."""
    items = []
    for name, key, none in _reported():
        value = method if name == "methods" else getattr(config, name)
        # an empty path prints like an absent one
        shown = none if value in (None, "") else _fmt(value)
        if isinstance(value, float) and float(shown) != value:
            shown = repr(value)  # a value that six decimals do not hold
        items.append((key, shown))
    return items


def render_method_report(config: RunConfig, outcome: MethodOutcome, bands_total: int) -> str:
    lines = ["report = band-selection-evaluation"]
    lines += [f"{key} = {value}" for key, value in _report_items(config, outcome.method)]
    lines.append(f"bands_total = {bands_total}")
    if outcome.error is not None:
        lines.append("status = failed")
        lines.append(f"error = {outcome.error}")
        return "\n".join(lines) + "\n"
    sel, rep = outcome.selection, outcome.report
    lines.append("status = ok")
    if outcome.resolved_gamma is not None:
        lines.append(f"svm_gamma_resolved = {_fmt(outcome.resolved_gamma)}")
    lines += selection_lines(sel)
    lines.append(f"oa_percent = {_percent(rep.oa)}")
    lines.append(f"kappa_percent = {_percent(rep.kappa)}")
    lines.append("table = per_class")
    lines.append("class n_test accuracy_percent")
    row_totals = rep.matrix.counts.sum(axis=1)
    for idx, cls in enumerate(rep.matrix.classes):
        lines.append(f"{int(cls)} {int(row_totals[idx])} {_percent(rep.per_class[idx])}")
    lines.append("end = per_class")
    lines.append("table = confusion")
    for row in rep.matrix.counts:
        lines.append(" ".join(str(int(v)) for v in row))
    lines.append("end = confusion")
    return "\n".join(lines) + "\n"


def render_comparison(config: RunConfig, outcomes: list, classes) -> str:
    """Comparison table: one column per method, per-class accuracy rows and
    Kappa/OA footer rows."""
    # the table names no single method and no data paths
    params = "params: " + " ".join(
        f"{key}={value}" for key, value in _report_items(config, "")
        if key not in ("method", "cube", "gt")
    )
    labels = [str(int(cls)) for cls in classes] + ["Kappa(%)", "OA(%)"]
    name_width = max(12, *map(len, labels))
    col_width = 10

    def row(label, cells):
        return f"{label:<{name_width}}" + "".join(f"{cell:>{col_width}}" for cell in cells)

    # every report's classes are ``classes``: row ``pos`` reads ``per_class[pos]``
    columns = [["failed"] * len(labels) if o.error is not None
               else [_percent(v) for v in (*o.report.per_class, o.report.kappa, o.report.oa)]
               for o in outcomes]
    lines = [params, row("class", [o.method for o in outcomes])]
    lines += [row(label, [col[pos] for col in columns]) for pos, label in enumerate(labels)]
    return "\n".join(lines) + "\n"
