"""Run configuration and the line-oriented report format.

Reports are plain text: one ``key = value`` line per parameter, then
rectangular table blocks bracketed by ``table = <name>`` / ``end = <name>``.
No timestamps are written, so identical runs produce byte-identical files
and diffs stay trivial. Every report embeds the full configuration it was
produced from; ``RunConfig.from_report`` turns a report back into the
config that reproduces it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import DEFAULT_C, DEFAULT_FRACTION, DEFAULT_TOL
from .datamodel import DEFAULT_LEVELS, MAX_LEVELS
from .errors import ConfigError, cast_fields
from .errors import finite, integer, optional, sequence, text
from .selection import (
    DEFAULT_BETA,
    DEFAULT_LAMBDA,
    DEFAULT_THRESHOLD,
    METHODS,
    SelectionResult,
)

CLASSIFIERS = ("svm", "1nn")

# Every RunConfig field once, in report order: (field, cast, report key,
# report text of None, CLI help). A report writes the method it ran under
# ``method`` and does not record ``out``, the directory it was written to.
# The CLI's run flags are generated from this table.
FIELDS = (
    ("methods", sequence(lambda m: text(m).strip().upper()), "method", None, None),
    ("cube", optional(text), "cube", "-", "cube base path or .hdr.json path"),
    ("gt", optional(text), "gt", "-", "ground truth path (.gt.raw or .csv)"),
    ("k", integer, "k", None, "number of bands to select"),
    ("levels", integer, "levels", None, "quantization levels"),
    ("beta", finite, "beta", None, "MIFS redundancy weight"),
    ("threshold", finite, "threshold", None, "MIBF acceptance threshold"),
    ("lam", finite, "lambda", None, "IGBS interaction weight"),
    ("classifier", text, "classifier", None, "svm or 1nn"),
    ("svm_c", finite, "svm_c", None, None),
    ("svm_gamma", optional(finite), "svm_gamma", "auto", None),
    ("svm_tol", finite, "svm_tol", None, None),
    ("fraction", finite, "fraction", None, "train fraction of labeled pixels"),
    ("seed", integer, "seed", None, None),
    ("out", text, None, None, "output directory"),
)


@dataclass
class RunConfig:
    cube: str | None = None
    gt: str | None = None
    methods: tuple = METHODS
    k: int = 10
    levels: int = DEFAULT_LEVELS
    beta: float = DEFAULT_BETA
    threshold: float = DEFAULT_THRESHOLD
    lam: float = DEFAULT_LAMBDA
    classifier: str = "svm"
    svm_c: float = DEFAULT_C
    svm_gamma: float | None = None  # None resolves to 1/n_selected_bands
    svm_tol: float = DEFAULT_TOL
    fraction: float = DEFAULT_FRACTION
    seed: int = 0
    out: str = "run"

    def __post_init__(self):
        """The one place a run's configuration is checked: every field is
        coerced to its type, and anything malformed raises ConfigError."""
        cast_fields(self, ((name, cast) for name, cast, *_ in FIELDS), ConfigError)
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
                if "=" not in line:
                    continue
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
        if "method" not in values:
            raise ConfigError(f"{path} does not look like a method report")
        raw = {}
        for name, _, key, none, _ in FIELDS:
            if key is None:
                continue
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


def _report_items(config: RunConfig, method: str) -> list[tuple[str, str]]:
    """(report key, text) of every reported field, in report order."""
    items = []
    for name, _, key, none, _ in FIELDS:
        if key is not None:
            value = method if name == "methods" else getattr(config, name)
            # an empty path prints like an absent one
            items.append((key, none if value in (None, "") else _fmt(value)))
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
    # the table names no single method and no data paths
    params = "params: " + " ".join(
        f"{key}={value}" for key, value in _report_items(config, "")
        if key not in ("method", "cube", "gt")
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
    for label, metric in (("Kappa(%)", "kappa"), ("OA(%)", "oa")):
        lines.append(row(label, [
            "failed" if o.error is not None else f"{100 * getattr(o.report, metric):.2f}"
            for o in outcomes
        ]))
    return "\n".join(lines) + "\n"
