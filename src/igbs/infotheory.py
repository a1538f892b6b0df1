"""Plug-in (histogram) estimators for entropy, mutual information and
three-way interaction information.

All quantities are in bits (base-2 logs). Probabilities are empirical cell
frequencies with no bias correction, so every selection criterion compares
like with like and results are deterministic. Empty cells are skipped
(0 log 0 := 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import accel
from .datamodel import DiscreteSeries
from .errors import DataError


@dataclass(frozen=True, eq=False)
class JointHistogram:
    """Co-occurrence counts over 1-3 discrete variables."""

    counts: np.ndarray
    total: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim not in (1, 2, 3):
            raise DataError(f"histogram must have 1-3 axes, got {counts.ndim}")
        if (counts < 0).any():
            raise DataError("histogram counts must be nonnegative")
        if int(counts.sum()) != self.total or self.total < 1:
            raise DataError("histogram total must equal the sum of counts (>= 1)")
        object.__setattr__(self, "counts", counts)

    def marginalize(self, axis: int) -> "JointHistogram":
        """Sum one axis away; the total is preserved."""
        if self.counts.ndim == 1:
            raise DataError("cannot marginalize a 1-D histogram")
        return JointHistogram(counts=self.counts.sum(axis=axis), total=self.total)


def joint_histogram(series: Sequence[DiscreteSeries]) -> JointHistogram:
    """Count co-occurrences of 1-3 equal-length discrete series."""
    if not 1 <= len(series) <= 3:
        raise DataError(f"expected 1-3 series, got {len(series)}")
    n = len(series[0])
    if any(len(s) != n for s in series):
        raise DataError("series lengths differ")
    if len(series) == 1:
        counts = np.bincount(series[0].symbols, minlength=series[0].alphabet)
        counts = counts.astype(np.int64, copy=False)
    else:
        # three series count as the pair of the first two against the third
        x = series[0] if len(series) == 2 else pair_series(series[0], series[1])
        z = series[-1]
        counts = accel.hist2d(x.symbols, z.symbols, x.alphabet, z.alphabet)
        counts = counts.reshape([s.alphabet for s in series])
    return JointHistogram(counts=counts, total=n)


def _entropy_counts(counts: np.ndarray, total: int) -> float:
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def entropy(hist: JointHistogram) -> float:
    """Shannon entropy of the (joint) distribution, in bits."""
    return _entropy_counts(hist.counts.ravel(), hist.total)


def mutual_information(x: DiscreteSeries, y: DiscreteSeries) -> float:
    """MI(X;Y) = H(X) + H(Y) - H(X,Y), from the empirical joint."""
    if len(x) != len(y):
        raise DataError("series lengths differ")
    joint = accel.hist2d(x.symbols, y.symbols, x.alphabet, y.alphabet)
    n = len(x)
    return (
        _entropy_counts(joint.sum(axis=1), n)
        + _entropy_counts(joint.sum(axis=0), n)
        - _entropy_counts(joint.ravel(), n)
    )


def pair_series(x: DiscreteSeries, y: DiscreteSeries) -> DiscreteSeries:
    """Join two series into one Cartesian-product variable.

    Symbols combine as ``x * A_y + y``, fixed here so that independent
    implementations reproduce results bit-exactly.
    """
    if len(x) != len(y):
        raise DataError("series lengths differ")
    return DiscreteSeries(
        symbols=x.symbols * y.alphabet + y.symbols,
        alphabet=x.alphabet * y.alphabet,
    )


def interaction_information(
    a: DiscreteSeries, b: DiscreteSeries, c: DiscreteSeries
) -> float:
    """Three-way interaction: I((A,B);C) - I(A;C) - I(B;C), in bits.

    Positive values mean synergy (the pair carries information about the
    third variable that neither member carries alone), negative values mean
    redundancy, zero means independence in context. The quantity is symmetric
    under every permutation of its arguments.
    """
    if not len(a) == len(b) == len(c):
        raise DataError("series lengths differ")
    ab = pair_series(a, b)
    return (
        mutual_information(ab, c)
        - mutual_information(a, c)
        - mutual_information(b, c)
    )
