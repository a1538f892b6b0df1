"""Plug-in (histogram) estimators for entropy, mutual information and
three-way interaction information.

All quantities are in bits (base-2 logs). Probabilities are empirical cell
frequencies with no bias correction, so every selection criterion compares
like with like and results are deterministic. Empty cells are skipped
(0 log 0 := 0).
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from . import accel
from .datamodel import DiscreteSeries
from .errors import DataError


def _entropy_counts(counts: np.ndarray, total: int) -> float:
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def entropy(*series: DiscreteSeries) -> float:
    """Joint Shannon entropy of one or more equal-length series, in bits."""
    if not series:
        raise DataError("entropy needs at least one series")
    joint = reduce(pair_series, series)
    return _entropy_counts(np.bincount(joint.symbols, minlength=joint.alphabet), len(joint))


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
