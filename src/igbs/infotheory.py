"""Plug-in (histogram) estimators for entropy, mutual information and
three-way interaction information.

All quantities are in bits (base-2 logs). Probabilities are empirical cell
frequencies with no bias correction, so every selection criterion compares
like with like and results are deterministic. Empty cells are skipped
(0 log 0 := 0).

``joint_entropies`` counts one series against a stack of rows, block by
block, and ``entropy_rows`` takes the entropy of every row of a block at
once; each row gets the counts of ``accel.hist2d`` and the bits the one-row
estimator gives (see ``entropy_rows``).
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from . import accel
from .datamodel import DiscreteSeries
from .errors import DataError


def entropy_rows(counts: np.ndarray, total: int) -> np.ndarray:
    """Entropy, in bits, of every row of a count block of shape (rows, ...).

    Row r gets the bits of ``_entropy_counts(counts[r], total)``, its cells
    read in C order of the (possibly transposed) view: ``p log2 p`` is
    elementwise, and each row sums its own contiguous segment of the
    nonzero terms, so numpy's pairwise summation sees the same values in
    the same order as on the row alone.
    """
    nonzero = counts > 0
    p = counts[nonzero] / total
    terms = p * np.log2(p)
    out = np.empty(len(counts))
    end = 0
    for r, row in enumerate(nonzero):
        start, end = end, end + np.count_nonzero(row)
        out[r] = -terms[start:end].sum()
    return out


def _entropy_counts(counts: np.ndarray, total: int) -> float:
    return float(entropy_rows(counts[None], total)[0])


def entropy(*series: DiscreteSeries) -> float:
    """Joint Shannon entropy of one or more equal-length series, in bits."""
    if not series:
        raise DataError("entropy needs at least one series")
    joint = reduce(pair_series, series)
    return _entropy_counts(np.bincount(joint.symbols, minlength=joint.alphabet), len(joint))


def joint_entropies(x: DiscreteSeries, rows, alphabet: int, *forms) -> np.ndarray:
    """Joint entropies of ``x`` with each of ``rows`` (symbol arrays over
    ``alphabet``), one array per form.

    The rows are counted in blocks of at most ``accel.CACHE_BLOCK`` symbols
    and ``accel.CACHE_BLOCK`` cells, or one row, each by one ``np.bincount``
    of the codes ``r*cells + x*alphabet + row`` for the block's r-th row,
    with ``cells = x.alphabet * alphabet``. Codes are int64 whatever the
    symbols' dtype: ``x * alphabet`` would wrap in uint8. Each block's
    (b, x.alphabet, alphabet) int64 counts, row r equal to
    ``accel.hist2d(x, row, x.alphabet, alphabet)``, are passed to every
    ``form``, which returns (b, ...) counts (such as a transpose or a sum
    over an axis), and the entropies of each form's rows are taken before
    the next block is counted. Returns an array of shape
    (len(forms), len(rows)).
    """
    cells = x.alphabet * alphabet
    step = max(1, accel.CACHE_BLOCK // max(len(x), cells))
    offsets = np.arange(min(step, len(rows))) * cells
    base = np.asarray(x.symbols, dtype=np.int64) * alphabet + offsets[:, None]
    out = np.empty((len(forms), len(rows)))
    for s in range(0, len(rows), step):
        block = rows[s : s + step]
        codes = np.concatenate(block, dtype=np.int64).reshape(len(block), -1)
        codes += base[: len(block)]
        flat = np.bincount(codes.ravel(), minlength=len(block) * cells)
        counts = flat.reshape(len(block), x.alphabet, alphabet).astype(np.int64, copy=False)
        for row_out, form in zip(out, forms):
            row_out[s : s + len(block)] = entropy_rows(form(counts), len(x))
    return out


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
    implementations reproduce results bit-exactly, and formed in int64,
    since they overflow narrow symbols such as uint8 band rows.
    """
    if len(x) != len(y):
        raise DataError("series lengths differ")
    return DiscreteSeries(
        symbols=np.asarray(x.symbols, dtype=np.int64) * y.alphabet + y.symbols,
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
