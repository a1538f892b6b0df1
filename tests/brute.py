"""Independent brute-force references used only by the tests.

The estimators first recompute probabilities from scratch with dict-based
tables and the direct textbook sums, deliberately avoiding the package's
histogram/entropy-difference code paths. The one-pair histogram estimators,
the quantize expression and the SVM inner loops further down are the plain
forms the package's stacked and in-place code must match bit for bit.
"""

import math
from collections import Counter

import numpy as np


def prob_table(*seqs):
    n = len(seqs[0])
    return {k: v / n for k, v in Counter(zip(*seqs)).items()}


def entropy_bits(*seqs):
    return -sum(p * math.log2(p) for p in prob_table(*seqs).values())


def mutual_info_bits(x, y):
    pxy = prob_table(x, y)
    px = prob_table(x)
    py = prob_table(y)
    return sum(
        p * math.log2(p / (px[(a,)] * py[(b,)])) for (a, b), p in pxy.items()
    )


def interaction_bits(x, y, z):
    # I(X;Y|Z) - I(X;Y): a different route than the joined-pair form
    pxyz = prob_table(x, y, z)
    pxz = prob_table(x, z)
    pyz = prob_table(y, z)
    pz = prob_table(z)
    cond = sum(
        p * math.log2(pz[(c,)] * p / (pxz[(a, c)] * pyz[(b, c)]))
        for (a, b, c), p in pxyz.items()
    )
    return cond - mutual_info_bits(x, y)


def round_half_up(v):
    return math.floor(v + 0.5)


def estimated_gt(band_rows, selected):
    """Pixel-wise mean of the selected rows, rounded half-up."""
    n = len(band_rows[0])
    return [
        round_half_up(sum(band_rows[b][i] for b in selected) / len(selected))
        for i in range(n)
    ]


def greedy_reference(band_rows, labels, method, k, beta=0.5, threshold=-0.02, lam=1.0):
    """Re-scores every candidate from scratch at every step.

    band_rows: list of per-band symbol lists over the labeled pixels.
    Returns the ordered list of accepted band indices.
    """
    bands = len(band_rows)
    relevance = [mutual_info_bits(band_rows[b], labels) for b in range(bands)]

    def argmax(indices, score):
        best, best_s = None, None
        for i in indices:
            s = score(i)
            if best_s is None or s > best_s:
                best, best_s = i, s
        return best

    if method == "MIM":
        order = sorted(range(bands), key=lambda b: (-relevance[b], b))
        return order[:k]

    first = argmax(range(bands), lambda b: relevance[b])
    selected = [first]
    remaining = [b for b in range(bands) if b != first]

    if method == "MIBF":
        order = sorted(remaining, key=lambda b: (-relevance[b], b))
        for cand in order:
            if len(selected) >= k:
                break
            before = mutual_info_bits(estimated_gt(band_rows, selected), labels)
            after = mutual_info_bits(
                estimated_gt(band_rows, selected + [cand]), labels
            )
            if after - before > threshold:
                selected.append(cand)
        return selected

    while len(selected) < k and remaining:
        if method == "MIFS":
            def score(c):
                red = sum(mutual_info_bits(band_rows[c], band_rows[s]) for s in selected)
                return relevance[c] - beta * red
        elif method == "MRMR":
            def score(c):
                red = sum(mutual_info_bits(band_rows[c], band_rows[s]) for s in selected)
                return relevance[c] - red / len(selected)
        elif method == "IGBS":
            est = estimated_gt(band_rows, selected)

            def score(c):
                gain = interaction_bits(labels, est, band_rows[c])
                return relevance[c] + lam * gain / len(selected)
        else:
            raise ValueError(method)
        pick = argmax(remaining, score)
        selected.append(pick)
        remaining.remove(pick)
    return selected


# the one-pair count and estimators the stacked count and the row entropies
# replace, kept verbatim except that hist2d widens its inputs to int64


def hist2d(x, y, ax, ay):
    # widened first: x * ay wraps in uint8
    x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
    flat = np.bincount(x * ay + y, minlength=ax * ay)
    return flat.reshape(ax, ay).astype(np.int64, copy=False)


def entropy_counts(counts, total):
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def mutual_information(x, y):
    """MI of two DiscreteSeries; the package's estimator before the stacked
    count, verbatim."""
    joint = hist2d(x.symbols, y.symbols, x.alphabet, y.alphabet)
    n = len(x)
    return (
        entropy_counts(joint.sum(axis=1), n)
        + entropy_counts(joint.sum(axis=0), n)
        - entropy_counts(joint.ravel(), n)
    )


def quantize(values, levels):
    """quantize_cube's expression before it went in place, verbatim."""
    lo = values.min(axis=(1, 2), keepdims=True)
    hi = values.max(axis=(1, 2), keepdims=True)
    span = hi - lo
    span = np.where(span == 0, 1.0, span)
    scaled = (values - lo) * ((levels - 1) / span)
    q = np.floor(scaled + 0.5).astype(np.int64)
    np.clip(q, 0, levels - 1, out=q)
    return q


def greedy_scores(series, labels, matrix, levels, method, k, beta=0.5, threshold=-0.02,
                  lam=1.0):
    """(selected, step_scores) of the greedy loop with one
    ``mutual_information`` call per (candidate, term), as the package scored
    before the stacked count; ``series`` are the band DiscreteSeries and
    ``labels`` the class-rank series of the labeled pixels."""
    from igbs.datamodel import DiscreteSeries

    def estimate(bands):
        mean = matrix[list(bands)].sum(axis=0) / len(bands)
        return DiscreteSeries(symbols=np.floor(mean + 0.5).astype(np.int64), alphabet=levels)

    def argmax(indices, score):
        best, best_s = None, None
        for i in indices:
            s = score(i)
            if best_s is None or s > best_s:
                best, best_s = i, s
        return best, best_s

    relevance = [mutual_information(s, labels) for s in series]
    first, first_score = argmax(range(len(series)), lambda c: relevance[c])
    selected, remaining = [first], [b for b in range(len(series)) if b != first]
    scores = [float(first_score)]
    if method == "MIBF":
        current = relevance[first]
        for cand in sorted(remaining, key=lambda b: (-relevance[b], b)):
            if len(selected) >= k:
                break
            trial = mutual_information(estimate(selected + [cand]), labels)
            gain = trial - current
            if gain > threshold:
                selected.append(cand)
                current = trial
                scores.append(float(gain))
        return selected, scores
    while len(selected) < k and remaining:
        if method == "IGBS":
            est = estimate(selected)
            pair = DiscreteSeries(symbols=labels.symbols * est.alphabet + est.symbols,
                                  alphabet=labels.alphabet * est.alphabet)

            def score(c):
                gain = (mutual_information(pair, series[c]) - relevance[c]
                        - mutual_information(est, series[c]))
                return relevance[c] + lam * gain / len(selected)
        elif method == "MIM":
            def score(c):
                return relevance[c]
        else:
            def score(c):
                red = sum(mutual_information(series[c], series[s]) for s in selected)
                if method == "MIFS":
                    return relevance[c] - beta * red
                return relevance[c] - red / len(selected)
        pick, pick_score = argmax(remaining, score)
        selected.append(pick)
        remaining.remove(pick)
        scores.append(float(pick_score))
    return selected, scores


def rbf_kernel(a, b, gamma):
    # ||a-b||^2 = |a|^2 + |b|^2 - 2 a.b ; clip guards tiny negative round-off
    sq = (
        np.einsum("ij,ij->i", a, a)[:, None]
        + np.einsum("ij,ij->i", b, b)[None, :]
        - 2.0 * (a @ b.T)
    )
    np.clip(sq, 0.0, None, out=sq)
    return np.exp(-gamma * sq)


def rbf_rows(x, gamma):
    """The kernel smo_solve reads: the one-row kernel of each row of ``x``
    against all of ``x``, stacked."""
    return np.vstack([rbf_kernel(x[t : t + 1], x, gamma) for t in range(x.shape[0])])


def smo_solve(kernel, y, c, tol, max_steps):
    """Maximal-violating-pair SMO that rebuilds the gradient and both index
    sets from scratch on every step."""
    n = y.shape[0]
    alpha = np.zeros(n)
    u = np.zeros(n)  # decision values without bias
    pos = y > 0.0
    m_val = 0.0
    big_m = 0.0
    it = 0
    while it < max_steps:
        g = y - u
        in_up = np.where(pos, alpha < c, alpha > 0.0)
        in_low = np.where(pos, alpha > 0.0, alpha < c)
        if not in_up.any() or not in_low.any():
            break
        gi = np.where(in_up, g, -np.inf)
        gj = np.where(in_low, g, np.inf)
        i = int(np.argmax(gi))
        j = int(np.argmin(gj))
        m_val = gi[i]
        big_m = gj[j]
        if m_val - big_m <= tol:
            break
        eta = kernel[i, i] + kernel[j, j] - 2.0 * kernel[i, j]
        if eta <= 0.0:
            eta = 1e-12
        # move along alpha_j += d, alpha_i -= y_i y_j d
        d = -y[j] * (m_val - big_m) / eta
        s = y[i] * y[j]
        lo = max(-alpha[j], alpha[i] - c if s > 0 else -alpha[i])
        hi = min(c - alpha[j], alpha[i] if s > 0 else c - alpha[i])
        d = min(max(d, lo), hi)
        if d == 0.0:
            break
        alpha[j] += d
        alpha[i] -= s * d
        # snap round-off at the box edges so duals stay within [0, C] exactly
        alpha[j] = min(max(alpha[j], 0.0), c)
        alpha[i] = min(max(alpha[i], 0.0), c)
        u += (-s * d) * y[i] * kernel[i] + d * y[j] * kernel[j]
        it += 1
    bias = 0.5 * (m_val + big_m)
    return alpha, bias, it, m_val - big_m
