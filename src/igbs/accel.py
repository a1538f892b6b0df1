"""Numeric inner loops: joint-histogram accumulation, RBF kernel matrices,
1-NN search and the SMO solver, in plain numpy.

Callers reach these through ``accel.<fn>`` attribute lookups, so a profiler
or a test can swap one out at module level. Every kernel is fully
deterministic. SMO's working-set choice breaks ties toward the lowest
index. 1-NN takes the lowest index among the train rows whose
floating-point distance ``((q - t)**2).sum()`` is smallest; at an exact
real-valued tie that rounding can favour a higher index (see the README's
determinism paragraph).

``nn1_index`` screens with one float32 matrix product per block of query
rows; where the screen leaves a query more than one train row it cannot
rule out, it computes that exact distance expression for those rows only,
so its answer is the one the plain broadcast gives. ``hist2d_rows`` (one
series against a stack of rows) and ``rbf_kernel`` work in passes of at
most CACHE_BLOCK entries, and ``rbf_kernel`` takes both operands' row norms
from its caller. ``smo_solve`` forms only the kernel rows it reads, each
with one ``rbf_kernel``, and tracks its working set in two vectors whose entries
change only at the two indices a step moves. Integer counts equal the
one-pair counts exactly, and the kernel values and the solver's duals,
bias, step count and gap are bit for bit those of the whole-array forms
kept in ``tests/brute.py``.
"""

from __future__ import annotations

import numpy as np


# entries per in-place pass: np.bincount codes and cells, or rbf_kernel entries
CACHE_BLOCK = 65_536


def hist2d_rows(x, rows, ax, ay):
    """Joint counts of ``x`` against each of ``rows``, block by block.

    Yields one (b, ax, ay) int64 array per block of rows, in order, with
    ``counts[r] == hist2d(x, row, ax, ay)`` for each row of the block. A
    block holds at most CACHE_BLOCK symbols and CACHE_BLOCK cells, or one
    row, and is counted by one ``np.bincount`` of the codes
    ``r*ax*ay + x*ay + row``, which take one in-place add per block. Codes
    are int64 whatever the symbols' dtype: ``x * ay`` would wrap in uint8.
    """
    cells = ax * ay
    step = max(1, CACHE_BLOCK // max(len(x), cells))
    offsets = np.arange(min(step, len(rows))) * cells
    base = np.asarray(x, dtype=np.int64) * ay + offsets[:, None]
    for s in range(0, len(rows), step):
        block = rows[s : s + step]
        codes = np.concatenate(block, dtype=np.int64).reshape(len(block), -1)
        codes += base[: len(block)]
        flat = np.bincount(codes.ravel(), minlength=len(block) * cells)
        yield flat.reshape(len(block), ax, ay).astype(np.int64, copy=False)


def hist2d(x, y, ax, ay):
    """Joint counts of two symbol arrays, an (ax, ay) int64 array."""
    (counts,) = hist2d_rows(x, [y], ax, ay)
    return counts[0]


def rbf_kernel(a, b, gamma, aa, bb):
    """exp(-gamma * max(0, (|a|^2 + |b|^2) - 2 a.b)) for every row pair.

    ``aa`` and ``bb``, |a|^2 and |b|^2, come from the caller, which forms
    each once and slices it: a row's norm has the same bits alone or in a
    whole array. ``a @ b.T`` stays one product (numpy hands ``a @ a.T`` to
    SYRK, whose bits differ from GEMM's), and the rest is formed in place in
    it, at most CACHE_BLOCK entries (or one row) at a time. Every step works
    entry by entry, so a row gets the same bits whichever block it is formed in.
    """
    out = a @ b.T
    step = max(1, CACHE_BLOCK // max(out.shape[1], 1))
    for s in range(0, out.shape[0], step):
        block = out[s : s + step]
        block *= -2.0  # exact, so the norms plus block are |a|^2 + |b|^2 - 2 a.b
        block += aa[s : s + step, None] + bb
        np.maximum(block, 0.0, out=block)  # tiny negative round-off
        with np.errstate(over="ignore"):  # an overflowing gamma * d gives exp(-inf) = 0
            block *= -gamma
        np.exp(block, out=block)
    return out


# matrix entries (query rows x train or support rows) formed per block of
# query rows, by the 1-NN screen and by SVM prediction's kernel
QUERY_BLOCK = 1_000_000


def nn1_index(train, test):
    """First argmin over train rows of ``((q - t)**2).sum()`` for every
    query row q of ``test``; inputs are finite (n, k) and (m, k) arrays.

    Screen: S_t = |t|^2 - 2 q.t, for a block of query rows at once, from
    one float32 matrix product of the rows [q, 1] against the columns
    [-2 t; |t|^2], formed from the train rows once; it ranks train rows like
    the distance, since d_t = |q - t|^2 = |q|^2 + S_t. Every train row with
    S_t <= min S + slack is a candidate, and the screen's first argmin is
    one. A query whose second smallest S_t is above the limit has no other
    candidate and takes that argmin; the rest are refined: each takes numpy's
    first argmin of a float64 row of its candidates' broadcast distances and
    +inf elsewhere (a candidate's is +inf only where the limit is inf and all
    rows are candidates, so no filler wins), which is bit for bit the first
    argmin over all train rows if the winner t* is a candidate. The slack
    guarantees it. With u = 2^-24, g_n = n u / (1 - n u), R = |q| + max|t|
    (so every d_t <= R^2) and a = 2^-126, float32's smallest normal:
    - broadcast: |D_t - d_t| <= g'_(k+2) d_t with float64's g', below
      u R^2 / 2;
    - screen: q, -2t and |t|^2 (formed in float64) each round once to
      float32, within u relative or, below a, 2^-150 absolute, and the
      product is a (k+1)-term float32 dot product in any order, with or
      without FMA, so |S'_t - S_t| <= g_(k+3) R^2 + E. E, the error of
      subnormal inputs and of products that underflow, is below
      2 (k + 1)(R + 1) a even where a BLAS flushes them to zero;
    - with m the screen's argmin and D_t* <= D_m:
      S'_t* - S'_m <= d_t* - d_m + 2 g_(k+3) R^2 + 2E < 3 g_(k+4) R^2 + 2E.
    The slack 4 g_(k+4) R^2 + 4 (k + 1)(R + 1) a leaves g_(k+4) R^2 for the
    float64 rounding of R, of the slack and of min S + slack; numpy compares
    the float32 screen with that float64 limit exactly, in float64. Where
    4 R^2 exceeds float32's range, the screen could overflow, and the limit
    is inf: every train row is kept, so the refine is the full broadcast.
    """
    n, k = train.shape
    out = np.empty(test.shape[0], dtype=np.int64)
    tt = np.einsum("ij,ij->i", train, train)
    reach = np.sqrt(tt.max(initial=0.0))
    g = (k + 4) * 2.0**-24 / (1.0 - (k + 4) * 2.0**-24)
    f32 = np.finfo(np.float32)
    # an overflow in float32 shows only in rows whose limit is inf
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.vstack([-2.0 * train.T, tt]).astype(np.float32)
    step = max(1, QUERY_BLOCK // max(n, 1))
    refined = np.empty(step * n)  # one buffer for every block: fresh ones fault their pages in
    for s in range(0, test.shape[0], step):
        block = test[s : s + step]
        rows = np.arange(block.shape[0])
        reach_q = np.sqrt(np.einsum("ij,ij->i", block, block)) + reach
        slack = 4.0 * g * reach_q**2 + 4.0 * (k + 1) * (reach_q + 1.0) * float(f32.tiny)
        query = np.ones((block.shape[0], k + 1), dtype=np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            query[:, :k] = block
            screen = query @ weights
            first = screen.argmin(axis=1)
            low = screen[rows, first]
            limit = np.where(4.0 * reach_q**2 <= float(f32.max), low + slack, np.inf)
            screen[rows, first] = np.inf
            many = np.flatnonzero(~(screen.min(axis=1) > limit))
            screen[rows, first] = low
            pairs, cand = np.nonzero(~(screen[many] > limit[many, None]))
        out[s : s + step] = first
        dense = refined[: many.size * n].reshape(many.size, n)
        dense.fill(np.inf)
        dense[pairs, cand] = ((block[many[pairs]] - train[cand]) ** 2).sum(axis=1)
        out[s + many] = dense.argmin(axis=1)
    return out


def smo_solve(x, y, gamma, c, tol, max_steps):
    """Maximal-violating-pair SMO on the RBF kernel of the rows of ``x``.

    Returns the duals, the bias, the step count and the final KKT gap. Row
    t of the kernel is ``rbf_kernel(x[t : t + 1], x, gamma, xx[t : t + 1], xx)[0]``,
    formed the first time the working set picks t and kept for the rest of
    the solve; ``xx``, the |x|^2 of every row, is formed once per solve. A
    step reads only rows i and j, eta's three entries among them, so a row
    never picked is never formed and no n x n array is held. A NaN gap (a
    kernel that overflowed) ends the solve like a closed one.

    Only alpha_i and alpha_j move per step, so the index sets are kept as
    ``yup`` (y where alpha may move up, else -inf) and ``ylow`` (y where it
    may move down, else +inf) and two entries of each are rewritten per
    step; ``yup - u`` is then the gradient masked to the up set, and an
    empty set shows as an infinite extreme. Scalars are Python floats, which
    round as numpy's float64 scalars do.
    """
    n = y.shape[0]
    rows = {}
    xx = np.einsum("ij,ij->i", x, x)
    ys = y.tolist()
    alpha = [0.0] * n
    pos = y > 0.0
    yup = np.where(pos & (0.0 < c), y, -np.inf)  # every alpha starts at 0
    ylow = np.where(~pos & (0.0 < c), y, np.inf)
    u = np.zeros(n)  # decision values without bias
    gi, gj, step = np.empty(n), np.empty(n), np.empty(n)
    m_val = 0.0
    big_m = 0.0
    it = 0
    while it < max_steps:
        np.subtract(yup, u, out=gi)
        np.subtract(ylow, u, out=gj)
        i = int(gi.argmax())
        j = int(gj.argmin())
        top, bottom = gi.item(i), gj.item(j)
        if top == -np.inf or bottom == np.inf:
            break
        m_val, big_m = top, bottom
        if not m_val - big_m > tol:
            break
        for t in (i, j):
            if t not in rows:
                rows[t] = rbf_kernel(x[t : t + 1], x, gamma, xx[t : t + 1], xx)[0]
        ki, kj = rows[i], rows[j]
        eta = ki.item(i) + kj.item(j) - 2.0 * ki.item(j)
        if eta <= 0.0:
            eta = 1e-12
        # move along alpha_j += d, alpha_i -= y_i y_j d
        yi, yj = ys[i], ys[j]
        d = -yj * (m_val - big_m) / eta
        s = yi * yj
        ai, aj = alpha[i], alpha[j]
        lo = max(-aj, ai - c if s > 0 else -ai)
        hi = min(c - aj, ai if s > 0 else c - ai)
        d = min(max(d, lo), hi)
        if d == 0.0:
            break
        # snap round-off at the box edges so duals stay within [0, C] exactly
        alpha[j] = min(max(aj + d, 0.0), c)
        alpha[i] = min(max(ai - s * d, 0.0), c)
        for t in (j, i):
            a, yt = alpha[t], ys[t]
            yup[t] = yt if (a < c if yt > 0.0 else a > 0.0) else -np.inf
            ylow[t] = yt if (a > 0.0 if yt > 0.0 else a < c) else np.inf
        np.multiply(ki, (-s * d) * yi, out=step)
        np.multiply(kj, d * yj, out=gi)
        step += gi
        u += step
        it += 1
    bias = 0.5 * (m_val + big_m)
    return np.array(alpha), bias, it, m_val - big_m
