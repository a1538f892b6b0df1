"""Numeric inner loops: joint-histogram accumulation, RBF kernel matrices,
1-NN search and the SMO solver, in plain numpy.

Callers reach these through ``accel.<fn>`` attribute lookups, so a profiler
or a test can swap one out at module level. Every kernel is fully
deterministic. SMO's working-set choice breaks ties toward the lowest
index. 1-NN takes the lowest index among the train rows whose
floating-point distance ``((q - t)**2).sum()`` is smallest; at an exact
real-valued tie that rounding can favour a higher index (see the README's
determinism paragraph).

``nn1_index`` screens with one matrix product per block of query rows and
computes that exact distance expression only for the few train rows the
screen cannot rule out, so its answer is the one the plain broadcast gives.
``rbf_kernel`` forms everything after the matrix product in place, and
``smo_solve`` takes a pair's features, not a kernel: every kernel row it
reads is a row of ``rbf_kernel``, formed on the step that first reads it,
so the rows it never reads cost nothing. It tracks its working set in two
vectors whose entries change only at the two indices a step moves. Both
reproduce, bit for bit, the whole-array forms kept in ``tests/brute.py``:
the same kernel values, and the same duals, bias, step count and gap on
the kernel stacked from those rows. ``hist2d_rows`` counts one series
against a stack of rows with one ``np.bincount`` per block of MI_BLOCK
symbols; ``hist2d`` is its one-row case, and integer counts equal the
one-pair counts exactly.
"""

from __future__ import annotations

import numpy as np


# symbols counted, and histogram cells filled, per np.bincount call
MI_BLOCK = 65_536


def hist2d_rows(x, rows, ax, ay):
    """Joint counts of ``x`` against each of ``rows``, block by block.

    Yields one (b, ax, ay) int64 array per block of rows, in order, with
    ``counts[r] == hist2d(x, row, ax, ay)`` for each row of the block. A
    block holds at most MI_BLOCK symbols and MI_BLOCK cells, or one row, and
    is counted by one ``np.bincount`` of the codes ``r*ax*ay + x*ay + row``,
    which take one in-place add per block. Codes are int64 whatever the
    symbols' dtype: ``x * ay`` would wrap in uint8.
    """
    cells = ax * ay
    step = max(1, MI_BLOCK // max(len(x), cells))
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


# kernel entries combined, scaled and exponentiated per row block
RBF_BLOCK = 32_768


def rbf_kernel(a, b, gamma, bb=None):
    """exp(-gamma * max(0, (|a|^2 + |b|^2) - 2 a.b)) for every row pair.

    ``bb`` is ``np.einsum("ij,ij->i", b, b)``, the |b|^2 this forms when it
    is not given; a caller that forms many kernels against one ``b`` passes
    it. ``a @ b.T`` stays one product (numpy hands ``a @ a.T`` to SYRK, whose
    bits differ from GEMM's), and the rest is formed in place in it, one
    row block at a time. Every step works entry by entry, so a row gets the
    same bits whichever block it is formed in.
    """
    aa = np.einsum("ij,ij->i", a, a)
    if bb is None:
        bb = np.einsum("ij,ij->i", b, b)
    out = a @ b.T
    step = max(1, RBF_BLOCK // max(out.shape[1], 1))
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

    Screen: S_t = |t|^2 - 2 q.t from one matrix product per block; it ranks
    train rows like the distance, since d_t = |q - t|^2 = |q|^2 + S_t.
    Refine: every train row with S_t <= min S + slack is a candidate, and
    the candidates' distances are computed with the broadcast expression in
    increasing index order, so the first argmin among them is bit for bit
    the first argmin over all train rows, provided the winner t* is a
    candidate. The slack guarantees it. With u = 2^-53, g_n = n u / (1 - n u)
    and R = |q| + max|t| (so every d_t <= R^2):
    - broadcast: each term (q_i - t_i)^2 carries three roundings and any
      summation order adds g_(k-1), so |D_t - d_t| <= g_(k+2) d_t;
    - screen: |t|^2 and q.t are k-term dot products in any order, with or
      without FMA, within g_k |t|^2 and g_k |q||t|; the final subtraction
      adds u, so |S'_t - S_t| <= g_(k+1) R^2;
    - with m the screen's argmin and D_t* <= D_m:
      S'_t* - S'_m <= d_t* - d_m + 2 g_(k+1) R^2
                   <= g_(k+2) (d_t* + d_m) + 2 g_(k+1) R^2 < 4 g_(k+2) R^2.
    The slack 4 g_(k+4) R^2 leaves about 8 u R^2 for the rounding of R, of
    the slack itself and of min S + slack; k * tiny covers the absolute
    error of products that underflow. Where R^2 overflows, the slack and the
    limit are inf or NaN, which the ``~(S > limit)`` test reads as keeping
    every train row, so the refine is then the full broadcast.
    """
    n, k = train.shape
    out = np.empty(test.shape[0], dtype=np.int64)
    tt = np.einsum("ij,ij->i", train, train)
    reach = np.sqrt(tt.max(initial=0.0))
    g = (k + 4) * 2.0**-53 / (1.0 - (k + 4) * 2.0**-53)
    step = max(1, QUERY_BLOCK // max(n, 1))
    for s in range(0, test.shape[0], step):
        block = test[s : s + step]
        screen = block @ train.T
        screen *= -2.0
        screen += tt
        norm = np.sqrt(np.einsum("ij,ij->i", block, block))
        slack = 4.0 * g * (norm + reach) ** 2 + k * np.finfo(np.float64).tiny
        rows, cand = np.nonzero(~(screen > (screen.min(axis=1) + slack)[:, None]))
        d = ((block[rows] - train[cand]) ** 2).sum(axis=1)
        # pairs come sorted by row, then by index; a stable sort on distance
        # within each row puts the lowest-index nearest candidate first
        first = np.lexsort((d, rows))[rows.searchsorted(np.arange(block.shape[0]))]
        out[s : s + step] = cand[first]
    return out


def smo_solve(x, y, gamma, c, tol, max_steps):
    """Maximal-violating-pair SMO on the RBF kernel of the rows of ``x``.

    Returns the duals, the bias, the step count and the final KKT gap. Row
    t of the kernel is ``rbf_kernel(x[t : t + 1], x, gamma)[0]``, formed the
    first time the working set picks t and kept for the rest of the solve;
    the |x|^2 every row needs is formed once per solve and passed in. A
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
                rows[t] = rbf_kernel(x[t : t + 1], x, gamma, xx)[0]
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
