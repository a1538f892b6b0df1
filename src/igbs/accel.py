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
"""

from __future__ import annotations

import numpy as np


def hist2d(x, y, ax, ay):
    flat = np.bincount(x * ay + y, minlength=ax * ay)
    return flat.reshape(ax, ay).astype(np.int64, copy=False)


def rbf_kernel(a, b, gamma):
    # ||a-b||^2 = |a|^2 + |b|^2 - 2 a.b ; clip guards tiny negative round-off
    sq = (
        np.einsum("ij,ij->i", a, a)[:, None]
        + np.einsum("ij,ij->i", b, b)[None, :]
        - 2.0 * (a @ b.T)
    )
    np.clip(sq, 0.0, None, out=sq)
    return np.exp(-gamma * sq)


# distance entries (query rows x train rows) screened per matrix product
NN1_BLOCK = 1_000_000


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
    step = max(1, NN1_BLOCK // max(n, 1))
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


def smo_solve(kernel, y, c, tol, max_steps):
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
