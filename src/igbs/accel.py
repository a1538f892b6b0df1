"""Numeric inner loops: joint-histogram accumulation, RBF kernel matrices,
1-NN search and the SMO solver, in plain numpy.

Callers reach these through ``accel.<fn>`` attribute lookups, so a profiler
or a test can swap one out at module level. Every kernel breaks ties toward
the lowest index and is fully deterministic.
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


def nn1_index(train, test):
    out = np.empty(test.shape[0], dtype=np.int64)
    # chunk test rows so the distance block stays small
    step = max(1, 4_000_000 // max(train.shape[0] * train.shape[1], 1))
    for s in range(0, test.shape[0], step):
        block = test[s : s + step]
        d = ((block[:, None, :] - train[None, :, :]) ** 2).sum(axis=2)
        out[s : s + step] = d.argmin(axis=1)
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
