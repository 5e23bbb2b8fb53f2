"""Truncated Taylor-series (jet) arithmetic, batched along axis 0.

A jet of order K at a point x is the array ``c`` of Taylor coefficients
``f(x + e) = sum_j c[j] e**j + O(e**(K+1))``.  Axis 0 holds the K + 1
coefficients; any trailing axes index independent points, so one ``(K+1,)``
jet and a ``(K+1, n)`` batch of jets at n nodes go through the same code.
The mollifier machinery in :mod:`sympwave.profiles` builds exact derivatives
of ``exp(-1/s)``-type transitions out of these primitives, which keeps every
derivative closed form up to float rounding (no symbolic algebra, no finite
differences).
"""

from __future__ import annotations

from math import comb, factorial

import numpy as np


def _column(v: np.ndarray, like: np.ndarray) -> np.ndarray:
    """View of the 1-D ``v`` broadcasting along axis 0 of ``like``."""
    return v.reshape((-1,) + (1,) * (like.ndim - 1))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum(a * b) over axis 0, for each point.

    Each point's two coefficient vectors are made contiguous and go through
    matmul's dot kernel, the one ``np.dot`` uses on a single jet, so a batch
    rounds exactly as the same jets would one at a time.  Axis 0 moves last
    by one transpose, ``.T`` for a 2-D batch.
    """
    a = np.ascontiguousarray(a.transpose(*range(1, a.ndim), 0)[..., None, :])
    b = np.ascontiguousarray(b.transpose(*range(1, b.ndim), 0)[..., :, None])
    return (a @ b)[..., 0, 0]


def jet_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    order = len(a) - 1
    c = np.zeros_like(a + b)
    for k in range(order + 1):
        c[k] = _dot(a[: k + 1], b[k::-1])
    return c


def jet_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Jet of a/b; requires b[0] != 0."""
    order = len(a) - 1
    c = np.zeros_like(a + b)
    for k in range(order + 1):
        acc = a[k]
        if k:
            acc = acc - _dot(b[1 : k + 1], c[k - 1 :: -1])
        c[k] = acc / b[0]
    return c


def jet_exp(a: np.ndarray) -> np.ndarray:
    """Jet of exp(a) via the standard b' = a' b recurrence."""
    order = len(a) - 1
    b = np.zeros_like(a)
    b[0] = np.exp(a[0])
    for n in range(1, order + 1):
        j = _column(np.arange(1, n + 1), a)
        b[n] = _dot(j * a[1 : n + 1], b[n - 1 :: -1]) / n
    return b


def jet_neg_recip(x, order: int) -> np.ndarray:
    """Jet of s -> -1/s at x (x != 0)."""
    x = np.asarray(x, dtype=float)
    j = np.arange(order + 1).reshape((-1,) + (1,) * x.ndim)
    return -((-1.0) ** j) / x ** (j + 1)


def jet_powi(x, p: int, order: int) -> np.ndarray:
    """Jet of s -> s**p at x, for integer p >= 1."""
    x = np.asarray(x, dtype=float)
    c = np.zeros((order + 1,) + x.shape)
    for j in range(min(order, p) + 1):
        c[j] = comb(p, j) * x ** (p - j)
    return c


def jet_compose(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Jet of f(g(s)) given the jet of f at g(x) and the jet of g at x."""
    order = len(outer) - 1
    shifted = inner.copy()
    shifted[0] = 0.0
    result = np.zeros_like(outer + inner)
    result[0] = outer[order]
    for j in range(order - 1, -1, -1):
        result = jet_mul(result, shifted)
        result[0] += outer[j]
    return result


def jet_derivatives(jet: np.ndarray) -> np.ndarray:
    """Convert Taylor coefficients to derivative values f^(k) = k! c_k."""
    fac = np.array([factorial(k) for k in range(len(jet))], dtype=float)
    return jet * _column(fac, jet)
