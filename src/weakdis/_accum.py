"""Deterministic accumulation helpers and the one quadrature rule.

Every reduction that crosses a chunk or thread boundary goes through
``math.fsum`` (exact for float64 inputs), so results are bit-identical for
any chunking and any worker count.  Inner vectorized reductions use numpy's
pairwise summation on fixed-shape arrays, which is deterministic for a fixed
shape and axis order.
"""

import math
from functools import lru_cache

import numpy as np

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def fsum_r(values) -> float:
    arr = np.asarray(values, dtype=float)
    return math.fsum(arr.ravel().tolist())


def fsum_c(values) -> complex:
    arr = np.asarray(values, dtype=complex)
    flat = arr.ravel()
    return complex(math.fsum(flat.real.tolist()), math.fsum(flat.imag.tolist()))


def fsum_rows(values, divisor) -> np.ndarray:
    """Every row's (last axis) fsum_c(row) / divisor, in one tolist."""
    flat = np.asarray(values, dtype=complex).reshape(-1, np.shape(values)[-1])
    return np.array([complex(math.fsum(re), math.fsum(im)) / divisor for re, im
                     in zip(flat.real.tolist(), flat.imag.tolist())],
                    dtype=complex).reshape(np.shape(values)[:-1])


def chunk_ranges(n, size):
    """Split range(n) into consecutive (start, stop) chunks of fixed size."""
    size = max(1, int(size))
    return [(i, min(i + size, n)) for i in range(0, n, size)]


def run_ordered(tasks, threads):
    """Run a list of no-arg callables, returning results in task order.

    With threads <= 1 this is a plain loop; otherwise a thread pool is used.
    Tasks must write only to disjoint state (or be pure), so the schedule
    cannot affect results.
    """
    if threads <= 1 or len(tasks) <= 1:
        return [t() for t in tasks]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as ex:
        futures = [ex.submit(t) for t in tasks]
        return [f.result() for f in futures]


def gl_rule(edges):
    """Nodes and weights of the 16-point Gauss-Legendre rule on every panel
    [edges[i], edges[i+1]]."""
    e = np.asarray(edges, dtype=float)
    mid, half = 0.5 * (e[:-1] + e[1:]), 0.5 * (e[1:] - e[:-1])
    return ((mid[:, None] + half[:, None] * _GL_X).ravel(),
            (half[:, None] * _GL_W).ravel())


@lru_cache(maxsize=8)
def gl_nodes(edges: tuple):
    """``gl_rule`` on a fixed mesh that repeats; cached, read-only."""
    x, w = gl_rule(edges)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gl_integrate(f, edges, rtol):
    """Integral of f over [edges[0], edges[-1]] by ``gl_rule``, every panel
    halved until two successive rules agree within rtol * max(1, int |f|).

    f maps the node array to values of shape (..., nodes).  Halving finds
    neither a kink off the edges nor a peak that no node sees, so callers
    put edges on the kinks and grade them toward the peaks.
    """
    edges, prev = np.asarray(edges, dtype=float), None
    while edges.size <= 1 << 16:  # past 2^20 nodes, a kink is off the edges
        x, w = gl_rule(edges)
        fx = f(x)
        cur = np.sum(fx * w, axis=-1)
        if not np.all(np.isfinite(cur)):
            raise ValueError("integrand is not finite")
        if prev is not None and np.max(np.abs(cur - prev)) <= rtol * max(
                1.0, float(np.max(np.sum(np.abs(fx) * w, axis=-1)))):
            return cur
        prev = cur
        edges = np.insert(edges, np.arange(1, edges.size),
                          0.5 * (edges[:-1] + edges[1:]))
    raise RuntimeError("quadrature did not converge")
