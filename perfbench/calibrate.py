"""Host-speed calibration of op times.

On a shared 2-vCPU Intel Xeon VM, host speed drifted by up to 1.8x over
tens of seconds: every op of a 36-second run, and even the fastest
repetition of each, could be 50% slower than in the run before. No
statistic over one run removes that. So a fixed kernel that never calls
the program is timed right before every op (and once after the last); each
op's time is scaled by ``REF_S`` over the median of the kernel times around
it. The scaled times are seconds at the reference speed, the speed at which
the kernel takes ``REF_S``; raw times are kept in the run record.

The kernel mixes the kinds of work the program does: Python-level dispatch,
per-cell formatting of numpy scalars, small numpy calls and a sparse LU
solve. Across ten 36-second simulate_cli runs whose raw times spread by 30%
(quartile distance over median), the scaled ones spread by 3-7%.
"""
from __future__ import annotations

import time
from statistics import median

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# the kernel's time at the reference speed; it only sets the unit
REF_S = 0.005


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.12g}"


class Calibrator:
    def __init__(self) -> None:
        n = 4000
        lhs = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(n, n), format="csc")
        self._lu = spla.splu(lhs)
        self._rhs = np.linspace(0.0, 1.0, n)
        self._vec = np.array([0.5, -1.0, 2.0])
        self._cubic = np.array([1.0, 3.0, 2.5, 0.5])
        self._table = np.linspace(0.0, 1.0, 800).reshape(200, 4)

    def _kernel(self) -> float:
        acc = 0.0
        vec = self._vec
        for i in range(300):
            x = 1.0 + i * 1e-3
            acc += float(vec @ (x * vec))
        # per-cell formatting of numpy scalars, as CSV writers do
        lines = [",".join(_cell(v) for v in row) for row in self._table]
        acc += len("\n".join(lines))
        for _ in range(60):
            acc += float(np.roots(self._cubic)[0].real)
        for _ in range(12):
            acc += float(self._lu.solve(self._rhs)[0])
        return acc

    def sample(self) -> float:
        """Seconds one run of the kernel takes now; an untimed run first
        refills the caches and heap pages the last op displaced."""
        self._kernel()
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0


def scale(raw: list, kernel: list) -> list:
    """Op times at the reference speed. ``kernel[i]`` and ``kernel[i + 1]``
    were timed just before and just after op ``i``; the speed for op ``i``
    is the median of the six kernel times nearest to it, so that one noisy
    kernel time does not move one op."""
    out = []
    for i, t in enumerate(raw):
        near = kernel[max(0, i - 2): i + 4]
        out.append(t * REF_S / median(near))
    return out
