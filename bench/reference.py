"""Fixed kernels that measure the machine's speed during a run.

On a shared machine the cores' speed drifts over minutes: in runs a few
minutes apart every end-to-end time moved by 20-30% together, set-up and
analysis (interpreter-bound) as much as training and ranking (BLAS-bound).
No number of units inside one run averages that out. So just before and
after every unit the benchmark times three small kernels, one of each kind
of work the package does, and divides the unit's time by a machine-speed
index: the geometric mean of the three kernel times, each over its
:data:`NOMINAL_S`. The unscaled times and every kernel time are kept in
the run record.

The index is one for every metric, whatever kind of work a phase does
today, so a change that alters that kind (a GEMV loop turned into GEMMs,
a Python loop into numpy) is scaled as its parent is. Kinds do not slow
evenly under contention, though: a memory-bound GEMV slows more than a GEMM
that stays in cache. When contention differs between the runs compared, the
index removes the common drift but not the difference between kinds, so
comparisons should pair runs made close together.

* ``gemm``: a 200-row score GEMM, ``exp`` over it and the backward GEMM,
  like a training batch;
* ``gemv``: matrix-vector products over a table the size of the WN18RR
  entity table, memory-bound like ranking one query;
* ``python``: building a dict of sets from tuples, interpreter-bound like
  the data and analysis layers.

The kernels run in the benchmark process, where they share the program's
BLAS threads, and they never call the package, so no change to the package
moves them. Their buffers are small and stay resident; their size,
:attr:`Reference.resident_bytes`, is taken off the gated peak RSS.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

#: kernel times the index is relative to (about their times on the 2-core
#: machine the benchmark was written on)
NOMINAL_S = {"gemm": 0.045, "gemv": 0.04, "python": 0.07}
#: entity rows of the GEMM kernel, few enough that its buffers stay small
#: (a 200 x 4,096 score matrix is 6.5 MB)
GEMM_ROWS = 4096


def speed_index(times: dict[str, float]) -> float:
    """Geometric mean of the kernel times over their nominal times."""
    return math.exp(sum(math.log(times[kind] / NOMINAL_S[kind]) for kind in NOMINAL_S) / len(NOMINAL_S))


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._queries = rng.normal(0.0, 0.3, size=(200, 32))
        self._table = rng.normal(0.0, 0.3, size=(40943, 32))
        self._rows_t = np.ascontiguousarray(self._table[:GEMM_ROWS].T)
        self._scores = np.zeros((200, GEMM_ROWS))
        self._back = np.zeros((200, 32))
        self.samples: dict[str, list[float]] = {kind: [] for kind in NOMINAL_S}

    @property
    def resident_bytes(self) -> int:
        """Bytes of the kernels' buffers, all written at construction."""
        return sum(a.nbytes for a in (self._queries, self._table, self._rows_t, self._scores, self._back))

    def _gemm(self):
        # into buffers kept across calls: fresh ones would add page faults,
        # whose cost swings far more than that of the arithmetic
        for _ in range(12):
            np.matmul(self._queries, self._rows_t, out=self._scores)
            np.exp(self._scores, out=self._scores)
            np.matmul(self._scores, self._table[:GEMM_ROWS], out=self._back)

    def _gemv(self):
        for q in self._queries[:120]:
            self._table @ q

    def _python(self):
        index: dict = {}
        for i in range(90000):
            index.setdefault((i, i % 11), set()).add(i)

    def measure(self) -> dict[str, float]:
        """Time each kernel once; returns and records seconds per kind."""
        # without the collector, whose passes cost more the more objects the
        # program holds, the kernels' times depend on the machine alone
        gc.disable()
        try:
            times = {}
            for kind, kernel in (("gemm", self._gemm), ("gemv", self._gemv), ("python", self._python)):
                t0 = time.perf_counter()
                kernel()
                times[kind] = time.perf_counter() - t0
                self.samples[kind].append(times[kind])
            return times
        finally:
            gc.enable()
