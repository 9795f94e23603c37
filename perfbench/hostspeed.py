"""Fixed reference kernels that time the host, not the program.

On a shared 2-vCPU machine the same code runs at speeds up to 1.7x
apart in fresh processes a few minutes apart, and within one process
the host can flip between a fast and a slow state every few seconds.
The reference kernels are timed in the measuring process between every
two measured operations.  An operation's time at nominal speed is its
wall time divided by the median slowdown of the kernel samples taken
within WINDOW_S of it (`HostSpeed.nominal`).

The step probes use the pure-Python loop and the small product
(STEP_KERNELS).  Each workload names the kernels that stand for its
command's bottleneck (`Workload.chunk_kernels`): the same two for
interpreter-bound work, the stream for memory-bound work.  No change to
orthocd can alter the kernels' speed: they call no orthocd code, the
numpy reduction is single-threaded, and the product is below
OpenBLAS's threading threshold (m*n*k = 48^3 < 4 * 65536), so neither
the program's thread policy nor its imports reach them.
"""

from __future__ import annotations

import math
import statistics
import time

# nominal seconds per kernel: fast-state medians on the reference
# machine (README); a host at nominal speed has a slowdown of 1.0
NOMINAL_S = {"python": 0.0070, "gemm": 0.0030, "stream": 0.0180}

WINDOW_S = 1.0   # an operation's host speed: kernel samples within this of it
STEP_KERNELS = ("python", "gemm")   # for the step probes of every workload
PYTHON_REPS = 80_000
GEMM_N, GEMM_REPS = 48, 500
STREAM_BYTES = 128 * 2**20   # above the 105 MiB last-level cache


def python_kernel() -> float:
    """Seconds for a fixed pure-Python integer loop (stdlib only)."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PYTHON_REPS):
        s += i * i % 7
    return time.perf_counter() - t0


class HostSpeed:
    """Samples the reference kernels between measured operations, and
    turns an operation's wall time into its time at nominal speed."""

    def __init__(self, chunk_kernels: tuple[str, ...]) -> None:
        import numpy as np
        unknown = set(chunk_kernels) - set(NOMINAL_S)
        if not chunk_kernels or unknown:
            raise ValueError(f"kernels must be among {sorted(NOMINAL_S)}, got {chunk_kernels}")
        self.chunk_kernels = chunk_kernels
        self._sampled = tuple(dict.fromkeys((*STEP_KERNELS, *chunk_kernels)))
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((GEMM_N, GEMM_N))
        self._b = rng.standard_normal((GEMM_N, GEMM_N))
        self._stream = np.ones(STREAM_BYTES // 8) if "stream" in chunk_kernels else None
        # (perf_counter, {kernel: seconds}) per sample
        self.samples: list[tuple[float, dict[str, float]]] = []

    def _gemm(self) -> float:
        a, b = self._a, self._b
        t0 = time.perf_counter()
        for _ in range(GEMM_REPS):
            a @ b
        return time.perf_counter() - t0

    def _stream_sum(self) -> float:
        t0 = time.perf_counter()
        self._stream.sum()
        return time.perf_counter() - t0

    def sample(self) -> None:
        kernel = {"python": python_kernel, "gemm": self._gemm, "stream": self._stream_sum}
        self.samples.append((time.perf_counter(), {k: kernel[k]() for k in self._sampled}))

    @staticmethod
    def _slowdown(times: dict[str, float], kernels: tuple[str, ...]) -> float:
        """Geometric mean over the kernels of time / nominal time."""
        return math.exp(statistics.fmean(math.log(times[k] / NOMINAL_S[k]) for k in kernels))

    def timed(self, fn, *args) -> tuple[float, float]:
        """Run fn(*args) between two kernel samples; return its
        (start, end) on the perf_counter clock."""
        if not self.samples:
            self.sample()
        t0 = time.perf_counter()
        fn(*args)
        t1 = time.perf_counter()
        self.sample()
        return t0, t1

    def slowdown(self, t0: float, t1: float, kernels: tuple[str, ...],
                 window: float = WINDOW_S) -> float:
        """Median slowdown over `kernels` of the samples taken from
        `window` seconds before t0 to `window` seconds after t1."""
        return statistics.median(self._slowdown(times, kernels) for t, times in self.samples
                                 if t0 - window <= t <= t1 + window)

    def nominal(self, t0: float, t1: float, kernels: tuple[str, ...]) -> float:
        """Seconds from t0 to t1 at nominal host speed."""
        return (t1 - t0) / self.slowdown(t0, t1, kernels)

    def summary(self) -> dict:
        def median_slowdown(kernels):
            return statistics.median(self._slowdown(s, kernels) for _, s in self.samples)
        return {"chunk_kernels": self.chunk_kernels, "step_kernels": STEP_KERNELS,
                "samples": len(self.samples),
                "nominal_s": {k: NOMINAL_S[k] for k in self._sampled},
                "kernel_median_s": {k: statistics.median(s[k] for _, s in self.samples)
                                    for k in self._sampled},
                "chunk_slowdown_median": median_slowdown(self.chunk_kernels),
                "step_slowdown_median": median_slowdown(STEP_KERNELS),
                "python_slowdown_median": median_slowdown(("python",))}
