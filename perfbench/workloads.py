"""The four workloads: which command each runs, at what size, and how
many step probes one round of it times.

One round is one call of the command (a chunk of `iterations` loop
iterations) followed by `probe_samples` samples of each step probe at
the workload's width, each sample a batch of calls that takes a few ms
(one call at d=1024).  A run is a warm-up round, then whole rounds until
its time is up, so every run attempts the same operations in the same
proportions.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]   # cli.main arguments, without --seed/--out
    iterations: int            # loop iterations per command call
    d: int                     # width of W, for the step probes
    task: tuple[int, int, int, int] | None   # copy task (N, K, L, B); None: no RNN
    probe_calls: tuple[int, int, int]  # uniform, greedy, dense steps timed as one sample
    probe_samples: int         # samples of each probe kind per round
    # host-speed kernels for the command's time (hostspeed.py); the step
    # probes always use hostspeed.STEP_KERNELS
    chunk_kernels: tuple[str, ...] = ("python", "gemm")

    def argv(self, seed: int, out: str) -> list[str]:
        return [*self.command, "--iterations", str(self.iterations),
                "--seed", str(seed), "--out", out]

    @property
    def seq_len(self) -> int:
        _, copy_len, lag, _ = self.task
        return lag + 2 * copy_len


_CONVERGENCE = ("convergence", "--schedule", "polynomial", "--alpha0", "1.0",
                "--offset", "1000", "--robbins_monro", "true", "--conv_seeds", "1")

WORKLOADS = {w.name: w for w in (
    Workload("desk-gs", ("train", "--preset", "desk", "--optimizer", "srcd-gs"),
             iterations=40, d=64, task=(9, 5, 100, 32),
             probe_calls=(200, 60, 15), probe_samples=3),
    Workload("paper-u", ("train", "--preset", "paper", "--optimizer", "srcd-u"),
             iterations=1, d=190, task=(9, 10, 1000, 128),
             probe_calls=(200, 10, 2), probe_samples=6,
             chunk_kernels=("stream",)),
    Workload("wide-gs", ("train", "--preset", "custom", "--d", "1024",
                         "--copy_len", "5", "--lag", "10", "--batch", "8",
                         "--optimizer", "srcd-gs"),
             iterations=4, d=1024, task=(9, 5, 10, 8),
             probe_calls=(10, 1, 1), probe_samples=2),
    Workload("converge-d16", _CONVERGENCE,
             iterations=4000, d=16, task=None,
             probe_calls=(300, 250, 150), probe_samples=3),
)}
