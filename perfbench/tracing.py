"""Spans around orthocd's public functions, recorded from the benchmark.

`Tracer.install()` replaces each traced function on its module (or
class) with a wrapper that records a span: name, start, end, the index
of the enclosing span, and the phase of the run it fell in ("command"
or a step-probe kind).  Calls inside orthocd go through module
attributes (`manifold.all_partials`, `rnn.forward`, ...), so they reach
the wrappers too.  `uninstall()` puts the originals back.

A span's self time is its duration minus the time its child spans
cover.  Spans are kept in memory; `dump` writes them out at the end.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field


# a finished span is a plain tuple of numbers and strings, which the
# garbage collector stops tracking, so a long traced run does not slow
# every collection
NAME, PHASE, PARENT, START, END, CHILD_S, OUT_BYTES = range(7)


def duration(span: tuple) -> float:
    return span[END] - span[START]


def self_s(span: tuple) -> float:
    """Duration minus the time the span's children cover."""
    return span[END] - span[START] - span[CHILD_S]


def _targets(cli, copytask, rnn, manifold, optim, analysis):
    """(owner, attribute, span name) of every traced function."""
    return [
        (cli, "main", "cli.main"),
        (cli, "run_training", "cli.loop"),
        (cli, "run_convergence", "cli.loop"),
        (cli.RunDir, "__init__", "cli.artifacts"),
        (cli.RunDir, "write_csv", "cli.artifacts"),
        (cli.RunDir, "write_json", "cli.artifacts"),
        (cli.RunDir, "finish", "cli.artifacts"),
        (rnn, "save_checkpoint", "cli.artifacts"),
        (copytask, "generate_batch", "copytask.generate_batch"),
        (copytask, "one_hot", "copytask.one_hot"),
        (rnn, "forward", "rnn.forward"),
        (rnn, "backward", "rnn.backward"),
        (manifold, "all_partials", "manifold.all_partials"),
        (manifold, "partial_derivative", "manifold.partial_derivative"),
        (manifold, "givens_update", "manifold.givens_update"),
        (manifold, "matrix_expm", "manifold.matrix_expm"),
        (optim, "srcd_step", "optim.srcd_step"),
        (optim, "srgd_step", "optim.srgd_step"),
        (optim.SyntheticProblem, "grads", "optim.synthetic"),
        (optim.SyntheticProblem, "loss", "optim.synthetic"),
        (optim.SyntheticProblem, "grad_norm_sq", "optim.synthetic"),
        (analysis, "convergence_metric", "analysis.convergence_metric"),
    ]


@dataclass
class Tracer:
    """Spans are (name, phase, parent index or -1, start, end, child
    seconds, out bytes); out bytes is set for rnn.forward only."""

    phase: str = "command"
    spans: list[tuple] = field(default_factory=list)
    _open: list[list] = field(default_factory=list)
    _saved: list[tuple] = field(default_factory=list)

    def _wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, self.phase, open_[-1][-1] if open_ else -1, clock(), 0.0, 0.0, 0,
                   len(spans)]
            spans.append(None)
            open_.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                open_.pop()
                if open_:
                    open_[-1][CHILD_S] += rec[END] - rec[START]
                spans[rec[-1]] = tuple(rec[:-1])
            if name == "rnn.forward":
                rec[OUT_BYTES] = sum(getattr(result, f).nbytes
                                     for f in ("hidden", "preact", "logits"))
                spans[rec[-1]] = tuple(rec[:-1])
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, *modules) -> None:
        """Wrap every target; `modules` are orthocd's cli, copytask,
        rnn, manifold, optim and analysis, in that order."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in _targets(*modules):
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, orig))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def select(self, name: str, phase: str) -> list[tuple]:
        return [s for s in self.spans if s[NAME] == name and s[PHASE] == phase]

    def dump(self, path, limit: int | None = None) -> None:
        """Write the first `limit` spans (all by default) as CSV."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "phase", "parent", "start_s",
                          "duration_s", "self_s"])
            t0 = self.spans[0][START] if self.spans else 0.0
            for k, s in enumerate(self.spans[:limit]):
                out.writerow([k, s[NAME], s[PHASE], s[PARENT], f"{s[START] - t0:.9f}",
                              f"{duration(s):.9f}", f"{self_s(s):.9f}"])
