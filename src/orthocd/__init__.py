"""Stochastic Riemannian coordinate descent on the orthogonal group.

Coordinate moves are Givens rotations of column pairs (O(d) per step,
versus the O(d^3) matrix exponential of a full Riemannian gradient
step).  The package bundles the geometry kernels, a small orthogonal
RNN with exact BPTT, the copying-memory task, the optimizers with
uniform and Gauss-Southwell coordinate selection, gradient-sparsity
and convergence diagnostics, and a CLI that drives the experiments.
"""

__version__ = "0.1.0"

# cli is imported on demand (`from orthocd import cli`), so that
# `python -m orthocd.cli` finds it unloaded and runs it once, as __main__
from . import analysis, copytask, manifold, optim, rnn  # noqa: F401

__all__ = ["analysis", "copytask", "manifold", "optim", "rnn", "__version__"]
