"""Output checks.  Each compares a program output with a computation made
here, apart from orthocd, or with a property the method must have, and
raises CheckFailed when it does not hold.

Only numpy and the standard library are used; orthocd's own functions
appear in none of the reference computations.  The convergence check
takes its problem (A, B, C, X0, W0) from orthocd's SyntheticProblem as
input; what it checks is computed here.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

ORTHO_TOL = 1e-8        # the README's orthogonality guarantee
ROTATION_TOL = 1e-12    # a Givens step against the dense rotation
DENSE_TOL = 1e-10       # srgd_step against the Taylor exponential
LOSS_RTOL = 1e-10       # eval_loss against the plain-loop forward pass
METRIC_RTOL = 1e-12     # Kahan-summed M_K against exact prefix sums
TAYLOR_MAX_D = 256      # widest d whose Taylor expm this module forms

_SQRT2 = math.sqrt(2.0)


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# checkpoint.bin, read from the layout documented in the README
# ---------------------------------------------------------------------------

def read_checkpoint(path: Path) -> dict:
    """magic ORNNCKP\\0, u8 version, u32 d, d_in, d_out, u64 seed, then
    little-endian float64 row-major w_in, w, w_out, b_out, b_mod."""
    raw = Path(path).read_bytes()
    _require(raw[:8] == b"ORNNCKP\x00", f"bad magic {raw[:8]!r}")
    version, d, d_in, d_out, seed = struct.unpack_from("<BIIIQ", raw, 8)
    _require(version == 1, f"version {version}, expected 1")
    shapes = {"w_in": (d, d_in), "w": (d, d), "w_out": (d_out, d),
              "b_out": (d_out,), "b_mod": (d,)}
    n_words = sum(math.prod(s) for s in shapes.values())
    _require(len(raw) == 29 + 8 * n_words,
             f"length {len(raw)}, layout needs {29 + 8 * n_words}")
    flat = np.frombuffer(raw, dtype="<f8", offset=29)
    out, at = {"seed": seed}, 0
    for name, shape in shapes.items():
        n = math.prod(shape)
        out[name] = flat[at:at + n].reshape(shape)
        at += n
    return out


def orthogonality_defect(w: np.ndarray) -> float:
    return float(np.linalg.norm(w.T @ w - np.eye(w.shape[0])))


def check_checkpoint(ckpt: dict, seed: int) -> None:
    _require(ckpt["seed"] == seed, f"checkpoint seed {ckpt['seed']} != {seed}")
    defect = orthogonality_defect(ckpt["w"])
    _require(defect <= ORTHO_TOL, f"||W^T W - I|| = {defect:.3e} > {ORTHO_TOL}")


# ---------------------------------------------------------------------------
# summary.json of train: eval loss and memoryless baseline
# ---------------------------------------------------------------------------

def copy_batch(alphabet: int, copy_len: int, lag: int, batch: int,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Inputs and targets of the copy task, laid out as the README states:
    letters, L blanks, start marker, K-1 blanks; targets blank until the
    last K steps, which repeat the letters."""
    t_total = lag + 2 * copy_len
    letters = rng.integers(0, alphabet, size=(batch, copy_len))
    inputs = np.full((batch, t_total), alphabet, dtype=np.int64)
    inputs[:, :copy_len] = letters
    inputs[:, copy_len + lag] = alphabet + 1
    targets = np.full((batch, t_total), alphabet, dtype=np.int64)
    targets[:, lag + copy_len:] = letters
    return inputs, targets


def plain_forward_loss(ckpt: dict, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy over every (b, t) of the modReLU RNN, one time
    step at a time; W_in x_t for a one-hot x_t is a column of W_in."""
    w_in, w, w_out = ckpt["w_in"], ckpt["w"], ckpt["w_out"]
    b_out, b_mod = ckpt["b_out"], ckpt["b_mod"]
    bsz, steps = inputs.shape
    h = np.zeros((bsz, w.shape[0]))
    rows = np.arange(bsz)
    terms = []
    for t in range(steps):
        pre = w_in[:, inputs[:, t]].T + h @ w.T
        h = np.sign(pre) * np.maximum(np.abs(pre) + b_mod, 0.0)
        z = h @ w_out.T + b_out
        m = z.max(axis=1)
        lse = np.log(np.exp(z - m[:, None]).sum(axis=1)) + m
        terms.extend((lse - z[rows, targets[:, t]]).tolist())
    return math.fsum(terms) / len(terms)


def check_train_summary(summary: dict, ckpt: dict, task: tuple[int, int, int, int],
                        seed: int) -> None:
    alphabet, copy_len, lag, batch = task
    base = copy_len * math.log(alphabet) / (lag + 2 * copy_len)
    _require(math.isclose(summary["baseline_loss"], base, rel_tol=1e-12),
             f"baseline_loss {summary['baseline_loss']!r} != K ln N/(L+2K) = {base!r}")
    inputs, targets = copy_batch(alphabet, copy_len, lag, batch,
                                 np.random.default_rng([seed, 3]))
    want = plain_forward_loss(ckpt, inputs, targets)
    _require(math.isclose(summary["eval_loss"], want, rel_tol=LOSS_RTOL),
             f"eval_loss {summary['eval_loss']!r} != plain-loop {want!r}")


# ---------------------------------------------------------------------------
# trace.csv and the convergence metric
# ---------------------------------------------------------------------------

def read_trace(path: Path) -> dict[str, list[float]]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(bool(rows), "trace.csv has no rows")
    return {key: [float(r[key]) for r in rows] for key in rows[0]}


def exact_prefix_sums(xs) -> list[float]:
    """Correctly rounded running sums (Shewchuk's partials, as math.fsum
    keeps them), one per prefix, in linear time."""
    partials: list[float] = []
    out = []
    for x in xs:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
        out.append(math.fsum(partials))
    return out


def check_trace(trace: dict[str, list[float]]) -> None:
    for key in ("loss", "gnormsq"):
        bad = [k for k, v in enumerate(trace[key]) if not math.isfinite(v)]
        _require(not bad, f"non-finite {key} in trace rows {bad[:5]}")
    alphas, gsq = trace["alpha"], trace["gnormsq"]
    num = exact_prefix_sums(a * g for a, g in zip(alphas, gsq))
    den = exact_prefix_sums(alphas)
    for k, m_k in enumerate(trace["M_K"]):
        want = num[k] / den[k]
        _require(math.isclose(m_k, want, rel_tol=METRIC_RTOL),
                 f"M_K row {k}: {m_k!r} != fsum recomputation {want!r}")


def check_convergence(summary: dict, trace: dict[str, list[float]], seed: int,
                      a: np.ndarray, b: np.ndarray, c: np.ndarray,
                      x0: np.ndarray, w0: np.ndarray) -> None:
    """M_K falls from the first checkpoint to the last, and row 0's
    gnormsq is ||X0 - C||^2 plus the squared norm of the dense tangent
    projection W (W^T G - G^T W) / 2 of G = (W A - B) A^T."""
    marks = summary["checkpoints"]
    _require(len(marks) >= 2, f"need two checkpoints, got {marks}")
    entry = summary["seeds"][str(seed)]
    first, last = entry[f"M_{marks[0]}"], entry[f"M_{marks[-1]}"]
    _require(last < first, f"M_{marks[-1]} = {last!r} is not below M_{marks[0]} = {first!r}")
    g = (w0 @ a - b) @ a.T
    proj = w0 @ ((w0.T @ g - g.T @ w0) / 2.0)
    want = float(np.sum(proj * proj) + np.sum((x0 - c) ** 2))
    _require(math.isclose(trace["gnormsq"][0], want, rel_tol=1e-10),
             f"row 0 gnormsq {trace['gnormsq'][0]!r} != dense projection {want!r}")


# ---------------------------------------------------------------------------
# step probes
# ---------------------------------------------------------------------------

def coord_pair(i: int, d: int) -> tuple[int, int]:
    """0-based column pair of 1-based coordinate i, row-major over j < l."""
    i0, j = i - 1, 0
    while i0 >= d - 1 - j:
        i0 -= d - 1 - j
        j += 1
    return j, j + 1 + i0


def skew_partials(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(W^T G - G^T W) / sqrt(2): entry (j, l) is the partial along eta."""
    return (w.T @ g - g.T @ w) / _SQRT2


def plane_rotation(d: int, j: int, l: int, angle: float) -> np.ndarray:
    r = np.eye(d)
    c, s = math.cos(angle), math.sin(angle)
    r[j, j], r[j, l], r[l, j], r[l, l] = c, s, -s, c
    return r


def check_coordinate_step(w0: np.ndarray, g: np.ndarray, alpha: float, i: int,
                          w1: np.ndarray) -> None:
    """W1 = W0 R, R the rotation of columns (j, l) by -alpha v_i / sqrt(2)."""
    d = w0.shape[0]
    j, l = coord_pair(i, d)
    v_i = skew_partials(w0, g)[j, l]
    want = w0 @ plane_rotation(d, j, l, -alpha * v_i / _SQRT2)
    err = float(np.max(np.abs(w1 - want)))
    _require(err <= ROTATION_TOL, f"coordinate {i}: |W1 - W0 R| = {err:.3e}")


def check_greedy_choice(w0: np.ndarray, g: np.ndarray, i: int) -> None:
    v = skew_partials(w0, g)[np.triu_indices(w0.shape[0], k=1)]
    want = int(np.argmax(np.abs(v))) + 1
    _require(i == want, f"greedy step picked coordinate {i}, argmax |v| is {want}")


def taylor_expm(x: np.ndarray, terms: int = 30) -> np.ndarray:
    """sum_k x^k / k!, with scaling and squaring to keep ||x|| <= 1/2."""
    squarings = max(0, math.ceil(math.log2(max(np.linalg.norm(x), 1e-300) / 0.5)))
    x = x / 2.0**squarings
    out, term = np.eye(x.shape[0]), np.eye(x.shape[0])
    for k in range(1, terms + 1):
        term = term @ x / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def check_dense_step(w0: np.ndarray, g: np.ndarray, alpha: float,
                     w1: np.ndarray) -> None:
    """W1 = W0 expm(-alpha S), S = (W^T G - G^T W) / 2, against the Taylor
    series up to TAYLOR_MAX_D; wider, W1 is orthogonal and within the
    second-order remainder of W0 (I - alpha S)."""
    d = w0.shape[0]
    x = -alpha * (w0.T @ g - g.T @ w0) / 2.0
    defect = orthogonality_defect(w1)
    _require(defect <= ORTHO_TOL, f"dense step: ||W^T W - I|| = {defect:.3e}")
    if d <= TAYLOR_MAX_D:
        err = float(np.linalg.norm(w1 - w0 @ taylor_expm(x)))
        _require(err <= DENSE_TOL, f"dense step: ||W1 - W0 expm|| = {err:.3e}")
    else:
        nx = float(np.linalg.norm(x))
        err = float(np.linalg.norm(w0.T @ w1 - np.eye(d) - x))
        _require(err <= nx * nx * math.exp(nx) / 2.0,
                 f"dense step: first-order residual {err:.3e} for ||X|| = {nx:.3e}")


def load_json(path: Path) -> dict:
    return json.loads(Path(path).read_text())
