"""Independent reference implementations used only by the tests.

Each function recomputes a library quantity from its definition by a
different route (truncated series, dense matrices, per-element loops),
so agreement with the library is evidence, not tautology.
"""

import math

import numpy as np


def taylor_expm(a: np.ndarray, terms: int = 30) -> np.ndarray:
    """Truncated Taylor series for expm.

    For ||A||_F <= pi the term after 30 is below 1e-16 relative, so
    within the angle ranges the tests draw this is exact to roundoff.
    Each term is the last times A/n, in A itself: no scaling and squaring,
    no degree picked by a norm and no polynomial in N = S S^T, so it
    shares no step with matrix_expm's ladder beyond the series.
    """
    a = np.asarray(a, dtype=np.float64)
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for n in range(1, terms + 1):
        term = term @ a / n
        out = out + term
    return out


def dense_rotation(d: int, j: int, l: int, angle: float) -> np.ndarray:
    """Identity with [[cos, sin], [-sin, cos]] embedded at rows/columns
    (j, l), 1-based: the plane rotation a Givens column update applies."""
    r = np.eye(d)
    c, s = math.cos(angle), math.sin(angle)
    r[j - 1, j - 1] = c
    r[j - 1, l - 1] = s
    r[l - 1, j - 1] = -s
    r[l - 1, l - 1] = c
    return r


def dense_projection(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """P(M) = W (W^T M - M^T W) / 2, straight from the formula."""
    return w @ (w.T @ m - m.T @ w) / 2.0


def dense_basis(j: int, l: int, d: int) -> np.ndarray:
    h = np.zeros((d, d))
    h[j - 1, l - 1] = 1.0 / math.sqrt(2.0)
    h[l - 1, j - 1] = -1.0 / math.sqrt(2.0)
    return h


def pairwise_partials(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Coordinate partials as dense inner products <P(G), W H[j,l]>_F,
    looping over pairs in row-major order."""
    d = w.shape[0]
    pg = dense_projection(w, g)
    out = []
    for j in range(1, d + 1):
        for l in range(j + 1, d + 1):
            out.append(float(np.vdot(pg, w @ dense_basis(j, l, d))))
    return np.array(out)


def softmax_xent(logits: np.ndarray, targets: np.ndarray,
                 mask: np.ndarray | None = None) -> float:
    """Cross-entropy averaged over unmasked positions, one softmax at a
    time with explicit normalization."""
    logits = np.asarray(logits, dtype=np.float64)
    b, t, _ = logits.shape
    total = 0.0
    count = 0
    for bi in range(b):
        for ti in range(t):
            if mask is not None and not mask[bi, ti]:
                continue
            z = logits[bi, ti] - logits[bi, ti].max()
            p = np.exp(z) / np.exp(z).sum()
            total += -math.log(p[targets[bi, ti]])
            count += 1
    return total / count if count else 0.0


def rnn_forward(params, inputs: np.ndarray, return_preact: bool = False):
    """Step-by-step modReLU recurrence from h(-1) = 0, with per-sample
    matvec loops.

    Returns (hidden, logits) shaped like the library's ForwardTrace
    fields, and the (B, T, d) preactivations third with `return_preact`.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    b, t, _ = inputs.shape
    d = params.d
    hidden = np.empty((b, t, d))
    preact = np.empty((b, t, d))
    for bi in range(b):
        h = np.zeros(d)
        for ti in range(t):
            pre = params.w_in @ inputs[bi, ti] + params.w @ h
            h = np.sign(pre) * np.maximum(np.abs(pre) + params.b_mod, 0.0)
            hidden[bi, ti] = h
            preact[bi, ti] = pre
    logits = hidden @ params.w_out.T + params.b_out
    return (hidden, logits, preact) if return_preact else (hidden, logits)


def select_gauss_southwell(partials: np.ndarray) -> int:
    """The greedy coordinate argmax_i |v_i|, 1-based, ties to the
    smallest index, straight from the partials vector: the reference
    for the step's gather-free pick from S."""
    v = np.asarray(partials)
    if v.size == 0:
        raise ValueError("empty partials vector")
    return int(np.argmax(np.abs(v))) + 1


def central_diff(f, arr: np.ndarray, idx, h: float = 1e-6) -> float:
    """Central finite difference of the scalar f() in the arr[idx]
    direction; restores the entry afterwards."""
    orig = arr[idx]
    arr[idx] = orig + h
    up = f()
    arr[idx] = orig - h
    dn = f()
    arr[idx] = orig
    return (up - dn) / (2.0 * h)


def fsum_cumsum(x) -> np.ndarray:
    """Prefix sums via math.fsum: each prefix exactly rounded.

    Quadratic in len(x); intended for short arrays.  For long streams
    spot-check chosen prefixes with fsum_prefix instead.
    """
    x = list(map(float, np.asarray(x).ravel()))
    return np.array([math.fsum(x[: i + 1]) for i in range(len(x))])


def fsum_prefix(x, k: int) -> float:
    """Exactly rounded sum of the first k entries."""
    x = np.asarray(x, dtype=np.float64).ravel()
    return math.fsum(map(float, x[:k]))


def cayley_solve(angles: np.ndarray) -> np.ndarray:
    """The Cayley transform (I + A)^-1 (I - A) as a dense linear solve,
    A block-diagonal with 2x2 skew blocks [[0, s], [-s, 0]], one per
    angle."""
    angles = np.asarray(angles, dtype=np.float64)
    d = 2 * angles.size
    a = np.zeros((d, d))
    top = np.arange(0, d, 2)
    a[top, top + 1] = angles
    a[top + 1, top] = -angles
    eye = np.eye(d)
    return np.linalg.solve(eye + a, eye - a)


def rnn_backward_per_step(params, inputs, targets, mask=None):
    """BPTT batch-first from h(-1) = 0, with dW, dW_in and b_mod
    accumulated one time step at a time and the modReLU mask read from
    the preactivations of `rnn_forward`, this module's own forward pass
    (the loop the library's time-major backward replaced).  Returns
    (loss, dict of gradient blocks)."""
    from orthocd import rnn

    inputs = np.asarray(inputs, dtype=np.float64)
    bsz, steps, _ = inputs.shape
    targets = np.asarray(targets)
    hidden, logits, preact = rnn_forward(params, inputs, return_preact=True)
    mask = rnn._resolve_mask(mask, logits.shape[:-1])
    value, dlogits = rnn._loss_and_dlogits(logits, targets, mask)

    d = params.d
    g = {"w_in": np.zeros_like(params.w_in), "w": np.zeros_like(params.w),
         "w_out": np.einsum("btc,btd->cd", dlogits, hidden),
         "b_out": dlogits.sum(axis=(0, 1)), "b_mod": np.zeros_like(params.b_mod)}
    dh_out = dlogits @ params.w_out
    carry = np.zeros((bsz, d))
    for t in range(steps - 1, -1, -1):
        dh = dh_out[:, t] + carry
        pre = preact[:, t]
        active = ((np.abs(pre) + params.b_mod) > 0.0) & (pre != 0.0)
        dpre = dh * active
        g["b_mod"] += (dpre * np.sign(pre)).sum(axis=0)
        g["w_in"] += dpre.T @ inputs[:, t]
        if t > 0:  # h(-1) = 0
            g["w"] += dpre.T @ hidden[:, t - 1]
        carry = dpre @ params.w
    return value, g


def kahan_cumsum_scalars(x) -> np.ndarray:
    """Compensated running sum, one numpy float64 scalar at a time
    (the loop `analysis.kahan_cumsum` ran before it moved to Python
    floats)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    out = np.empty_like(x)
    s = 0.0
    comp = 0.0
    with np.errstate(all="ignore"):
        for idx in range(x.size):
            y = x[idx] - comp
            t = s + y
            comp = (t - s) - y
            s = t
            out[idx] = s
    return out


def run_convergence_three_calls(cfg, seed: int):
    """The convergence loop with one call each of `grad_norm_sq`, `loss`
    and `grads` per iteration (three residual evaluations), and M_K from
    the numpy-scalar Kahan sums.  Returns (alphas, gnormsq, losses, M_K)."""
    from orthocd import optim

    problem = optim.SyntheticProblem.make(
        cfg.conv_d, (cfg.x_dim, cfg.x_dim), noise_std=cfg.noise_std,
        seed=cfg.seed)
    schedule = optim.StepSchedule(kind=cfg.schedule, alpha0=cfg.alpha0,
                                  power=cfg.power, offset=cfg.offset,
                                  robbins_monro=cfg.robbins_monro)
    state = problem.state(schedule, rule=optim.SelectionRule("uniform"),
                          seed=seed)
    noise_rng = np.random.default_rng([seed, 5])
    n = cfg.iterations
    alphas, gsq, losses = np.empty(n), np.empty(n), np.empty(n)
    x = state.x["x"]
    for k in range(n):
        alphas[k] = optim.schedule_step(schedule, k)
        gsq[k] = problem.grad_norm_sq(x, state.w)
        losses[k] = problem.loss(x, state.w)
        grads = problem.grads(x, state.w,
                              rng=noise_rng if cfg.noise_std > 0 else None)
        optim.srcd_step(state, grads)
    m = kahan_cumsum_scalars(alphas * gsq) / kahan_cumsum_scalars(alphas)
    return alphas, gsq, losses, m


def trace_csv_bytes(alphas, losses, gnormsq, m_k) -> bytes:
    """trace.csv written cell by cell: k as an int, every other entry
    as format(float(v), ".17g")."""
    lines = ["k,alpha,loss,gnormsq,M_K"]
    for k in range(len(alphas)):
        lines.append(",".join([str(k)] + [format(float(col[k]), ".17g")
                                          for col in (alphas, losses, gnormsq, m_k)]))
    return ("\n".join(lines) + "\n").encode()
