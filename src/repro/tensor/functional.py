"""Differentiable neural-net primitives built on :class:`~repro.tensor.Tensor`.

These are written against the raw ndarray payloads with hand-derived
backward closures (rather than composing Tensor arithmetic) where the fused
form is both faster and numerically safer — e.g. ``log_softmax`` uses the
max-subtraction trick and a fused gradient.  Every function here is covered
by ``tests/test_tensor_functional.py`` including numerical gradcheck.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.tensor import Tensor, _grad_enabled, _unbroadcast

__all__ = [
    "relu",
    "gelu",
    "tanh",
    "sigmoid",
    "softmax",
    "log_softmax",
    "layer_norm",
    "dropout",
    "embedding_lookup",
    "cross_entropy",
    "nll_loss",
    "cat",
    "stack",
    "where",
    "linear",
    "lstm_cell",
    "lstm_sequence",
    "scaled_dot_attention",
    "assert_preserves_dtype",
]


def relu(x: Tensor) -> Tensor:
    """max(x, 0) with the indicator gradient."""
    out = np.maximum(x.data, 0)
    return Tensor._make(out, (x,), lambda g: (g * (x.data > 0),), "relu")


# Plain Python float: under NumPy's NEP-50 promotion a np.float64 scalar
# is "strong" and silently promotes float32 activations to float64, while
# a Python float is "weak" and preserves the array dtype.
_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU (the BERT activation)."""
    xd = x.data
    # inner = c * (x + 0.044715 x^3), built in place.  The cube is two
    # multiplies: float32 ``xd**3`` takes NumPy's generic pow loop, over
    # 100x slower at the same accuracy.
    inner = 0.044715 * (xd * xd * xd)
    inner += xd
    inner *= _GELU_C
    out = np.tanh(inner)
    out += 1.0
    out *= 0.5 * xd

    def backward(g: np.ndarray):
        # 0.5 (1 + t) + 0.5 x sech^2(inner) c (1 + 3 * 0.044715 x^2), with
        # sech^2 from cosh rather than 1 - t*t: float32 tanh is an ulp off
        # near +-1, and that cancellation magnifies it to ~1e-6 in the
        # gradient.  cosh overflows to inf only where sech^2 is 0 anyway.
        with np.errstate(over="ignore"):
            dt = np.cosh(inner)
        np.divide(1.0, dt, out=dt)
        dt *= dt
        dt *= _GELU_C * (1.0 + 3 * 0.044715 * (xd * xd))
        dt *= 0.5 * xd
        dt += 0.5 * (1.0 + np.tanh(inner))
        return (g * dt,)

    return Tensor._make(out, (x,), backward, "gelu")


def tanh(x: Tensor) -> Tensor:
    """Elementwise tanh."""
    out = np.tanh(x.data)
    return Tensor._make(out, (x,), lambda g: (g * (1.0 - out * out),), "tanh")


def _sigmoid_raw(x: np.ndarray) -> np.ndarray:
    """Numerically-stable logistic sigmoid on a raw ndarray.

    Branch-free form of the classic sign-split: with e = exp(-|x|) the
    positive half is 1/(1+e) and the negative half e/(1+e) — elementwise
    the exact same expressions as the masked version, minus the fancy
    indexing.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically-stable logistic sigmoid (split by sign)."""
    out = _sigmoid_raw(x.data)
    return Tensor._make(out, (x,), lambda g: (g * out * (1.0 - out),), "sigmoid")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax along ``axis`` with the fused gradient."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return Tensor._make(out, (x,), backward, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted log-softmax along ``axis`` with the fused gradient."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_z

    def backward(g: np.ndarray):
        soft = np.exp(out)
        return (g - soft * g.sum(axis=axis, keepdims=True),)

    return Tensor._make(out, (x,), backward, "log_softmax")


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last dimension with affine transform."""
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    # Centre once and reuse it for both the variance and xhat.  These are
    # the operations ``xd.var`` performs internally (it re-derives the same
    # mean and centres a second time), so the result is bitwise unchanged.
    xc = xd - mu
    var = np.multiply(xc, xc).sum(axis=-1, keepdims=True) / xd.shape[-1]
    inv = 1.0 / np.sqrt(var + eps)
    xc *= inv
    xhat = xc
    out = xhat * weight.data + bias.data

    def backward(g: np.ndarray):
        gw = _unbroadcast(g * xhat, weight.shape)
        gb = _unbroadcast(g, bias.shape)
        gx_hat = g * weight.data
        # Fused layer-norm input gradient.
        gx = (
            gx_hat
            - gx_hat.mean(axis=-1, keepdims=True)
            - xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True)
        ) * inv
        return gx, gw, gb

    return Tensor._make(out, (x, weight, bias), backward, "layer_norm")


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scales kept units by 1/(1-p) so eval needs no rescale."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep
    out = x.data * mask
    return Tensor._make(out, (x,), lambda g: (g * mask,), "dropout")


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row gather with scatter-add backward (the Embedding layer kernel)."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError(f"embedding indices must be integers, got {idx.dtype}")
    out = weight.data[idx]

    def backward(g: np.ndarray):
        gw = np.zeros_like(weight.data)
        np.add.at(gw, idx, g)
        return (gw,)

    return Tensor._make(out, (weight,), backward, "embedding")


def nll_loss(log_probs: Tensor, targets: np.ndarray, ignore_index: int | None = None) -> Tensor:
    """Mean negative log-likelihood over a flattened (N, C) log-prob matrix."""
    lp = log_probs.data
    if lp.ndim != 2:
        raise ValueError(f"nll_loss expects (N, C) log-probs, got shape {lp.shape}")
    tgt = np.asarray(targets).reshape(-1)
    if tgt.shape[0] != lp.shape[0]:
        raise ValueError(f"targets length {tgt.shape[0]} != batch {lp.shape[0]}")
    if ignore_index is not None:
        valid = tgt != ignore_index
        count = max(int(valid.sum()), 1)
    else:
        valid = np.ones_like(tgt, dtype=bool)
        count = tgt.shape[0]
    rows = np.arange(lp.shape[0])
    picked = np.where(valid, lp[rows, np.where(valid, tgt, 0)], 0.0)
    out = np.asarray(-picked.sum() / count, dtype=lp.dtype)

    def backward(g: np.ndarray):
        gx = np.zeros_like(lp)
        gx[rows[valid], tgt[valid]] = -1.0 / count
        return (gx * g,)

    return Tensor._make(out, (log_probs,), backward, "nll_loss")


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: int | None = None) -> Tensor:
    """Softmax + NLL, with logits of shape (..., C) and integer targets."""
    flat = logits.reshape(-1, logits.shape[-1]) if logits.ndim != 2 else logits
    return nll_loss(log_softmax(flat, axis=-1), targets, ignore_index=ignore_index)


def cat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``; backward splits the gradient."""
    if not tensors:
        raise ValueError("cat of empty sequence")
    datas = [t.data for t in tensors]
    out = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    def backward(g: np.ndarray):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._make(out, tuple(tensors), backward, "cat")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``; backward unstacks."""
    if not tensors:
        raise ValueError("stack of empty sequence")
    out = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray):
        pieces = np.split(g, len(tensors), axis=axis)
        return tuple(p.squeeze(axis=axis) for p in pieces)

    return Tensor._make(out, tuple(tensors), backward, "stack")


# --------------------------------------------------------------------- #
# fused hot-path kernels
#
# Each of these replaces a chain of elementary Tensor ops with a single
# graph node whose forward replays the exact same ndarray expressions the
# chain would execute (same operands, same evaluation order), so outputs
# are bitwise identical to the composed form; the hand-written backward
# mirrors the chain's closure arithmetic the same way.  What they save is
# node construction, closure dispatch and per-op gradient allocation —
# the dominant cost of small-model steps in this engine.


def _transpose_tap(weight: Tensor) -> Tensor:
    """A transpose node mirroring the composed chain's ``weight.T``.

    Fused kernels route weight gradients through this node instead of
    attaching the weight directly.  When a weight feeds several graph
    sites (the recurrent matrix across timesteps, a projection reused in
    a decoding loop), the engine sums one contribution per site — and
    float addition is not associative, so the *order* those contributions
    arrive in is part of the bitwise contract.  The composed chain's
    per-call ``.T`` nodes sit at specific DFS positions which fix that
    order; a tap in the same parent slot reproduces it exactly.
    """
    return Tensor._make(
        weight.data.T, (weight,), lambda g: (np.transpose(g, (1, 0)),), "transpose"
    )


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Fused ``x @ weight.T + bias`` (the Linear layer kernel).

    ``x`` must be at least 2-d; ``weight`` is (out, in).  The transposed
    weight view is captured at call time, which keeps DropConnect-style
    temporary masking (WeightDrop) working exactly like the composed form.
    """
    w_tap = _transpose_tap(weight)
    wT = w_tap.data
    y = x.data @ wT
    out = y + bias.data if bias is not None else y

    def backward(g: np.ndarray):
        dx = g @ np.swapaxes(wT, -1, -2) if x.requires_grad else None
        # Untransposed (in, out) form; the tap transposes, as ``.T`` did.
        dw = (
            _unbroadcast(np.swapaxes(x.data, -1, -2) @ g, wT.shape)
            if weight.requires_grad
            else None
        )
        if bias is None:
            return dx, dw
        db = _unbroadcast(g, bias.shape) if bias.requires_grad else None
        return dx, dw, db

    # Parent order mirrors the composed DFS first-visit order
    # (bias, weight.T, x): parents are explored last-to-first.
    parents = (x, w_tap) if bias is None else (x, w_tap, bias)
    return Tensor._make(out, parents, backward, "linear")


def _lstm_gates(
    gates: np.ndarray, c: np.ndarray, hs: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One LSTM step's gate nonlinearities and cell update.

    ``gates`` holds the (B, 4H) i/f/g/o pre-activations.  One sigmoid
    runs over the whole block (elementwise, so bitwise the per-gate
    calls); its g columns are unused.  Returns ``(act, g, c_next,
    tanh(c_next), h_next)``.
    """
    act = _sigmoid_raw(gates)
    g = np.tanh(gates[:, 2 * hs : 3 * hs])
    c_next = act[:, 1 * hs : 2 * hs] * c + act[:, 0 * hs : 1 * hs] * g
    t = np.tanh(c_next)
    h_next = act[:, 3 * hs : 4 * hs] * t
    return act, g, c_next, t, h_next


def _lstm_gates_backward(
    gh: np.ndarray,
    gc_ext: np.ndarray | None,
    c: np.ndarray,
    act: np.ndarray,
    g: np.ndarray,
    t: np.ndarray,
    hs: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Backward of :func:`_lstm_gates`: ``(dgates, gc)`` from the hidden
    gradient ``gh`` and the cell gradient ``gc_ext`` arriving from the
    next step (None when nothing reaches ``c_next``)."""
    i = act[:, 0 * hs : 1 * hs]
    f = act[:, 1 * hs : 2 * hs]
    o = act[:, 3 * hs : 4 * hs]
    # Mirror the composed chain: h = o * tanh(c'), c' = f*c + i*g.
    gc = (gh * o) * (1.0 - t * t)
    if gc_ext is not None:
        gc = gc_ext + gc
    dgates = np.empty_like(act)
    dgates[:, 0 * hs : 1 * hs] = (gc * g) * i * (1.0 - i)
    dgates[:, 1 * hs : 2 * hs] = (gc * c) * f * (1.0 - f)
    dgates[:, 2 * hs : 3 * hs] = (gc * i) * (1.0 - g * g)
    dgates[:, 3 * hs : 4 * hs] = (gh * t) * o * (1.0 - o)
    return dgates, gc


def lstm_cell(
    x: Tensor,
    h: Tensor,
    c: Tensor,
    weight_ih: Tensor,
    weight_hh: Tensor,
    bias: Tensor,
    hidden_size: int,
) -> tuple[Tensor, Tensor]:
    """Fused LSTM cell: one graph node for the whole gate stack.

    Computes ``gates = x @ W_ih^T + h @ W_hh^T + b`` and the i/f/g/o gate
    nonlinearities, returning ``(h_next, c_next)``.  ``c_next`` is emitted
    as a child node of ``h_next`` whose backward stashes the incoming cell
    gradient; reverse topological order guarantees the stash happens
    before ``h_next``'s backward consumes it.  Weight transpose views are
    captured at call time (WeightDrop compatibility, as in the composed
    form).
    """
    hs = hidden_size
    wih_tap = _transpose_tap(weight_ih)
    whh_tap = _transpose_tap(weight_hh)
    wihT = wih_tap.data
    whhT = whh_tap.data
    gates = (x.data @ wihT + h.data @ whhT) + bias.data
    act, g, c_next, t, h_next = _lstm_gates(gates, c.data, hs)

    if not (
        _grad_enabled()
        and (
            x.requires_grad
            or h.requires_grad
            or c.requires_grad
            or weight_ih.requires_grad
            or weight_hh.requires_grad
            or bias.requires_grad
        )
    ):
        return Tensor(h_next), Tensor(c_next)

    ctx: dict[str, np.ndarray | None] = {"gc": None}

    def backward_h(gh: np.ndarray):
        gc_ext = ctx["gc"]
        ctx["gc"] = None
        dgates, gc = _lstm_gates_backward(gh, gc_ext, c.data, act, g, t, hs)
        dx = dgates @ np.swapaxes(wihT, -1, -2) if x.requires_grad else None
        dh = dgates @ np.swapaxes(whhT, -1, -2) if h.requires_grad else None
        dc = gc * act[:, 1 * hs : 2 * hs] if c.requires_grad else None
        # Untransposed (in, 4*hidden) forms; the taps transpose them.
        dwih = (
            np.swapaxes(x.data, -1, -2) @ dgates
            if weight_ih.requires_grad
            else None
        )
        dwhh = (
            np.swapaxes(h.data, -1, -2) @ dgates
            if weight_hh.requires_grad
            else None
        )
        db = _unbroadcast(dgates, bias.shape) if bias.requires_grad else None
        return dx, dwih, dh, dc, dwhh, db

    # Parent order matters beyond bookkeeping: the composed chain appends
    # W_hh.T before descending into the h_{t-1} subgraph (so its grads
    # accumulate oldest-step-first) but W_ih.T only after it (newest
    # first).  Placing whh's tap after h/c and wih's tap before them in
    # the parent tuple reproduces both orders under the engine's
    # last-to-first DFS.
    h_t = Tensor._make(
        h_next, (x, wih_tap, h, c, whh_tap, bias), backward_h, "lstm_cell"
    )

    def backward_c(g_in: np.ndarray):
        # Copied because the arena may recycle g_in once this node is done.
        ctx["gc"] = g_in.copy()
        # Zero (not None) so a loss reaching only c_next still drives
        # backward_h, which is where the stashed cell gradient is spent.
        return (np.zeros_like(h_next),)

    c_t = Tensor._make(c_next, (h_t,), backward_c, "lstm_cell_c")
    return h_t, c_t


def lstm_sequence(
    x: Tensor,
    weight_ih: Tensor,
    weight_hh: Tensor,
    bias: Tensor,
    hidden_size: int,
    whh_masks: np.ndarray | None = None,
) -> Tensor:
    """Fused LSTM layer over a (B, T, D) sequence from a zero state.

    One graph node for the whole sequence, returning the (B, T, H) hidden
    states; the final (h, c) is not exposed.  Backward runs BPTT inside
    the node.  Each step evaluates exactly the expressions of an
    :func:`lstm_cell` chain over ``x[:, t, :]`` stacked on axis 1, and
    the weight gradients are summed in that chain's tape order (W_hh
    oldest step first, W_ih and bias newest first), so outputs and
    gradients are bitwise identical to it.  ``whh_masks`` (T, 4H, H)
    multiplies W_hh per step (WeightDrop's DropConnect); as in the chain,
    W_hh's gradient is not masked.
    """
    if x.ndim != 3:
        raise ValueError(f"lstm_sequence expects (B, T, D) input, got shape {x.shape}")
    if x.shape[-1] != weight_ih.shape[1]:
        raise ValueError(
            f"lstm_sequence input dim {x.shape[-1]} != weight_ih in-dim {weight_ih.shape[1]}"
        )
    hs = hidden_size
    batch, steps, _ = x.shape
    if whh_masks is not None and whh_masks.shape != (steps, *weight_hh.shape):
        raise ValueError(
            f"lstm_sequence whh_masks must be {(steps, *weight_hh.shape)}, got {whh_masks.shape}"
        )
    xd = x.data
    wih = weight_ih.data
    wihT = wih.T
    h = np.zeros((batch, hs), xd.dtype)
    c = np.zeros((batch, hs), xd.dtype)
    out = np.empty(
        (batch, steps, hs), np.result_type(xd, wih, weight_hh.data, bias.data)
    )
    needs_grad = _grad_enabled() and (
        x.requires_grad
        or weight_ih.requires_grad
        or weight_hh.requires_grad
        or bias.requires_grad
    )
    # Per-step cache for BPTT: (h_prev, c_prev, W_hh as used, act, g, t).
    cache: list[tuple[np.ndarray, ...]] = []
    for step in range(steps):
        whh = weight_hh.data if whh_masks is None else weight_hh.data * whh_masks[step]
        gates = (xd[:, step, :] @ wihT + h @ whh.T) + bias.data
        act, g, c_next, t, h_next = _lstm_gates(gates, c, hs)
        out[:, step, :] = h_next
        if needs_grad:
            cache.append((h, c, whh, act, g, t))
        h, c = h_next, c_next
    if not needs_grad:
        return Tensor(out)

    def backward(g_out: np.ndarray):
        dx = np.zeros_like(xd) if x.requires_grad else None
        dwih = db = dh = dc = None
        dgates_at: list = [None] * steps
        for step in reversed(range(steps)):
            _, c_prev, whh, act, g, t = cache[step]
            gh = g_out[:, step, :] if dh is None else g_out[:, step, :] + dh
            dgates, gc = _lstm_gates_backward(gh, dc, c_prev, act, g, t, hs)
            dgates_at[step] = dgates
            if step > 0:
                dh = dgates @ whh
                dc = gc * act[:, 1 * hs : 2 * hs]
            if dx is not None:
                dx[:, step, :] = dgates @ wih
            if weight_ih.requires_grad:
                gw = xd[:, step, :].T @ dgates
                dwih = gw if dwih is None else np.add(dwih, gw, out=dwih)
            if bias.requires_grad:
                gb = _unbroadcast(dgates, bias.shape)
                db = gb if db is None else np.add(db, gb, out=db)
        dwhh = None
        if weight_hh.requires_grad:
            for step in range(steps):  # oldest step first
                gw = cache[step][0].T @ dgates_at[step]
                dwhh = gw if dwhh is None else np.add(dwhh, gw, out=dwhh)
        # Untransposed (in, 4*hidden) sums, transposed as the chain's taps did.
        return (
            dx,
            None if dwih is None else dwih.T,
            None if dwhh is None else dwhh.T,
            db,
        )

    return Tensor._make(out, (x, weight_ih, weight_hh, bias), backward, "lstm_sequence")


def scaled_dot_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    scale: float,
    bias: np.ndarray | None = None,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> Tensor:
    """Fused softmax attention over (B, H, T, dh) heads.

    One node for ``softmax(q @ k^T * scale + bias)`` (optionally with
    inverted dropout on the attention weights) matmul'd against ``v``.
    ``bias`` is an additive raw-ndarray mask; it receives no gradient.
    """
    if not 0.0 <= dropout_p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {dropout_p}")
    kt = k.data.transpose(0, 1, 3, 2)
    scale_arr = np.asarray(scale, dtype=q.data.dtype)
    # The softmax runs in place on the score buffer this kernel owns:
    # the same ufuncs in the same order, without a temporary per step.
    s = q.data @ kt
    s *= scale_arr
    if bias is not None:
        s = s + bias
    # Row max taken over a copy with the key axis moved first: NumPy
    # reduces a short contiguous last axis (19 keys in BERT) ~3x slower.
    # max is exact, so the softmax is bitwise unchanged (a +0/-0 tie only
    # flips the sign of a zero that exp maps to 1 either way).
    s -= np.moveaxis(s, -1, 0).copy().max(axis=0)[..., None]
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    attn = s
    if training and dropout_p > 0.0:
        keep = 1.0 - dropout_p
        mask = (rng.random(attn.shape) < keep).astype(attn.dtype) / keep
        attn_d = attn * mask
    else:
        mask = None
        attn_d = attn
    out = attn_d @ v.data

    def backward(g: np.ndarray):
        dattn = g @ np.swapaxes(v.data, -1, -2)
        dv = np.swapaxes(attn_d, -1, -2) @ g if v.requires_grad else None
        if mask is not None:
            dattn = dattn * mask
        dot = (dattn * attn).sum(axis=-1, keepdims=True)
        ds = dattn - dot
        ds *= attn
        ds *= scale_arr
        dq = ds @ np.swapaxes(kt, -1, -2) if q.requires_grad else None
        dk = (
            (np.swapaxes(q.data, -1, -2) @ ds).transpose(0, 1, 3, 2)
            if k.requires_grad
            else None
        )
        return dq, dk, dv

    return Tensor._make(out, (q, k, v), backward, "sdp_attention")


def assert_preserves_dtype(result: Tensor | Sequence[Tensor], *inputs: Tensor) -> None:
    """Assert every output tensor keeps the dtype of the first input.

    The regression helper for float64-promotion leaks: NumPy scalar rules
    (NEP 50) can silently upcast float32 through Python/NumPy scalar
    arithmetic, doubling memory traffic without changing semantics enough
    for tolerance-based tests to notice.
    """
    if not inputs:
        raise ValueError("assert_preserves_dtype needs at least one input tensor")
    expect = inputs[0].dtype
    outs = result if isinstance(result, (tuple, list)) else (result,)
    for idx, out in enumerate(outs):
        if out.dtype != expect:
            raise AssertionError(
                f"output {idx} has dtype {out.dtype}, expected {expect} "
                f"(float-promotion leak)"
            )


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select by a boolean condition; gradients route by it."""
    cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    out = np.where(cond, a.data, b.data)

    def backward(g: np.ndarray):
        return (
            _unbroadcast(np.where(cond, g, 0.0), a.shape),
            _unbroadcast(np.where(cond, 0.0, g), b.shape),
        )

    return Tensor._make(out, (a, b), backward, "where")
