"""Bitwise gates for the fused hot-path ops.

Every fused kernel in ``repro.tensor.functional`` (and the buffer-reuse
``LSTM.forward``) replaced a composed Tensor-op chain *without changing a
single bit of output*.  These tests pin that contract: forward values and
every gradient must be bit-identical (``np.array_equal``, NaN-safe) to
the composed reference, in both float32 and float64.
"""

import numpy as np
import pytest

from repro.tensor import Tensor
from repro.tensor import functional as F
from repro.tensor.functional import _sigmoid_raw, dropout, sigmoid, softmax
from repro.tensor.functional import tanh as ftanh
from repro.tensor.tensor import _unbroadcast


def _bits_equal(name, a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    assert np.array_equal(a, b, equal_nan=True), (
        f"{name}: max diff "
        f"{np.abs(a.astype(np.float64) - b.astype(np.float64)).max()}"
    )


# --------------------------------------------------------------------- #
# sigmoid: branch-free form vs the masked sign-split


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_raw_matches_masked_reference_bitwise(dtype):
    rng = np.random.default_rng(0)
    x = (rng.standard_normal((64, 128)) * 6).astype(dtype)
    ref = np.empty_like(x)
    pos = x >= 0
    ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    ref[~pos] = ex / (1.0 + ex)
    uint = np.uint32 if dtype == np.float32 else np.uint64
    assert (_sigmoid_raw(x).view(uint) == ref.view(uint)).all()


# --------------------------------------------------------------------- #
# linear: fused matmul+bias vs x @ W.T + b


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(8, 16), (4, 7, 16)])
def test_linear_matches_composed_bitwise(dtype, shape):
    rng = np.random.default_rng(1)
    xv = rng.standard_normal(shape).astype(dtype)
    wv = rng.standard_normal((5, 16)).astype(dtype)
    bv = rng.standard_normal((5,)).astype(dtype)
    g = rng.standard_normal(shape[:-1] + (5,)).astype(dtype)

    x1, w1, b1 = (Tensor(v.copy(), requires_grad=True) for v in (xv, wv, bv))
    out1 = x1 @ w1.T + b1
    out1.backward(g)

    x2, w2, b2 = (Tensor(v.copy(), requires_grad=True) for v in (xv, wv, bv))
    out2 = F.linear(x2, w2, b2)
    out2.backward(g)

    _bits_equal("fwd", out1.data, out2.data)
    _bits_equal("dx", x1.grad, x2.grad)
    _bits_equal("dw", w1.grad, w2.grad)
    _bits_equal("db", b1.grad, b2.grad)


# --------------------------------------------------------------------- #
# lstm_cell: fused gate stack vs the composed chain, unrolled T steps


def _composed_cell(x, h, c, wih, whh, bias, hs):
    gates = x @ wih.T + h @ whh.T + bias
    i = sigmoid(gates[:, 0 * hs : 1 * hs])
    f = sigmoid(gates[:, 1 * hs : 2 * hs])
    g = ftanh(gates[:, 2 * hs : 3 * hs])
    o = sigmoid(gates[:, 3 * hs : 4 * hs])
    c_next = f * c + i * g
    h_next = o * ftanh(c_next)
    return h_next, c_next


def _lstm_fixture(dtype, B=8, D=10, H=12, T=6, seed=2):
    rng = np.random.default_rng(seed)
    return {
        "wih": rng.standard_normal((4 * H, D)).astype(dtype),
        "whh": rng.standard_normal((4 * H, H)).astype(dtype),
        "bias": rng.standard_normal((4 * H,)).astype(dtype),
        "xs": [rng.standard_normal((B, D)).astype(dtype) for _ in range(T)],
        "gh": rng.standard_normal((B, H)).astype(dtype),
        "gc": rng.standard_normal((B, H)).astype(dtype),
        "B": B, "H": H, "T": T,
    }


def _run_lstm_chain(fix, dtype, fused: bool):
    wih = Tensor(fix["wih"].copy(), requires_grad=True)
    whh = Tensor(fix["whh"].copy(), requires_grad=True)
    bias = Tensor(fix["bias"].copy(), requires_grad=True)
    xts = [Tensor(v.copy(), requires_grad=True) for v in fix["xs"]]
    h = Tensor(np.zeros((fix["B"], fix["H"]), dtype))
    c = Tensor(np.zeros((fix["B"], fix["H"]), dtype))
    for t in range(fix["T"]):
        if fused:
            h, c = F.lstm_cell(xts[t], h, c, wih, whh, bias, fix["H"])
        else:
            h, c = _composed_cell(xts[t], h, c, wih, whh, bias, fix["H"])
    # drive gradients through BOTH outputs
    loss = (h * Tensor(fix["gh"])).sum() + (c * Tensor(fix["gc"])).sum()
    loss.backward()
    return h.data, c.data, wih.grad, whh.grad, bias.grad, [x.grad for x in xts]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_lstm_cell_chain_matches_composed_bitwise(dtype):
    fix = _lstm_fixture(dtype)
    h1, c1, gw1, gu1, gb1, gx1 = _run_lstm_chain(fix, dtype, fused=False)
    h2, c2, gw2, gu2, gb2, gx2 = _run_lstm_chain(fix, dtype, fused=True)
    _bits_equal("h", h1, h2)
    _bits_equal("c", c1, c2)
    _bits_equal("dwih", gw1, gw2)
    _bits_equal("dwhh", gu1, gu2)
    _bits_equal("db", gb1, gb2)
    for t in range(fix["T"]):
        _bits_equal(f"dx[{t}]", gx1[t], gx2[t])


def test_lstm_cell_c_only_loss_still_drives_gradients():
    # A loss reaching only c_next (gradcheck-style) must flow through the
    # stashed-cell-gradient plumbing identically to the composed form.
    dtype = np.float64
    fix = _lstm_fixture(dtype, T=1)

    def run(fused):
        wih = Tensor(fix["wih"].copy(), requires_grad=True)
        xt = Tensor(fix["xs"][0].copy(), requires_grad=True)
        whh = Tensor(fix["whh"].copy(), requires_grad=True)
        bias = Tensor(fix["bias"].copy(), requires_grad=True)
        h0 = Tensor(np.zeros((fix["B"], fix["H"]), dtype))
        c0 = Tensor(np.zeros((fix["B"], fix["H"]), dtype))
        fn = F.lstm_cell if fused else _composed_cell
        args = (xt, h0, c0, wih, whh, bias, fix["H"])
        _, c = fn(*args)
        c.sum().backward()
        return wih.grad, xt.grad

    gw1, gx1 = run(fused=False)
    gw2, gx2 = run(fused=True)
    _bits_equal("c-only dwih", gw1, gw2)
    _bits_equal("c-only dx", gx1, gx2)


# --------------------------------------------------------------------- #
# scaled_dot_attention: fused softmax-attention vs the composed chain


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("use_mask", [False, True])
@pytest.mark.parametrize("p", [0.0, 0.3])
def test_attention_matches_composed_bitwise(dtype, use_mask, p):
    rng = np.random.default_rng(3)
    B, Hh, Tq, Tk, dh = 2, 3, 5, 7, 4
    qv = rng.standard_normal((B, Hh, Tq, dh)).astype(dtype)
    kv = rng.standard_normal((B, Hh, Tk, dh)).astype(dtype)
    vv = rng.standard_normal((B, Hh, Tk, dh)).astype(dtype)
    g = rng.standard_normal((B, Hh, Tq, dh)).astype(dtype)
    scale = 1.0 / np.sqrt(dh)
    bias_arr = None
    if use_mask:
        m = rng.random((B, 1, Tq, Tk)) < 0.8
        bias_arr = np.where(m, 0.0, -1e9).astype(dtype)

    q1, k1, v1 = (Tensor(v.copy(), requires_grad=True) for v in (qv, kv, vv))
    scores = (q1 @ k1.transpose(0, 1, 3, 2)) * scale
    if bias_arr is not None:
        scores = scores + Tensor(bias_arr)
    attn = softmax(scores, axis=-1)
    attn = dropout(attn, p, np.random.default_rng(42), training=True)
    out1 = attn @ v1
    out1.backward(g)

    q2, k2, v2 = (Tensor(v.copy(), requires_grad=True) for v in (qv, kv, vv))
    out2 = F.scaled_dot_attention(
        q2, k2, v2, scale=scale, bias=bias_arr,
        dropout_p=p, rng=np.random.default_rng(42), training=True,
    )
    out2.backward(g)

    _bits_equal("fwd", out1.data, out2.data)
    _bits_equal("dq", q1.grad, q2.grad)
    _bits_equal("dk", k1.grad, k2.grad)
    _bits_equal("dv", v1.grad, v2.grad)


# --------------------------------------------------------------------- #
# layer_norm: single centering vs the ``xd.var`` form it replaced


def _layer_norm_var_reference(xd, wd, bd, g, eps=1e-5):
    """The pre-rewrite kernel: ``xd.var`` re-centres internally."""
    mu = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu) * inv
    out = xhat * wd + bd
    gw = _unbroadcast(g * xhat, wd.shape)
    gb = _unbroadcast(g, bd.shape)
    gx_hat = g * wd
    gx = (
        gx_hat
        - gx_hat.mean(axis=-1, keepdims=True)
        - xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True)
    ) * inv
    return out, gx, gw, gb


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dim", [1, 7, 32, 64])
def test_layer_norm_matches_var_form_bitwise(dtype, dim):
    rng = np.random.default_rng(5)
    # Offset + spread so the centering actually matters.
    xv = (rng.standard_normal((4, 9, dim)) * 3 + 5).astype(dtype)
    wv = rng.standard_normal((dim,)).astype(dtype)
    bv = rng.standard_normal((dim,)).astype(dtype)
    g = rng.standard_normal((4, 9, dim)).astype(dtype)

    x, w, b = (Tensor(v.copy(), requires_grad=True) for v in (xv, wv, bv))
    out = F.layer_norm(x, w, b)
    out.backward(g)

    ref_out, ref_gx, ref_gw, ref_gb = _layer_norm_var_reference(xv, wv, bv, g)
    assert out.dtype == dtype
    _bits_equal("fwd", ref_out, out.data)
    _bits_equal("dx", ref_gx, x.grad)
    _bits_equal("dweight", ref_gw, w.grad)
    _bits_equal("dbias", ref_gb, b.grad)


# --------------------------------------------------------------------- #
# LSTM.forward: preallocated stacked buffer vs stack()-of-steps


def test_lstm_forward_matches_stack_of_steps_bitwise():
    from repro.nn.recurrent import LSTM

    T, B, D, H = 7, 4, 6, 5
    rng = np.random.default_rng(4)
    xv = rng.standard_normal((T, B, D)).astype(np.float32)
    g = rng.standard_normal((T, B, H)).astype(np.float32)

    def run(composed: bool):
        lstm = LSTM(D, H).seed(11)
        x = Tensor(xv.copy(), requires_grad=True)
        if composed:
            # The form LSTM.forward replaced: step the cell and stack().
            h, c = lstm.cell.init_state(B)
            steps = []
            for t in range(T):
                h, c = lstm.cell(x[t], (h, c))
                steps.append(h)
            out = F.stack(steps, axis=0)
        else:
            out, (h, c) = lstm(x)
        out.backward(g)
        grads = {name: p.grad for name, p in lstm.named_parameters()}
        return out.data, h.data, c.data, x.grad, grads

    o1, h1, c1, gx1, gp1 = run(composed=True)
    o2, h2, c2, gx2, gp2 = run(composed=False)
    _bits_equal("outputs", o1, o2)
    _bits_equal("h_final", h1, h2)
    _bits_equal("c_final", c1, c2)
    _bits_equal("dx", gx1, gx2)
    assert gp1.keys() == gp2.keys() and gp1
    for name in gp1:
        _bits_equal(f"d{name}", gp1[name], gp2[name])


# --------------------------------------------------------------------- #
# lstm_sequence: one node with BPTT inside vs the per-step cell chain


def _lstm_sequence_chain(x, wih, whh, bias, hs, masks):
    """The per-step form ``lstm_sequence`` replaced: slice each step, run
    ``lstm_cell`` (with W_hh masked for the call, as WeightDrop did) and
    stack the hidden states."""
    batch, steps, _ = x.shape
    h = Tensor(np.zeros((batch, hs), x.dtype))
    c = Tensor(np.zeros((batch, hs), x.dtype))
    outs = []
    for t in range(steps):
        original = whh.data
        if masks is not None:
            whh.data = original * masks[t]
        try:
            h, c = F.lstm_cell(x[:, t, :], h, c, wih, whh, bias, hs)
        finally:
            whh.data = original
        outs.append(h)
    return F.stack(outs, axis=1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("T", [1, 7, 12])
def test_lstm_sequence_matches_cell_chain_bitwise(dtype, masked, T):
    B, D, H = 5, 6, 8
    rng = np.random.default_rng(6)
    xv = rng.standard_normal((B, T, D)).astype(dtype)
    wv = rng.standard_normal((4 * H, D)).astype(dtype)
    uv = rng.standard_normal((4 * H, H)).astype(dtype)
    bv = rng.standard_normal((4 * H,)).astype(dtype)
    g = rng.standard_normal((B, T, H)).astype(dtype)
    masks = None
    if masked:
        masks = (rng.random((T, 4 * H, H)) < 0.7).astype(dtype) / 0.7

    def run(fused):
        x, wih, whh, bias = (
            Tensor(v.copy(), requires_grad=True) for v in (xv, wv, uv, bv)
        )
        if fused:
            out = F.lstm_sequence(x, wih, whh, bias, H, whh_masks=masks)
        else:
            out = _lstm_sequence_chain(x, wih, whh, bias, H, masks)
        out.backward(g)
        return out.data, x.grad, wih.grad, whh.grad, bias.grad

    ref = run(fused=False)
    got = run(fused=True)
    assert got[0].dtype == dtype
    for name, a, b in zip(("fwd", "dx", "dwih", "dwhh", "db"), ref, got):
        _bits_equal(name, a, b)


# --------------------------------------------------------------------- #
# the recurrent model layers: lstm_sequence vs their per-step loops


def _awd_layer_per_step(self, bundle):
    x = bundle["hidden"]
    h, c = self.wrapped.inner.init_state(x.shape[0])
    outs = []
    for t in range(x.shape[1]):
        h, c = self.wrapped(x[:, t, :], (h, c))
        outs.append(h)
    out = dict(bundle)
    out["hidden"] = F.stack(outs, axis=1)
    return out


def _gnmt_encoder_per_step(self, bundle):
    x = bundle[self.in_key]
    h, c = self.cell.init_state(x.shape[0])
    outs = []
    for t in range(x.shape[1]):
        h, c = self.cell(x[:, t, :], (h, c))
        outs.append(h)
    seq = F.stack(outs, axis=1)
    out = dict(bundle)
    out["enc_out"] = seq + x if self.residual else seq
    out.pop("src_emb", None)
    return out


def _model_step(workload, per_step, monkeypatch):
    from repro.models import awd_lstm, gnmt
    from repro.models.registry import build_workload

    if per_step:
        monkeypatch.setattr(
            awd_lstm.WeightDroppedLSTMLayer, "forward", _awd_layer_per_step
        )
        monkeypatch.setattr(gnmt.EncoderLSTMLayer, "forward", _gnmt_encoder_per_step)
    spec = build_workload(workload)
    model = spec.build_model().seed(3)
    model.train()
    batch = next(iter(spec.make_train_loader(spec.batch_size, 0)))
    loss = model.loss(batch)
    loss.backward()
    grads = {name: p.grad for name, p in model.named_parameters()}
    rngs = [
        layer.wrapped._rng.bit_generator.state
        for layer in model.layers
        if isinstance(layer, awd_lstm.WeightDroppedLSTMLayer)
    ]
    monkeypatch.undo()
    return loss.data, grads, rngs


@pytest.mark.parametrize("workload", ["awd", "gnmt"])
def test_recurrent_model_step_matches_per_step_layers_bitwise(workload, monkeypatch):
    loss1, grads1, rngs1 = _model_step(workload, True, monkeypatch)
    loss2, grads2, rngs2 = _model_step(workload, False, monkeypatch)
    assert loss1.tobytes() == loss2.tobytes()
    assert grads1.keys() == grads2.keys() and grads1
    for name in grads1:
        assert grads1[name] is not None, name
        assert grads1[name].tobytes() == grads2[name].tobytes(), name
    # WeightDrop's generators end where T per-step draws leave them, so
    # checkpointed RNG streams are unchanged.
    assert rngs1 == rngs2
    assert len(rngs1) == (2 if workload == "awd" else 0)
