"""LSTM layers (the GNMT and AWD-LSTM building block).

The cell computes the four gates in one fused matmul per input/hidden pair
— ``gates = x @ W_ih^T + h @ W_hh^T + b`` — which keeps arithmetic
intensity high per the HPC guides (one big GEMM instead of four small
ones).  The time steps still run one after another, vectorized over the
batch.  Layers that need only the hidden-state sequence (the GNMT encoder,
AWD-LSTM) run the whole loop inside one ``lstm_sequence`` graph node with
BPTT in its backward; this module's per-step cell serves callers that need
each step's state, such as the attention decoder.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, zeros
from repro.tensor.functional import lstm_cell

__all__ = ["LSTMCell", "LSTM"]


class LSTMCell(Module):
    """Single-step LSTM with fused gate projection."""

    def __init__(self, input_size: int, hidden_size: int) -> None:
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("LSTMCell sizes must be positive")
        self.input_size = input_size
        self.hidden_size = hidden_size
        bound = 1.0 / np.sqrt(hidden_size)
        self.weight_ih = Parameter(init.uniform((4 * hidden_size, input_size), self._rng, bound))
        self.weight_hh = Parameter(init.uniform((4 * hidden_size, hidden_size), self._rng, bound))
        self.bias = Parameter(init.uniform((4 * hidden_size,), self._rng, bound))

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        h, c = state
        if x.shape[-1] != self.input_size:
            raise ValueError(f"LSTMCell expected input dim {self.input_size}, got {x.shape}")
        return lstm_cell(
            x, h, c, self.weight_ih, self.weight_hh, self.bias, self.hidden_size
        )

    def init_state(self, batch_size: int) -> tuple[Tensor, Tensor]:
        return (zeros(batch_size, self.hidden_size), zeros(batch_size, self.hidden_size))

    def __repr__(self) -> str:
        return f"LSTMCell(in={self.input_size}, hidden={self.hidden_size})"


class LSTM(Module):
    """Unidirectional single-layer LSTM over (T, B, D) sequences."""

    def __init__(self, input_size: int, hidden_size: int) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.cell = LSTMCell(input_size, hidden_size)

    def forward(
        self, x: Tensor, state: tuple[Tensor, Tensor] | None = None
    ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """Returns (outputs stacked over time, final (h, c))."""
        if x.ndim != 3:
            raise ValueError(f"LSTM expects (T, B, D) input, got shape {x.shape}")
        seq_len, batch, _ = x.shape
        if state is None:
            state = self.cell.init_state(batch)
        h, c = state
        cell = self.cell
        # Write each step's output straight into the preallocated stacked
        # buffer instead of stack()-ing T tensors at the end; the joining
        # node keeps stack's exact split backward, so outputs and grads are
        # bitwise identical to the composed form (tested).
        steps: list[Tensor] = []
        out_buf: np.ndarray | None = None
        for t in range(seq_len):
            h, c = cell(x[t], (h, c))
            if out_buf is None:
                out_buf = np.empty((seq_len, *h.shape), dtype=h.dtype)
            out_buf[t] = h.data
            steps.append(h)

        def backward(g: np.ndarray):
            pieces = np.split(g, seq_len, axis=0)
            return tuple(p.squeeze(axis=0) for p in pieces)

        outputs = Tensor._make(out_buf, tuple(steps), backward, "stack")
        return outputs, (h, c)

    def __repr__(self) -> str:
        return f"LSTM(in={self.input_size}, hidden={self.hidden_size})"
