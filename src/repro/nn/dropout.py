"""Dropout variants, including the DropConnect used by AWD-LSTM."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor import Tensor, dropout

__all__ = ["Dropout", "WeightDrop"]


class Dropout(Module):
    """Standard inverted dropout; a no-op in eval mode."""

    def __init__(self, p: float = 0.5) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout p must be in [0, 1), got {p}")
        self.p = p

    def forward(self, x: Tensor) -> Tensor:
        return dropout(x, self.p, self._rng, training=self.training)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class WeightDrop(Module):
    """DropConnect on the recurrent weights of a wrapped module.

    This is the "weight-dropped" part of AWD-LSTM [Merity et al. 2018]:
    before each forward in training mode, the named weight matrices are
    replaced by masked copies.  The mask is resampled per call.
    """

    def __init__(self, inner: Module, weight_names: list[str], p: float = 0.5) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"weight-drop p must be in [0, 1), got {p}")
        self.inner = inner
        self.weight_names = list(weight_names)
        self.p = p
        params = dict(inner.named_parameters())
        for name in self.weight_names:
            if name not in params:
                raise KeyError(f"WeightDrop: {name!r} not found in inner module parameters")

    def draw_masks(self, steps: int = 1) -> dict[str, np.ndarray] | None:
        """DropConnect masks for ``steps`` consecutive forward calls, each
        weight's stacked on a leading ``steps`` axis; None when inactive.

        One ``rng.random((steps, *shape))`` call yields the same stream as
        ``steps`` per-call draws and leaves the generator in the same
        state.  That holds for one dropped weight only: per-call draws
        interleave several weights step by step.
        """
        if not (self.training and self.p > 0.0):
            return None
        if steps > 1 and len(self.weight_names) > 1:
            raise ValueError("WeightDrop draws multi-step masks for one weight only")
        params = dict(self.inner.named_parameters())
        keep = 1.0 - self.p
        masks = {}
        for name in self.weight_names:
            param = params[name]
            draw = self._rng.random((steps, *param.shape))
            masks[name] = (draw < keep).astype(param.dtype) / keep
        return masks

    def forward(self, *args, **kwargs):
        masks = self.draw_masks()
        if masks is None:
            return self.inner(*args, **kwargs)
        params = dict(self.inner.named_parameters())
        originals: dict[str, np.ndarray] = {}
        for name, mask in masks.items():
            param = params[name]
            originals[name] = param.data
            param.data = param.data * mask[0]
        try:
            return self.inner(*args, **kwargs)
        finally:
            for name, data in originals.items():
                params[name].data = data

    def __repr__(self) -> str:
        return f"WeightDrop(p={self.p}, weights={self.weight_names})"
