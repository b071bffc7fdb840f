"""The elastic-averaging-based framework (§3.2).

N *parallel models* each train on their own batches with a user-chosen
optimizer (Adam, SGD, ASGD, ... — the framework never looks inside the
optimizer, which is the §3.1 point of difference from EASGD-style coupled
optimizers).  A *reference model* holds the center the parallel models
are pulled toward.

Per iteration, for each parallel model i (§3.2 steps 1-5):

1. the pipeline computes a local update Δ_i = opt_step(x_i) − x_i,
2. the model is diluted toward the reference:
   x_i ← (1−α)·x_i' + α·x_ref  with α = 1/N (empirical default, [18]),
3. Δ_i is posted to the reference's message queue (async),
4. the reference process accumulates arriving updates,
5. once all N updates of an iteration arrived it applies the normalized
   accumulated update: x_ref ← x_ref + normalize(ΣΔ_i), where the
   normalization is "mean" (1/N, the default — the reference tracks the
   parallel-model average of Figure 5) or "sum" (the first-order
   sequential-equivalent reading; see the attribute docstring below).

With a synchronous queue, "mean" keeps the reference a bounded-lag
tracker of the parallel-model average — an invariant the tests assert;
with an async queue, step 2 may see a reference that lags by the queue
delay, which is the configuration the paper runs.

Every rule is elementwise, so each runs once over the concatenated
parameter vector: the reference and the accumulator are flat float32
vectors in the models' shared walk order, and the framework is their
only writer (see docs/elastic_averaging.md, "State layout").
"""

from __future__ import annotations

from functools import reduce
from types import MappingProxyType
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.messages import MessageQueue
from repro.models.pipeline_model import PipelineModel

__all__ = ["ElasticAveragingFramework"]

StateDict = dict[str, np.ndarray]

#: exponential buckets for weight-space RMS magnitudes (α-pulls and
#: applied reference updates): 1e-8 .. ~5.4, factor-2 resolution.
_RMS_BUCKETS = tuple(1e-8 * (2.0**i) for i in range(30))


def _layout(model: PipelineModel) -> list[tuple[str, tuple[int, ...]]]:
    return [(name, p.data.shape) for name, p in model.named_parameters()]


class ElasticAveragingFramework:
    """Coordinates N parallel :class:`PipelineModel`\\ s and a reference.

    Parameters
    ----------
    parallel_models:
        The N models, structurally identical (same parameter walk order,
        shapes and a single dtype), typically initialized from the same
        seed (the reference starts at their common value).
    alpha:
        Elastic pull coefficient; ``None`` means the paper's 1/N default.
    queue_delay:
        Iterations of staleness on the update queue (0 = synchronous).
    """

    def __init__(
        self,
        parallel_models: Sequence[PipelineModel],
        alpha: float | None = None,
        queue_delay: int = 1,
        update_normalization: str = "mean",
        registry=None,
    ) -> None:
        if not parallel_models:
            raise ValueError("need at least one parallel model")
        if update_normalization not in ("sum", "mean"):
            raise ValueError(f"update_normalization must be 'sum' or 'mean', got {update_normalization!r}")
        self.models = list(parallel_models)
        n = len(self.models)
        #: whether alpha tracks 1/N automatically — resize() renormalizes
        #: an auto alpha to 1/N' but leaves an explicit one alone.
        self._alpha_auto = alpha is None
        self.alpha = (1.0 / n) if alpha is None else float(alpha)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        #: §3.2 step 5 says the reference "normalizes and applies the
        #: accumulated update".  Two readings are implemented:
        #:   "mean" (default) — x_ref += (1/N) sum(delta): the reference
        #:     is a bounded-lag tracker of the parallel-model average
        #:     (the Figure-5 picture) and the dynamics are stable for
        #:     every optimizer we tested.
        #:   "sum" — x_ref += sum(delta): first-order equivalent to the
        #:     sequential trajectory; it makes Figure 14's epoch parity
        #:     an identity but is oscillation-prone at this miniature's
        #:     compressed learning rates, so it is opt-in.
        #: See docs/elastic_averaging.md for the statistical analysis.
        self.update_normalization = update_normalization
        self._names_shapes = _layout(self.models[0])
        if any(_layout(m) != self._names_shapes for m in self.models[1:]):
            raise ValueError("parallel models have mismatched parameter structure")
        dtypes = {p.data.dtype for m in self.models for p in m.parameters()}
        if len(dtypes) != 1:
            raise TypeError(f"parallel models mix parameter dtypes {sorted(map(str, dtypes))}")
        dtype = dtypes.pop()
        # One (slice, shape) per parameter over the flat vectors.
        ends = np.cumsum([0] + [int(np.prod(s)) for _, s in self._names_shapes]).tolist()
        self._slices = [(slice(a, b), s) for a, b, (_, s) in zip(ends, ends[1:], self._names_shapes)]
        off = ends[-1]
        self._ref = np.empty(off, dtype=np.float32)
        self._acc = np.zeros(off, dtype=np.float32)
        self._reference = MappingProxyType(self._named_views(self._ref))
        for view in self._reference.values():
            view.flags.writeable = False
        # Two gather buffers in the parameters' dtype: the hot path's only
        # fresh allocations are the arrays that outlive the call (the
        # queued Δ and the diluted parameter vector).
        self._work = (np.empty(off, dtype=dtype), np.empty(off, dtype=dtype))
        self.queue: MessageQueue[np.ndarray] = MessageQueue(delay=queue_delay, name="updates")
        self._received = 0
        #: optional repro.obs MetricRegistry: commit() publishes the RMS
        #: magnitude of each α-pull and reference_step() the RMS of each
        #: applied reference update.  All telemetry is computed from
        #: values the update rules produce anyway, so instrumented and
        #: bare runs evolve the weights bitwise identically (tested).
        self.registry = registry
        # Reference starts at the average of the parallel models.
        self.recenter()

    @property
    def num_parallel(self) -> int:
        return len(self.models)

    @property
    def reference(self) -> Mapping[str, np.ndarray]:
        """Read-only ``{name: array}`` views of the flat reference."""
        return self._reference

    def _named_views(self, flat: np.ndarray) -> StateDict:
        return {
            name: flat[sl].reshape(shape)
            for (name, _), (sl, shape) in zip(self._names_shapes, self._slices)
        }

    def _gather(self, named: Mapping[str, np.ndarray], what: str) -> np.ndarray:
        """Concatenate a ``{name: array}`` state into walk order (a copy)."""
        if set(named) != {name for name, _ in self._names_shapes}:
            raise KeyError(f"{what} does not match the parameter names")
        if any(np.shape(named[name]) != shape for name, shape in self._names_shapes):
            raise ValueError(f"{what} does not match the parameter shapes")
        return np.concatenate([np.ravel(named[name]) for name, _ in self._names_shapes])

    # ------------------------------------------------------------------ #
    # state: the framework is the only writer of the reference, the
    # accumulator and the queue's in-flight deltas

    def state_dict(self) -> dict[str, Any]:
        """A copy of every piece of averaging state (checkpointing).

        The reference, the accumulator and each in-flight delta come back
        as ``{name: array}`` dicts in the parameter walk order; pending
        deltas are ``(visible_at, {name: array})`` pairs in queue order.
        """
        return {
            "alpha": self.alpha,
            "alpha_auto": self._alpha_auto,
            "update_normalization": self.update_normalization,
            "reference": self._named_views(self._ref.copy()),
            "accumulated": self._named_views(self._acc.copy()),
            "received": self._received,
            "queue_delay": self.queue.delay,
            "queue_now": self.queue.now,
            "pending": [
                (visible_at, self._named_views(delta.copy()))
                for visible_at, delta in self.queue.pending()
            ],
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore state produced by :meth:`state_dict` (or a checkpoint)."""
        reference = self._gather(state["reference"], "reference")
        accumulated = self._gather(state["accumulated"], "accumulated")
        pending = [
            (int(visible_at), self._gather(delta, "pending delta"))
            for visible_at, delta in state["pending"]
        ]
        self.alpha = float(state["alpha"])
        self._alpha_auto = bool(state["alpha_auto"])
        self.update_normalization = state["update_normalization"]
        self._ref[...] = reference
        self._acc[...] = accumulated
        self._received = int(state["received"])
        self.queue = MessageQueue(delay=int(state["queue_delay"]), name=self.queue.name)
        self.queue.restore(int(state["queue_now"]), pending)

    def recenter(self) -> None:
        """Reset the reference to the parallel models' average and discard
        the in-flight round (construction, and a restart that lost every
        process's state)."""
        flats = (
            np.concatenate([p.data.ravel() for p in m.parameters()]).astype(np.float64)
            for m in self.models
        )
        self._ref[...] = reduce(np.add, flats) / len(self.models)
        self._discard_round()

    # ------------------------------------------------------------------ #
    # elastic resize (repro.resilience): evict / rejoin pipelines

    def resize(self, keep: Sequence[int] | int, alpha: float | None = None) -> None:
        """Shrink to a subset of the parallel models and renormalize α.

        ``keep`` is either the new pipeline count N′ (the first N′ models
        survive) or an explicit list of surviving indices.  If the
        framework was constructed with the automatic α = 1/N, α becomes
        1/N′; an explicitly chosen α is kept unless ``alpha`` overrides it.

        The in-flight averaging round is discarded: partial accumulations
        and queued deltas were produced under the old N's normalization
        (and possibly by the dead pipeline), so mixing them into a 1/N′
        round would break the conservation property the tests assert.
        The reference itself is untouched — that is what makes eviction
        semantics-preserving: survivors keep pulling toward the same
        center, now with weight 1/N′.
        """
        if isinstance(keep, int):
            keep = list(range(keep))
        keep = list(keep)
        if not keep:
            raise ValueError("resize needs at least one surviving model")
        if len(set(keep)) != len(keep):
            raise ValueError(f"duplicate indices in {keep}")
        if any(not 0 <= i < len(self.models) for i in keep):
            raise ValueError(f"index out of range in {keep}")
        self.models = [self.models[i] for i in keep]
        if alpha is not None:
            self.alpha = float(alpha)
        elif self._alpha_auto:
            self.alpha = 1.0 / len(self.models)
        self._discard_round()

    def remove_model(self, index: int) -> None:
        """Evict one parallel model (a crashed pipeline)."""
        if len(self.models) == 1:
            raise ValueError("cannot evict the last parallel model")
        self.resize([i for i in range(len(self.models)) if i != index])

    def add_model(self, model: PipelineModel, seed_from_reference: bool = True) -> int:
        """Re-admit a pipeline; by default it restarts from the reference.

        Seeding from the reference is what keeps a rejoin invisible to the
        center: the newcomer's first dilution is a no-op and its first
        delta is measured from the reference, exactly as if it had always
        been there at the fixed point.  Returns the new model's index.
        """
        if _layout(model) != self._names_shapes:
            raise ValueError("rejoining model has mismatched parameter structure")
        if seed_from_reference:
            model.load_state_dict(self.reference)
        self.models.append(model)
        if self._alpha_auto:
            self.alpha = 1.0 / len(self.models)
        self._discard_round()
        return len(self.models) - 1

    def _discard_round(self) -> None:
        """Reset the in-flight accumulate round after a membership change."""
        self._received = 0
        self.queue.clear()
        self._acc.fill(0.0)
        self._param_lists = [list(m.named_parameters()) for m in self.models]

    # ------------------------------------------------------------------ #
    # pipeline-side steps

    def capture(self, index: int) -> StateDict:
        """Snapshot model ``index`` before its optimizer step (step 1)."""
        return {name: p.data.copy() for name, p in self._param_lists[index]}

    def commit(self, index: int, before: Mapping[str, np.ndarray]) -> None:
        """After the optimizer step: compute Δ, dilute, post (steps 2-3).

        ``casting="no"`` makes the gathers the dtype guard too: a
        parameter an optimizer rebound to another dtype raises instead of
        being silently cast.
        """
        plist = self._param_lists[index]
        data, work = self._work
        np.concatenate([p.data.ravel() for _, p in plist], out=data, casting="no")
        np.concatenate([before[name].ravel() for name, _ in plist], out=work, casting="no")
        delta = data - work
        # Step 2: dilute toward the (possibly stale) reference.  α·x_ref
        # runs in the reference's float32 and is widened on store, like
        # the composed expression (1−α)·x′ + α·x_ref.
        np.multiply(self.alpha, self._ref, out=work)
        diluted = np.multiply(1.0 - self.alpha, data)
        diluted += work
        for (_, param), (sl, shape) in zip(plist, self._slices):
            param.data = diluted[sl].reshape(shape)
        self.queue.put(delta)
        if self.registry is not None and self.registry.enabled:
            move = diluted.astype(np.float64) - data
            self.registry.counter("elastic.commits", model=index).inc()
            self.registry.histogram(
                "elastic.pull_rms", buckets=_RMS_BUCKETS, model=index
            ).observe(self._rms(move))
            self.registry.gauge("elastic.alpha").set(self.alpha)

    def _rms(self, values: np.ndarray) -> float:
        """RMS of a flat float64 vector, summed per parameter slice."""
        squares = values**2
        total = 0.0
        for sl, _ in self._slices:
            total += float(squares[sl].sum())
        return float(np.sqrt(total / max(values.size, 1)))

    # ------------------------------------------------------------------ #
    # reference-side steps

    def reference_step(self) -> bool:
        """Steps 4-5: drain arrived updates; apply once N accumulated.

        Returns True if the reference advanced this call.
        """
        acc = self._acc
        for delta in self.queue.drain():
            acc += delta
            self._received += 1
        if self._received < self.num_parallel:
            return False
        scale = 1.0 if self.update_normalization == "sum" else 1.0 / self.num_parallel
        acc *= scale  # the applied update; the accumulator is reset below
        self._ref += acc
        if self.registry is not None and self.registry.enabled:
            self.registry.counter("elastic.reference_updates").inc()
            self.registry.histogram(
                "elastic.update_rms", buckets=_RMS_BUCKETS
            ).observe(self._rms(acc.astype(np.float64)))
        acc.fill(0.0)
        self._received = 0
        return True

    def end_iteration(self) -> bool:
        """Advance the queue clock, then run the reference process."""
        self.queue.tick()
        return self.reference_step()

    # ------------------------------------------------------------------ #
    # introspection

    def reference_model(self, template: PipelineModel) -> PipelineModel:
        """Load the reference weights into ``template`` (for evaluation)."""
        template.load_state_dict(self.reference)
        return template

    def divergence(self) -> float:
        """RMS distance of parallel models from the reference — the
        quantity the elastic term keeps bounded (Figure 5's rationale)."""
        total = 0.0
        count = 0
        for model in self.models:
            for name, param in model.named_parameters():
                diff = param.data.astype(np.float64) - self.reference[name]
                total += float((diff**2).sum())
                count += diff.size
        return float(np.sqrt(total / max(count, 1)))
