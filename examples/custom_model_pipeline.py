"""Bring your own model: pipeline a custom network through the full stack.

Run:  python examples/custom_model_pipeline.py

Shows the adoption path for a model that is not in the zoo:
  1. express it as PipelineLayers with cost annotations,
  2. partition it with the PipeDream DP,
  3. simulate schedules on a custom cluster,
  4. train it with the elastic-averaging framework.

The model here is a small MLP autoencoder on synthetic data — nothing
like the paper's workloads, which is the point: the machinery is generic.
"""

import numpy as np

from repro.core import ElasticAveragingFramework
from repro.graph import model_costs, partition_balanced
from repro.models.pipeline_model import ActivationBundle, PipelineLayer, PipelineModel
from repro.nn import Linear
from repro.optim import Adam
from repro.schedules import AdvanceFPSchedule, PipelineSimRunner, StageCosts
from repro.sim import ClusterSpec, Simulator, make_cluster
from repro.tensor import relu
from repro.utils import format_table


class DenseBlock(PipelineLayer):
    """Linear + ReLU over the bundle's ``h`` entry."""

    def __init__(self, d_in: int, d_out: int, in_key: str = "h") -> None:
        super().__init__()
        self.fc = Linear(d_in, d_out)
        self.d_in, self.d_out = d_in, d_out
        self.in_key = in_key

    def forward(self, bundle: ActivationBundle) -> ActivationBundle:
        from repro.tensor import Tensor

        out = dict(bundle)
        x = bundle[self.in_key]
        if not isinstance(x, Tensor):  # raw ndarray input on the first layer
            x = Tensor(np.asarray(x, dtype=np.float32))
        out["h"] = relu(self.fc(x))
        # "x" is carried through to the reconstruction head, like labels
        # travel to the last stage in the paper's workloads.
        return out

    def flops_per_sample(self) -> float:
        return self.d_in * self.d_out

    def activation_floats_per_sample(self) -> float:
        return self.d_out + 64  # hidden + the carried input


class ReconstructionHead(PipelineLayer):
    def __init__(self, d_in: int, d_out: int) -> None:
        super().__init__()
        self.fc = Linear(d_in, d_out)
        self.d_in, self.d_out = d_in, d_out

    def forward(self, bundle: ActivationBundle) -> ActivationBundle:
        from repro.tensor import Tensor

        out = dict(bundle)
        pred = self.fc(bundle["h"])
        target = Tensor(np.asarray(bundle["x"], dtype=np.float32))
        diff = pred - target
        out["loss"] = (diff * diff).mean()
        del out["h"]
        return out

    def flops_per_sample(self) -> float:
        return self.d_in * self.d_out

    def activation_floats_per_sample(self) -> float:
        return 1.0


def build_autoencoder(width: int = 64, depth: int = 6) -> PipelineModel:
    dims = [width, 48, 32, 24, 32, 48, width]
    layers: list[PipelineLayer] = [DenseBlock(dims[0], dims[1], in_key="x")]
    for i in range(1, depth):
        layers.append(DenseBlock(dims[i], dims[i + 1]))
    layers.append(ReconstructionHead(dims[-1], width))
    return PipelineModel(layers=layers, name="autoencoder", metric_mode="min")


def main() -> None:
    model = build_autoencoder()
    costs = model_costs(model)
    partition = partition_balanced(costs, num_stages=4, bandwidth_bytes_per_sec=1.25e8, flops_per_sec=2e8)
    print("Partition boundaries over 4 simulated GPUs:", partition.boundaries)

    # Simulate two schedules on a 2-node cluster.
    rows = []
    for advance in (0, 4):
        sim = Simulator()
        cluster = make_cluster(sim, 4, spec=ClusterSpec(nodes=2, gpus_per_node=2, memory_bytes=2**31))
        stage_costs = StageCosts.from_partition(costs, partition, mb_size=8.0, activation_byte_scale=2000.0)
        runner = PipelineSimRunner(
            cluster, AdvanceFPSchedule(advance), stage_costs, num_micro=8, mb_size=8.0, num_pipelines=2,
            with_reference_model=True,
        )
        res = runner.run(iterations=2)
        rows.append([f"advance={advance}", round(res.time_per_batch * 1e3, 2), round(max(res.peak_memory) / 2**20, 1)])
    print(format_table(["schedule", "ms/batch", "peak MiB"], rows, title="\nSimulated performance (N=2)"))

    # Real elastic-averaging training on synthetic data.
    print("\nTraining two parallel autoencoders with elastic averaging...")
    rng = np.random.default_rng(0)
    basis = rng.standard_normal((8, 64)).astype(np.float32)

    def fresh_batch(n=32):
        codes = rng.standard_normal((n, 8)).astype(np.float32)
        return {"x": codes @ basis}

    models = [build_autoencoder().seed(0) for _ in range(2)]
    models[1].load_state_dict(models[0].state_dict())
    framework = ElasticAveragingFramework(models, queue_delay=1)
    optimizers = [Adam(m.parameters(), lr=1e-3) for m in models]

    for step in range(120):
        for i, (m, opt) in enumerate(zip(models, optimizers)):
            before = framework.capture(i)
            m.zero_grad()
            loss = m.loss(fresh_batch())
            loss.backward()
            opt.step()
            framework.commit(i, before)
        framework.end_iteration()
        if step % 30 == 29:
            print(f"  step {step + 1}: loss {loss.item():.4f}, model divergence {framework.divergence():.5f}")

    print("Done — the reference model is the deployable average of both pipelines.")


if __name__ == "__main__":
    main()
