"""Per-workload simulator calibrations.

The CPU-sized models are ~20x narrower than the paper's; flops shrink
quadratically with width but byte quantities only linearly, so the raw
cost model would make communication and memory look artificially cheap.
Each workload therefore carries two re-inflation factors chosen so the
simulated regime matches the paper's testbed ratios:

* ``activation_byte_scale`` — makes one micro-batch's inter-node
  activation transfer cost the same order as its compute (the 1 Gbps
  regime where 1F1B's exposed communication matters, Figures 2/7/17);
* ``param_byte_scale`` — makes (a) a DDP all-reduce cost several batch
  times (Figure 11's 4.7x) and (b) PipeDream's K-k weight versions
  overflow device memory on BERT (the Figure 11/12 OOM) while single- and
  double-version systems fit.

These are engineering calibrations of a simulator, not measurements; the
shapes they produce (who wins, crossovers) are validated against the
paper in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.graph.cost_model import LayerCost, model_costs
from repro.graph.partitioner import Partition, partition_balanced, search_partition_placement
from repro.models.registry import WorkloadSpec, build_workload
from repro.sim.cluster import ClusterSpec
from repro.sim.device import UtilizationCurve
from repro.sim.hetero import hetero_variant

__all__ = ["SimCalibration", "SIM_CALIBRATIONS", "calibration_for"]

MIB = 2**20


@dataclass(frozen=True)
class SimCalibration:
    """Per-workload simulator constants (see the module docstring)."""
    workload: str
    num_devices: int
    batch_size: int
    activation_byte_scale: float
    param_byte_scale: float
    memory_capacity_bytes: int  # per device
    stash_multiplier: float = 6.0  # internal activations per output byte
    optimizer_state_factor: float = 2.0  # Adam: m and v per weight
    #: kernel-saturation curve; AWD's small LSTM kernels need much larger
    #: micro-batches to approach peak (the paper's "maximize the
    #: micro-batch size" regime), so its b_half is far to the right.
    curve_u_max: float = 0.95
    curve_u_floor: float = 0.12
    curve_b_half: float = 10.0
    #: DDP all-reduce achieves a fraction of line rate; per-workload
    #: because bucket sizes and overlap differ with model shape.
    allreduce_inefficiency: float = 3.5

    def cluster_spec(self, variant: str | None = None) -> ClusterSpec:
        """The workload's cluster; ``variant`` applies one of the canned
        heterogeneous shapes from :mod:`repro.sim.hetero` on top of it.
        ``None`` returns exactly the uniform spec as before."""
        if self.num_devices % 2 != 0:
            raise ValueError("paper clusters have 2 GPUs per node")
        base = ClusterSpec(
            nodes=self.num_devices // 2,
            gpus_per_node=2,
            memory_bytes=self.memory_capacity_bytes,
            curve=UtilizationCurve(
                u_max=self.curve_u_max,
                u_floor=self.curve_u_floor,
                b_half=self.curve_b_half,
            ),
        )
        if variant is None:
            return base
        return hetero_variant(variant, base)

    def layer_costs(self, spec: WorkloadSpec | None = None) -> list[LayerCost]:
        spec = spec or build_workload(self.workload)
        return model_costs(spec.build_model())

    def partition(self, costs: list[LayerCost] | None = None) -> Partition:
        costs = costs or self.layer_costs()
        cspec = self.cluster_spec()
        return partition_balanced(
            costs,
            self.num_devices,
            bandwidth_bytes_per_sec=cspec.inter_node_bandwidth / self.activation_byte_scale,
            flops_per_sec=cspec.peak_flops,
            comm_weight=0.2,
        )

    def hetero_plan(
        self,
        variant: str,
        costs: list[LayerCost] | None = None,
        with_memory_caps: bool = False,
    ) -> tuple[Partition, tuple[int, ...]]:
        """Balanced partition + placement for a canned hetero variant.

        Uses the same calibration constants as :meth:`partition` (byte
        re-inflation, comm_weight 0.2) but against the variant's
        per-device speeds and link matrix.  ``with_memory_caps`` adds the
        variant's per-device capacities as DP feasibility caps, charging
        each layer 3x its (re-inflated) parameter bytes.
        """
        costs = costs or self.layer_costs()
        cspec = self.cluster_spec(variant)
        matrix = [
            [bw / self.activation_byte_scale for bw in row]
            for row in cspec.bandwidth_matrix()
        ]
        part, perm, _ = search_partition_placement(
            costs,
            self.num_devices,
            device_speeds=cspec.speed_vector(),
            bandwidth_matrix=matrix,
            memory_caps=cspec.memory_vector() if with_memory_caps else None,
            flops_per_sec=cspec.peak_flops,
            comm_weight=0.2,
            layer_memory_bytes=[
                3.0 * c.param_bytes * self.param_byte_scale for c in costs
            ],
        )
        return part, perm


SIM_CALIBRATIONS: dict[str, SimCalibration] = {
    "gnmt": SimCalibration(
        workload="gnmt",
        num_devices=6,
        batch_size=128,
        activation_byte_scale=128.0,
        param_byte_scale=88.0,
        memory_capacity_bytes=640 * MIB,
        stash_multiplier=3.75,
    ),
    "bert": SimCalibration(
        workload="bert",
        num_devices=6,
        batch_size=32,
        activation_byte_scale=100.0,
        param_byte_scale=160.0,
        memory_capacity_bytes=99 * MIB,
        stash_multiplier=1.5,
        allreduce_inefficiency=1.0,  # small model, effective bucketing
    ),
    "awd": SimCalibration(
        workload="awd",
        num_devices=4,
        batch_size=40,
        activation_byte_scale=32.0,
        param_byte_scale=300.0,
        memory_capacity_bytes=256 * MIB,
        optimizer_state_factor=1.0,  # SGD/ASGD keep one buffer, not Adam's two
        curve_u_max=0.9,
        curve_u_floor=0.08,
        curve_b_half=48.0,
    ),
}


def calibration_for(workload: str) -> SimCalibration:
    """The shipped calibration for a workload name."""
    try:
        return SIM_CALIBRATIONS[workload]
    except KeyError:
        raise KeyError(
            f"unknown workload {workload!r}; available: {sorted(SIM_CALIBRATIONS)}"
        ) from None
