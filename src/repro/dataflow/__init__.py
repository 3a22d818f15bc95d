"""Cycle-approximate dataflow simulator of the paper's accelerator template.

The simulator plays the role the Alveo U280 board plays in the paper: it
*executes* the architecture the workflow designs — window buffers feeding
compute units, ``p`` chained compute modules, overlapped spatial tiles,
batched streams — and reports structural cycle counts (fill, drain, burst
quantization, padding) that the closed-form model idealizes away.

Numerics are bit-identical (float32) to the NumPy golden model by
construction: the hardware-equivalent streaming path
(:mod:`repro.dataflow.window`) is validated against the vectorized path in
the test suite, and the vectorized path is what the top-level
:class:`~repro.dataflow.accelerator.FPGAAccelerator` runs.
"""

from repro.dataflow.window import LineBufferStream, stream_iterate_2d, stream_iterate_3d
from repro.dataflow.compute import ComputeUnit
from repro.dataflow.module import StencilModule
from repro.dataflow.pipeline import IterativePipeline
from repro.dataflow.datamover import DataMover, TransferStats
from repro.dataflow.tiler import SpatialTiler, plan_blocks, BlockPlan
from repro.dataflow.batcher import BatchRunner
from repro.dataflow.scheduler import GroupRun, MixRunResult, MixScheduler
from repro.dataflow.accelerator import FPGAAccelerator, SimReport, HostModel

__all__ = [
    "GroupRun",
    "MixRunResult",
    "MixScheduler",
    "LineBufferStream",
    "stream_iterate_2d",
    "stream_iterate_3d",
    "ComputeUnit",
    "StencilModule",
    "IterativePipeline",
    "DataMover",
    "TransferStats",
    "SpatialTiler",
    "plan_blocks",
    "BlockPlan",
    "BatchRunner",
    "FPGAAccelerator",
    "SimReport",
    "HostModel",
]
