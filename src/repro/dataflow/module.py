"""Compute modules: one unrolled time-iteration of the program body.

A :class:`StencilModule` chains the program's fused stages (each a
:class:`~repro.dataflow.compute.ComputeUnit` behind its window buffers) for
one iteration — the unit that iterative unrolling replicates ``p`` times
(paper Fig. 2).

Functionally the module is the tree-walking golden interpreter, one
kernel per compute unit; the other engines run whole solves through
:mod:`repro.stencil.compiled` instead of stepping a module. The structural
accounting (fill latency, stream cycles, DSP cost) is engine-independent.
"""

from __future__ import annotations

from typing import Mapping

from repro.dataflow.compute import ComputeUnit
from repro.mesh.mesh import Field
from repro.stencil.program import StencilProgram
from repro.util.validation import check_positive


class StencilModule:
    """One iteration of the program body as a chained dataflow stage."""

    def __init__(self, program: StencilProgram, V: int):
        check_positive("V", V)
        self.program = program
        self.V = V
        self.units = [ComputeUnit(k, V) for k in program.kernels()]

    def process(
        self,
        fields: Mapping[str, Field],
        coefficients: Mapping[str, float] | None = None,
    ) -> dict[str, Field]:
        """Run one time iteration; returns the updated field environment."""
        env: dict[str, Field] = dict(fields)
        for unit in self.units:
            env.update(unit.process(env, coefficients))
        return env

    def fill_lines(self) -> int:
        """Fill latency of the module: sum of its stages' ``D/2`` lines."""
        return sum(unit.fill_lines() for unit in self.units)

    def stream_cycles(self, mesh_shape: tuple[int, ...]) -> int:
        """Streaming cycles of the module (stages run concurrently: max, not sum)."""
        return max(unit.stream_cycles(mesh_shape) for unit in self.units)

    @property
    def dsp_cost(self) -> int:
        """DSP blocks of the module at the default operator costs."""
        from repro.model.resources import gdsp_kernel

        return self.V * sum(gdsp_kernel(u.kernel) for u in self.units)
