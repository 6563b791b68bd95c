"""Accelerator timing models.

This package models *time*, not values: given the per-layer reuse
statistics produced by the functional engine (:mod:`repro.core`), it
computes cycle counts for the baseline Eyeriss-style accelerator and for
MERCURY under the row-stationary, weight-stationary and input-stationary
dataflows, plus the FPGA resource/power estimates of Tables II-IV.
"""

from repro.accelerator.signature_pipeline import (
    SignaturePipelineModel,
    pipelined_signature_cycles,
    unpipelined_signature_cycles,
)
from repro.accelerator.dataflow import (
    Dataflow,
    RowStationary,
    WeightStationary,
    InputStationary,
    make_dataflow,
)
from repro.accelerator.cost_model import CycleCostModel, LayerCycles
from repro.accelerator.baseline import BaselineAccelerator
from repro.accelerator.mercury_sim import MercurySimulator, SimulationReport
from repro.accelerator.fpga import FPGAModel, ResourceUsage, PowerBreakdown

__all__ = [
    "SignaturePipelineModel",
    "pipelined_signature_cycles",
    "unpipelined_signature_cycles",
    "Dataflow",
    "RowStationary",
    "WeightStationary",
    "InputStationary",
    "make_dataflow",
    "CycleCostModel",
    "LayerCycles",
    "BaselineAccelerator",
    "MercurySimulator",
    "SimulationReport",
    "FPGAModel",
    "ResourceUsage",
    "PowerBreakdown",
]
