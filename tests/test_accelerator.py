"""Tests for the accelerator timing models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator import (BaselineAccelerator, CycleCostModel, FPGAModel,
                               InputStationary, MercurySimulator,
                               RowStationary, SignaturePipelineModel,
                               WeightStationary, make_dataflow,
                               pipelined_signature_cycles,
                               unpipelined_signature_cycles)
from repro.accelerator.mercury_sim import replace_detection_off
from repro.accelerator.workloads import (ARCHITECTURES, build_workload,
                                         workload_to_stats)
from repro.core.config import MercuryConfig
from repro.core.stats import LayerReuseStats, ReuseStats
from tests.oracles.pe import PEConfig, ProcessingElement


# ----------------------------------------------------------------------
# Signature pipeline (Figure 8)
# ----------------------------------------------------------------------
def test_unpipelined_cycles_match_paper_example():
    # 3x3 vectors: 2x = 6 cycles per signature bit, no overlap.
    assert unpipelined_signature_cycles(1, 1, 3) == 6
    assert unpipelined_signature_cycles(3, 1, 3) == 18


def test_pipelined_cycles_match_paper_example():
    # First bit takes 2x+1 = 7 cycles; each further bit takes x = 3.
    assert pipelined_signature_cycles(1, 1, 3) == 7
    assert pipelined_signature_cycles(2, 1, 3) == 10
    assert pipelined_signature_cycles(3, 1, 3) == 13


def test_pipelining_speedup_approaches_two():
    model = SignaturePipelineModel(vector_rows=3)
    assert model.speedup_from_pipelining(1, 1) < 1.0  # warm-up dominates
    assert model.speedup_from_pipelining(1000, 20) == pytest.approx(2.0, abs=0.01)
    assert model.steady_state_cycles_per_bit() == (6, 3)


def test_signature_cycle_validation():
    with pytest.raises(ValueError):
        pipelined_signature_cycles(1, 1, 0)
    with pytest.raises(ValueError):
        unpipelined_signature_cycles(-1, 1, 3)
    assert pipelined_signature_cycles(0, 5, 3) == 0


@settings(deadline=None, max_examples=30)
@given(signatures=st.integers(1, 500), bits=st.integers(1, 40),
       rows=st.integers(1, 6))
def test_pipelined_never_slower(signatures, bits, rows):
    assert pipelined_signature_cycles(signatures, bits, rows) <= \
        unpipelined_signature_cycles(signatures, bits, rows) + (2 * rows + 1)


# ----------------------------------------------------------------------
# Processing element
# ----------------------------------------------------------------------
def test_pe_mac_pipeline_timing():
    pe = ProcessingElement()
    assert pe.multiply_accumulate(1) == 1
    pe.reset()
    assert pe.multiply_accumulate(4) == 4  # fully pipelined


def test_pe_row_dot_product_org_saves_a_cycle():
    pe_plain = ProcessingElement()
    pe_org = ProcessingElement()
    plain = pe_plain.row_dot_product(3, use_org=False)
    fast = pe_org.row_dot_product(3, use_org=True)
    assert plain - fast == 1


def test_pe_async_buffer_handshake():
    pe = ProcessingElement(PEConfig(input_buffers=2))
    first = pe.load_input("rows-A")
    second = pe.load_input("rows-B")
    assert {first, second} == {0, 1}
    with pytest.raises(RuntimeError):
        pe.load_input("rows-C")
    pe.switch_input()
    assert pe.in_use == 1
    # After switching, buffer 0 is free again.
    pe.load_input("rows-C")


def test_pe_config_validation():
    with pytest.raises(ValueError):
        PEConfig(multiply_latency=0)
    with pytest.raises(ValueError):
        PEConfig(input_buffers=3)


# ----------------------------------------------------------------------
# Dataflows
# ----------------------------------------------------------------------
def test_dataflow_factory_and_names():
    expected = {"row_stationary": RowStationary,
                "weight_stationary": WeightStationary,
                "input_stationary": InputStationary}
    for name, kind in expected.items():
        assert isinstance(make_dataflow(name), kind)
    # The error names every supported dataflow.
    with pytest.raises(ValueError, match=str(sorted(expected))[1:-1]):
        make_dataflow("spiral")


def test_dataflow_reuse_efficiency_ordering():
    assert RowStationary().reuse_efficiency > WeightStationary().reuse_efficiency
    assert WeightStationary().reuse_efficiency > InputStationary().reuse_efficiency


def test_dataflow_validation():
    with pytest.raises(ValueError):
        WeightStationary(reuse_efficiency=1.5)


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
def _make_record(hits=50, vectors=100, vector_length=9, filters=64, bits=20,
                 detection_on=True):
    record = LayerReuseStats(layer="conv", phase="forward")
    record.merge_call(vectors=vectors, hits=hits, mau=vectors - hits, mnu=0,
                      vector_length=vector_length, num_filters=filters,
                      signature_bits=bits, unique_signatures=vectors - hits,
                      detection_on=detection_on)
    return record


def test_baseline_cycles_scale_with_work():
    model = CycleCostModel(num_pes=168)
    small = model.baseline_cycles(_make_record(filters=32))
    large = model.baseline_cycles(_make_record(filters=64))
    assert large == pytest.approx(2 * small)


def test_mercury_cycles_below_baseline_when_hits_help():
    model = CycleCostModel(num_pes=168)
    record = _make_record(hits=5000, vectors=10000, filters=256)
    layer = model.layer_cycles(record)
    assert layer.mercury_cycles < layer.baseline_cycles
    assert layer.speedup > 1.4
    assert layer.signature_cycles > 0


def test_detection_off_costs_baseline_without_signatures():
    model = CycleCostModel()
    record = _make_record(detection_on=False, hits=0)
    layer = model.layer_cycles(record)
    assert layer.signature_cycles == 0
    assert layer.compute_cycles == layer.baseline_cycles


def test_synchronous_design_pays_imbalance_penalty():
    record = _make_record(hits=5000, vectors=10000, filters=128)
    sync = CycleCostModel(asynchronous=False).compute_cycles(record)
    async_ = CycleCostModel(asynchronous=True).compute_cycles(record)
    assert sync > async_


def test_reloaded_signatures_are_free():
    model = CycleCostModel()
    record = _make_record()
    reloaded = LayerReuseStats(layer="conv", phase="backward")
    reloaded.merge_call(vectors=100, hits=50, mau=50, mnu=0, vector_length=9,
                        num_filters=64, signature_bits=20,
                        unique_signatures=50, detection_on=True,
                        signatures_reloaded=True)
    assert model.signature_cycles(record) > 0
    assert model.signature_cycles(reloaded) == 0


def test_empty_record_costs_nothing():
    model = CycleCostModel()
    record = LayerReuseStats(layer="conv", phase="forward")
    assert model.baseline_cycles(record) == 0
    assert model.compute_cycles(record) == 0


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CycleCostModel(num_pes=0)


# ----------------------------------------------------------------------
# Baseline accelerator and simulator
# ----------------------------------------------------------------------
def _small_stats():
    stats = ReuseStats()
    record = stats.record_for("conv", "forward")
    record.merge_call(vectors=1000, hits=600, mau=400, mnu=0, vector_length=9,
                      num_filters=128, signature_bits=20,
                      unique_signatures=400, detection_on=True)
    return stats


def test_baseline_accelerator_reports():
    stats = _small_stats()
    baseline = BaselineAccelerator()
    reports = baseline.layer_reports(stats)
    assert len(reports) == 1
    assert baseline.total_cycles(stats) > 0
    assert baseline.total_macs(stats) == 1000 * 9 * 128


def test_simulator_speedup_and_breakdown():
    simulator = MercurySimulator(MercuryConfig())
    report = simulator.simulate(_small_stats(), "toy")
    assert report.speedup > 1.0
    breakdown = report.cycle_breakdown()
    assert breakdown["mercury"]["signature"] > 0
    assert breakdown["baseline"]["signature"] == 0
    assert report.signature_fraction < 0.5
    assert report.per_layer_speedups()["conv"] == pytest.approx(report.speedup)


def test_simulator_layers_on_off():
    stats = _small_stats()
    off_record = stats.record_for("small", "forward")
    off_record.merge_call(vectors=10, hits=0, mau=0, mnu=10, vector_length=9,
                          num_filters=2, signature_bits=20,
                          unique_signatures=10, detection_on=False)
    report = MercurySimulator().simulate(stats, "toy")
    counts = report.layers_on_off()
    assert counts == {"on": 1, "off": 1}


def test_replace_detection_off_helper():
    record = _make_record()
    off = replace_detection_off(record)
    assert not off.similarity_detection_on
    assert off.hits == 0
    assert off.total_vectors == record.total_vectors
    assert record.similarity_detection_on  # original untouched


def test_analytic_stoppage_disables_tiny_layers():
    stats = ReuseStats()
    record = stats.record_for("tiny", "forward")
    record.merge_call(vectors=100, hits=10, mau=90, mnu=0, vector_length=9,
                      num_filters=2, signature_bits=20, unique_signatures=90,
                      detection_on=True)
    report = MercurySimulator().simulate(stats, "toy",
                                         apply_analytic_stoppage=True)
    assert report.layers_on_off()["off"] == 1


# ----------------------------------------------------------------------
# Paper-scale workloads
# ----------------------------------------------------------------------
def test_workloads_exist_for_all_twelve_models():
    assert len(ARCHITECTURES) == 12


def test_build_workload_layer_counts():
    assert len(build_workload("vgg13")) == 10
    assert len(build_workload("vgg16")) == 13
    assert len(build_workload("vgg19")) == 16
    assert len(build_workload("resnet152")) > len(build_workload("resnet50"))


def test_build_workload_unknown_model():
    with pytest.raises(ValueError):
        build_workload("lenet")


def test_workload_hit_profile_monotonic():
    workload = build_workload("vgg13")
    assert workload[0].hit_rate_forward > workload[-1].hit_rate_forward


def test_workload_to_stats_speedup_in_paper_band():
    stats = workload_to_stats(build_workload("vgg13"))
    speedup = MercurySimulator(MercuryConfig()).speedup(
        stats, "vgg13", apply_analytic_stoppage=True)
    assert 1.5 < speedup < 2.5


def test_workload_signature_fraction_is_small_at_paper_scale():
    stats = workload_to_stats(build_workload("resnet50"))
    report = MercurySimulator(MercuryConfig()).simulate(
        stats, "resnet50", apply_analytic_stoppage=True)
    assert report.signature_fraction < 0.15


# ----------------------------------------------------------------------
# FPGA model (Tables II-IV)
# ----------------------------------------------------------------------
def test_fpga_baseline_values_match_table4():
    fpga = FPGAModel()
    baseline = fpga.baseline_resources()
    assert baseline.slice_luts == 56910
    assert baseline.slice_registers == 48735
    assert fpga.baseline_power().total == pytest.approx(1.703)


def test_fpga_mercury_default_config_matches_table4():
    fpga = FPGAModel()
    mercury = fpga.mercury_resources(64, 16)
    assert mercury.slice_luts == 216918
    assert mercury.slice_registers == 81332
    assert fpga.mercury_power(64, 16).total == pytest.approx(1.929)


def test_fpga_power_overhead_close_to_paper():
    fpga = FPGAModel()
    assert fpga.power_overhead(64, 16) == pytest.approx(1.13, abs=0.02)


def test_fpga_table2_scaling_trend():
    rows = FPGAModel().table2_rows()
    registers = [row["slice_registers"] for row in rows]
    totals = [row["total"] for row in rows]
    assert registers == sorted(registers)
    assert totals == sorted(totals)
    # Quadrupling the sets costs only ~6.5% power.
    assert totals[-1] / totals[0] < 1.08


def test_fpga_table3_scaling_trend():
    rows = FPGAModel().table3_rows()
    assert [row["ways"] for row in rows] == [2, 4, 8, 16]
    registers = [row["slice_registers"] for row in rows]
    assert registers == sorted(registers)
    assert rows[-1]["total"] / rows[0]["total"] < 1.05


def test_fpga_interpolates_unseen_configuration():
    fpga = FPGAModel()
    predicted = fpga.mercury_resources(40, 16)
    assert fpga.mercury_resources(32, 16).slice_registers < \
        predicted.slice_registers < fpga.mercury_resources(48, 16).slice_registers


def test_fpga_validation():
    with pytest.raises(ValueError):
        FPGAModel().mercury_resources(0, 16)


def test_fpga_dsp_count_constant():
    fpga = FPGAModel()
    for rows in (fpga.table2_rows(), fpga.table3_rows(), fpga.table4_rows()):
        assert all(row["dsp48"] == 198 for row in rows)
