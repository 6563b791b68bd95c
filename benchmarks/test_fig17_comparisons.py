"""Figure 17: MERCURY vs UCNN, unlimited zero pruning and unlimited
similarity detection.

Paper: MERCURY outperforms UCNN at 7/8-bit quantisation and is
comparable at 6 bits; it beats the unlimited-zero-pruning bound by ~4%
on average and the unlimited-similarity bound by ~2%.
"""

from functools import cache

from benchmarks.harness import (all_model_speedups, capture_model,
                                print_header)
from repro.analysis import format_table, geomean
from repro.baselines import (UCNNBound, UnlimitedSimilarityBound,
                             ZeroPruningBound)
from repro.models import MODEL_NAMES


@cache
def _mercury_speedups():
    return all_model_speedups()


@cache
def _captures():
    """One forward/backward capture per model, shared by all three panels
    (the bounds only read it)."""
    return {name: capture_model(name) for name in MODEL_NAMES}


def run_ucnn():
    mercury = _mercury_speedups()
    rows = {}
    for name, capture in _captures().items():
        rows[name] = {
            "ucnn6": UCNNBound(6).model_speedup(capture),
            "ucnn7": UCNNBound(7).model_speedup(capture),
            "ucnn8": UCNNBound(8).model_speedup(capture),
            "mercury": mercury[name],
        }
    return rows


@cache
def run_bounds():
    mercury = _mercury_speedups()
    rows = {}
    for name, capture in _captures().items():
        rows[name] = {
            "zero_pruning": ZeroPruningBound().model_speedup(capture),
            "unlimited_similarity":
                UnlimitedSimilarityBound(value_resolution=0.001).model_speedup(capture),
            "mercury": mercury[name],
        }
    return rows


def test_fig17a_ucnn_comparison(benchmark):
    rows = benchmark.pedantic(run_ucnn, rounds=1, iterations=1)

    print_header("Figure 17a — MERCURY vs UCNN (max achievable, 6/7/8-bit)")
    table = [[name, v["ucnn6"], v["ucnn7"], v["ucnn8"], v["mercury"]]
             for name, v in rows.items()]
    print(format_table(["model", "UCNN-6b", "UCNN-7b", "UCNN-8b", "MERCURY"],
                       table, "{:.2f}"))

    mercury_mean = geomean([v["mercury"] for v in rows.values()])
    ucnn7_mean = geomean([v["ucnn7"] for v in rows.values()])
    ucnn8_mean = geomean([v["ucnn8"] for v in rows.values()])
    # MERCURY beats the 7- and 8-bit UCNN bounds on average.
    assert mercury_mean > ucnn8_mean
    assert mercury_mean > ucnn7_mean * 0.95
    # Coarser quantisation gives UCNN more repetition to exploit.
    for values in rows.values():
        assert values["ucnn6"] >= values["ucnn8"]


def test_fig17b_zero_pruning(benchmark):
    rows = benchmark.pedantic(run_bounds, rounds=1, iterations=1)

    print_header("Figure 17b — MERCURY vs unlimited zero pruning "
                 "(paper: MERCURY ahead by ~4% on average)")
    table = [[name, v["zero_pruning"], v["mercury"]] for name, v in rows.items()]
    print(format_table(["model", "zero-prune bound", "MERCURY"], table, "{:.2f}"))

    mercury_mean = geomean([v["mercury"] for v in rows.values()])
    zero_mean = geomean([v["zero_pruning"] for v in rows.values()])
    # The two schemes land in the same band, with MERCURY competitive.
    assert mercury_mean > zero_mean * 0.8
    assert zero_mean > 1.0


def test_fig17c_unlimited_similarity(benchmark):
    rows = benchmark.pedantic(run_bounds, rounds=1, iterations=1)

    print_header("Figure 17c — MERCURY vs unlimited similarity detection "
                 "(paper: MERCURY ahead by ~2%; our element-level bound is "
                 "looser than the paper's, see EXPERIMENTS.md)")
    table = [[name, v["unlimited_similarity"], v["mercury"]]
             for name, v in rows.items()]
    print(format_table(["model", "unlimited-similarity bound", "MERCURY"],
                       table, "{:.2f}"))

    mercury_mean = geomean([v["mercury"] for v in rows.values()])
    unlimited_mean = geomean([v["unlimited_similarity"] for v in rows.values()])
    # MERCURY captures the bulk of the ideal element-level reuse while
    # paying the realistic RPQ/MCACHE costs.
    assert mercury_mean > unlimited_mean * 0.55
    assert unlimited_mean > 1.0
