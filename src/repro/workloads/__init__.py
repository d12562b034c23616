"""Workloads: the paper's figure graphs and SPECjvm-shaped benchmarks."""

from repro.workloads.paperfigures import (
    figure1_graph,
    figure4_graph,
    figure5_anchors,
    figure5_graph,
    figure6_dynamic_edges,
    figure6_static_graph,
    figure7_full_graph,
    figure7_jdk_nodes,
)
from repro.workloads.paperprograms import figure6_program, figure7_program
from repro.workloads.specjvm import (
    SPECJVM_SPECS,
    Benchmark,
    BenchmarkSpec,
    benchmark_names,
    build_benchmark,
)
from repro.workloads.synthetic import (
    CascadeSpec,
    ComponentSpec,
    add_cascade,
    add_component,
    lane_chain,
    lane_chain_workload,
    random_callgraph,
    zipf_stream,
)

__all__ = [
    "Benchmark",
    "BenchmarkSpec",
    "CascadeSpec",
    "ComponentSpec",
    "SPECJVM_SPECS",
    "add_cascade",
    "add_component",
    "benchmark_names",
    "build_benchmark",
    "figure1_graph",
    "figure4_graph",
    "figure5_anchors",
    "figure5_graph",
    "figure6_dynamic_edges",
    "figure6_program",
    "figure6_static_graph",
    "figure7_full_graph",
    "figure7_jdk_nodes",
    "figure7_program",
    "lane_chain",
    "lane_chain_workload",
    "random_callgraph",
    "zipf_stream",
]
