"""What the benchmark measures: workloads, metrics and their bounds.

This module is the single source of ``BENCHMARK.json`` at the repository
root (``python3 perfbench/run.py --write-manifest`` regenerates it, and
the self-tests fail when the two disagree).

End-to-end metrics are measured with tracing off and reported by every
workload, so each is defined for every workload and is never zero.
Per-layer metrics come from the separate traced run; a layer that a
workload does not exercise reports ``0`` there.
"""

from __future__ import annotations

#: Seconds of timed operations per run (whole rounds, see ``worker.py``).
RUN_SECONDS = 12

#: name -> why the workload is in the benchmark (one line each).
WORKLOADS: dict[str, str] = {
    "design-sweep": (
        "cold spec-to-verified chain per distinct design (n 16-32, linear/mesh, "
        "both semirings): FPDG build, grouping, compile and lint dominate"
    ),
    "replay-batch": (
        "warm replay of prebuilt boolean (bit-packed) and min-plus (dense) plans "
        "over seeded inputs: only replay and input/output conversion run"
    ),
    "sparse-closure": (
        "closure engines on seeded Kronecker graphs n=2^7..2^12 across the "
        "bitpack/unpacked crossover and the dense/SCC cutoff; no array layer runs"
    ),
    "fault-campaign": (
        "one campaign cell per op, every config x fault kind/regime, half on each "
        "backend: resilience runtime and the injecting interpreter dominate"
    ),
}

#: (name, unit, better, bound) measured with tracing off.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_per_s", "ops/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: (name, unit, better) from the traced run.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    # algorithms.transitive_closure / core.graph
    ("fpdg.build_s", "s", "lower"),
    ("fpdg.nodes", "count", "lower"),
    ("fpdg.edges", "count", "lower"),
    ("inputs.encode_s", "s", "lower"),
    # core.ggraph
    ("ggraph.group_s", "s", "lower"),
    ("ggraph.gnodes", "count", "lower"),
    # core.gsets / core.metrics
    ("gsets.select_s", "s", "lower"),
    ("gsets.schedule_s", "s", "lower"),
    ("gsets.count", "count", "lower"),
    ("metrics.evaluate_s", "s", "lower"),
    # arrays.plan
    ("plan.build_s", "s", "lower"),
    ("plan.fires", "count", "lower"),
    ("plan.stall_cycles", "cycles", "lower"),
    # lint
    ("lint.s", "s", "lower"),
    ("lint.findings", "count", "lower"),
    ("lint.cache_hits", "count", "higher"),
    # arrays.vector_compile
    ("compile.s", "s", "lower"),
    ("compile.steps", "count", "lower"),
    ("compile.slots", "count", "lower"),
    ("compile.cache_hit_ratio", "ratio", "higher"),
    ("compile.cache_misses", "count", "lower"),
    ("compile.bitpack_plans", "count", "higher"),
    # arrays.vector_sim
    ("replay.bitpack_s", "s", "lower"),
    ("replay.dense_s", "s", "lower"),
    ("replay.fallbacks", "count", "lower"),
    # arrays.cycle_sim
    ("refsim.s", "s", "lower"),
    ("refsim.fires_per_s", "fires/s", "higher"),
    ("outputs.decode_s", "s", "lower"),
    ("sim.cycles", "cycles", "lower"),
    ("sim.utilization", "ratio", "higher"),
    # obs.profile
    ("critpath.s", "s", "lower"),
    # obs.runlog
    ("runlog.events", "count", "lower"),
    ("runlog.bytes", "bytes", "lower"),
    # datasets / core.bitmatrix / baselines.ssc
    ("datasets.generate_s", "s", "lower"),
    ("closure.bitpack_dense_s", "s", "lower"),
    ("closure.bitpack_scc_s", "s", "lower"),
    ("closure.reference_s", "s", "lower"),
    ("closure.ssc12_s", "s", "lower"),
    ("closure.reach_pairs", "count", "lower"),
    ("closure.word_ops", "count", "lower"),
    # resilience
    ("resilience.run_s", "s", "lower"),
    ("resilience.retries", "count", "lower"),
    ("resilience.repartitions", "count", "lower"),
    ("resilience.quarantined", "count", "lower"),
    ("resilience.degraded_gsets", "count", "lower"),
    ("resilience.overhead_cycles", "cycles", "lower"),
    ("resilience.availability", "ratio", "higher"),
    # core.semiring: the benchmark's own oracle, and verify's in-op oracle
    ("oracle.s", "s", "lower"),
    ("verify.oracle_s", "s", "lower"),
    # the traced run itself
    ("trace.ops_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("host.probe_ms", "ms", "lower"),
    ("sweep.repeat_share", "ratio", "higher"),
)

#: Per-layer time metric -> the span name it sums (self time).
SPAN_OF: dict[str, str] = {
    "fpdg.build_s": "fpdg.build",
    "inputs.encode_s": "inputs.encode",
    "ggraph.group_s": "ggraph.group",
    "gsets.select_s": "gsets.select",
    "gsets.schedule_s": "gsets.schedule",
    "metrics.evaluate_s": "metrics.evaluate",
    "plan.build_s": "plan.build",
    "lint.s": "lint",
    "compile.s": "compile",
    "replay.bitpack_s": "replay.bitpack",
    "replay.dense_s": "replay.dense",
    "refsim.s": "refsim",
    "outputs.decode_s": "outputs.decode",
    "critpath.s": "critpath",
    "datasets.generate_s": "datasets.generate",
    "closure.bitpack_dense_s": "closure.bitpack-dense",
    "closure.bitpack_scc_s": "closure.bitpack-scc",
    "closure.reference_s": "closure.reference",
    "closure.ssc12_s": "closure.ssc12",
    "resilience.run_s": "resilience.run",
    "oracle.s": "oracle",
    "verify.oracle_s": "verify.oracle",
}

#: Metrics that are deterministic per seed: two runs of one seed must
#: agree exactly (``worker.py`` compares them and fails the run if not).
EXACT: tuple[str, ...] = (
    "sim.cycles",
    "sim.utilization",
    "fpdg.nodes",
    "fpdg.edges",
    "ggraph.gnodes",
    "gsets.count",
    "plan.fires",
    "plan.stall_cycles",
    "compile.steps",
    "compile.slots",
    "compile.bitpack_plans",
    "lint.findings",
    "closure.reach_pairs",
    "closure.word_ops",
    "resilience.retries",
    "resilience.repartitions",
    "resilience.quarantined",
    "resilience.degraded_gsets",
    "resilience.overhead_cycles",
    "resilience.availability",
)


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
