"""Registry behaviour and the lint hooks in partitioner/verifier/metrics."""

from __future__ import annotations

import pytest

from repro.algorithms.transitive_closure import tc_regular
from repro.core.ggraph import group_by_columns
from repro.core.partitioner import partition, partition_transitive_closure
from repro.core.verify import verify_implementation
from repro.lint import (
    LintError,
    LintTarget,
    all_passes,
    lint_graph,
    preflight,
    run_lint,
)


# ----------------------------------------------------------------------
# Pass registry / runner
# ----------------------------------------------------------------------
def test_pass_order_is_graph_schedule_array() -> None:
    names = [p.name for p in all_passes()]
    prefixes = [n.split(".")[0] for n in names]
    stages = ("graph", "schedule", "array", "recovery", "plan", "cost")
    assert prefixes == sorted(prefixes, key=stages.index)
    assert len(names) == len(set(names))


def test_graph_only_target_skips_later_passes() -> None:
    report = lint_graph(tc_regular(6))
    assert report.passes_run
    assert all(p.startswith("graph.") for p in report.passes_run)
    assert any(p.startswith("schedule.") for p in report.passes_skipped)
    assert any(p.startswith("array.") for p in report.passes_skipped)


def test_unknown_pass_name_raises() -> None:
    with pytest.raises(KeyError, match="unknown lint pass"):
        run_lint(LintTarget.from_graph(tc_regular(4)), passes=["nope"])


def test_crashing_pass_reports_rl001() -> None:
    from repro.lint import registry as reg

    @reg.lint_pass("test.crash", codes=("RL001",), requires=("dg",))
    def crash(target):  # pragma: no cover - body raises immediately
        raise RuntimeError("boom")

    try:
        report = reg.run_lint(
            LintTarget.from_graph(tc_regular(4)), passes=["test.crash"]
        )
        assert "RL001" in report.codes()
        assert not report.ok
        assert "boom" in report.by_code("RL001")[0].message
    finally:
        del reg._REGISTRY["test.crash"]


def test_duplicate_pass_registration_rejected() -> None:
    from repro.lint import registry as reg

    with pytest.raises(ValueError, match="registered twice"):
        reg.lint_pass("graph.broadcast", codes=("RL101",), requires=("dg",))(
            lambda t: []
        )


# ----------------------------------------------------------------------
# preflight hooks
# ----------------------------------------------------------------------
def test_partitioner_preflight_accepts_clean_design() -> None:
    impl = partition_transitive_closure(n=9, m=3, preflight=True)
    assert impl.report.total_time > 0


def test_generic_partition_preflight() -> None:
    impl = partition(tc_regular(8), group_by_columns, 3, preflight=True)
    assert impl.plan.m == 3


def test_preflight_raises_lint_error_on_broken_design() -> None:
    dg = tc_regular(5).copy()
    dg.rewire(("cell", 0, 1, 1), "a", ("cell", 4, 2, 2))  # cycle
    with pytest.raises(LintError) as ei:
        preflight(LintTarget.from_graph(dg))
    assert "RL105" in ei.value.report.codes()
    assert "static design check failed" in str(ei.value)


# ----------------------------------------------------------------------
# verifier attachment
# ----------------------------------------------------------------------
def test_verify_attaches_lint_report() -> None:
    impl = partition_transitive_closure(n=8, m=3)
    rep = verify_implementation(impl, trials=2, seed=1)
    assert rep.ok
    assert rep.lint is not None
    assert rep.lint.ok
    assert "lint:" in rep.summary()


def test_verify_preflight_opt_out() -> None:
    impl = partition_transitive_closure(n=8, m=3)
    rep = verify_implementation(impl, trials=1, seed=1, preflight=False)
    assert rep.lint is None
    assert "lint:" not in rep.summary()


# ----------------------------------------------------------------------
# metrics wiring
# ----------------------------------------------------------------------
def test_lint_metrics_counters() -> None:
    from repro.obs.metrics import get_registry

    reg = get_registry()
    runs = reg.counter("repro_lint_runs_total")
    before = runs.value()
    report = lint_graph(tc_regular(5))
    assert runs.value() == before + 1
    findings = reg.counter("repro_lint_findings_total")
    for d in report.diagnostics:  # every finding was counted by labels
        assert findings.value(code=d.code, severity=d.severity.value) >= 1


def test_lint_metrics_opt_out() -> None:
    from repro.obs.metrics import get_registry

    reg = get_registry()
    runs = reg.counter("repro_lint_runs_total")
    before = runs.value()
    run_lint(LintTarget.from_graph(tc_regular(4)), record_metrics=False)
    assert runs.value() == before
