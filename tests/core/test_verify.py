"""Tests for the randomized verification driver."""

from __future__ import annotations

import numpy as np
import pytest

from repro import MIN_PLUS, partition_transitive_closure
from repro.algorithms.workloads import WORKLOADS
from repro.core.verify import verify_implementation


def test_clean_implementation_verifies() -> None:
    impl = partition_transitive_closure(n=8, m=3)
    report = verify_implementation(impl, trials=5, seed=1)
    assert report.ok
    assert report.correct == report.trials == 5
    assert report.stall_cycles == 0
    assert "OK" in report.summary()


def test_verify_with_workload_inputs() -> None:
    impl = partition_transitive_closure(n=12, m=4)
    extras = [fn() for fn in WORKLOADS.values()]
    report = verify_implementation(impl, trials=2, seed=2, extra_inputs=extras)
    assert report.ok
    assert report.trials == 2 + len(extras)


def test_verify_min_plus() -> None:
    impl = partition_transitive_closure(n=7, m=3, semiring=MIN_PLUS)
    report = verify_implementation(impl, trials=4, seed=3)
    assert report.ok


def test_verify_rejects_wrong_shape_extra() -> None:
    impl = partition_transitive_closure(n=6, m=3)
    with pytest.raises(ValueError, match="does not match"):
        verify_implementation(impl, trials=1, extra_inputs=[np.eye(4, dtype=bool)])


def test_verify_detects_sabotage() -> None:
    """Corrupting a planned firing time must be reported, not hidden."""
    impl = partition_transitive_closure(n=6, m=3)
    ep = impl.exec_plan
    victim = next(nid for nid in ep.fires if list(impl.dg.successors(nid)))
    cons = next(c for c in impl.dg.successors(victim) if c in ep.fires)
    ep.fires[victim] = (ep.fires[victim][0], ep.fires[cons][1] + 50)
    report = verify_implementation(impl, trials=2, seed=4)
    assert report.violation_trials == 2
    assert not report.ok
    assert "FAILED" in report.summary()
