"""Self-tests of the benchmark: manifest, generators, checks, exactness.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Every workload is exercised at a tiny size.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spec
import workloads as W
from tracing import NullTracer, Tracer
from worker import tail_latency

ROOT = Path(__file__).resolve().parent.parent

TINY_DESIGN = W.Design(
    6, 3, "linear", "vertical", True, "boolean", 11,
    W.BOOLEAN.random_matrix(6, np.random.default_rng(12), density=0.3),
)
TINY_REPLAY = (
    (6, 3, "linear", "vertical", True, "boolean"),
    (6, 4, "mesh", "vertical", True, "min_plus"),
)


def tiny(name: str):
    return {
        "design-sweep": lambda: W.DesignSweep(
            ladder=(6, 7, 8, 8), linear_m=(2, 3), mesh_m=(4,),
        ),
        "replay-batch": lambda: W.ReplayBatch(designs=TINY_REPLAY, pool=3),
        "sparse-closure": lambda: W.SparseClosure(scales=(5, 6)),
        "fault-campaign": lambda: W.FaultCampaign(
            configs=("linear-n9-m3",), cells=("transient", "hammer"),
        ),
    }[name]()


def fingerprint(wl, state) -> str:
    """Everything a round-0 op sees, as text."""
    parts = []
    for op in wl.round(state, 0):
        parts.append(repr(op))
        if isinstance(op, W.Design):
            parts.append(op.a.tobytes().hex())
    for pool in state.get("pools", []):
        parts.extend(a.tobytes().hex() for a in pool)
    for g, src in zip(state.get("graphs", []), state.get("sources", [])):
        parts.append(g.packed_adjacency(diagonal=True).tobytes().hex())
        parts.append(src.tobytes().hex())
    return "\n".join(parts)


def setup(wl, seed: int):
    wl.reset()
    return wl.prepare(wl.generate(seed), NullTracer())


def test_manifest_is_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == spec.manifest()


def test_manifest_contract():
    doc = spec.manifest()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert 2 <= len(doc["workloads"]) <= 8
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    layer = {m["name"] for m in doc["per_layer"]}
    assert set(spec.SPAN_OF) <= layer and set(spec.EXACT) <= layer
    assert set(W.WORKLOADS) == set(spec.WORKLOADS)


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    wl = tiny(name)
    a = fingerprint(wl, setup(wl, 3))
    assert a == fingerprint(wl, setup(wl, 3))
    assert a != fingerprint(wl, setup(wl, 4))


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_exact_metrics_repeat_and_survive_tracing(name):
    def record(traced: bool) -> dict:
        wl = tiny(name)
        state = setup(wl, 5)
        acc, tr = W.Exact(), Tracer()
        for op in wl.round(state, 0):
            out = wl.run_traced(state, op, tr) if traced else wl.run(state, op)
            assert wl.check(state, op, out, NullTracer()) == []
            wl.exact(state, op, out, acc)
        return acc.result()

    first = record(False)
    assert first and first == record(False) == record(True)


def test_design_check_catches_a_flipped_bit():
    wl = W.DesignSweep()
    out = wl.run({}, TINY_DESIGN)
    assert wl.check({}, TINY_DESIGN, out, NullTracer()) == []
    key = ("out", 0, 1)
    out.ref.outputs[key] = 1 - out.ref.outputs[key]
    fails = wl.check({}, TINY_DESIGN, out, NullTracer())
    assert any("reference output" in f for f in fails)
    assert any("vector output vs reference" in f for f in fails)


def test_design_check_catches_a_failed_verification():
    wl = W.DesignSweep()
    out = dataclasses.replace(wl.run({}, TINY_DESIGN), verify_ok=False)
    assert any("verify" in f for f in wl.check({}, TINY_DESIGN, out, NullTracer()))


def test_replay_check_catches_a_flipped_bit():
    wl = tiny("replay-batch")
    state = setup(wl, 0)
    for op in wl.round(state, 0):
        res, got = wl.run(state, op)
        assert wl.check(state, op, (res, got), NullTracer()) == []
        bad = got.copy()
        boolean = TINY_REPLAY[op.design][5] == "boolean"
        bad[0, -1] = 1 - bad[0, -1] if boolean else -7
        assert wl.check(state, op, (res, bad), NullTracer())


def test_sparse_check_catches_a_flipped_bit():
    wl = tiny("sparse-closure")
    state = setup(wl, 0)
    for op in wl.round(state, 0):
        res = wl.run(state, op)
        assert wl.check(state, op, res, NullTracer()) == []
        words = res.words.copy()
        words[0, 0] ^= np.uint64(1 << 3)
        bad = dataclasses.replace(res, words=words)
        assert wl.check(state, op, bad, NullTracer())


def test_campaign_check_catches_a_dropped_recovery_and_a_wrong_output():
    wl = tiny("fault-campaign")
    state = setup(wl, 0)
    op = wl.round(state, 0)[0]
    cell = wl.run(state, op)
    assert wl.check(state, op, cell, NullTracer()) == []
    dropped = dataclasses.replace(cell, recovered=False, degraded_gsets=0)
    assert any("not ok" in f for f in wl.check(state, op, dropped, NullTracer()))
    key = ("out", 0, 1)
    cell.result.outputs[key] = 1 - cell.result.outputs[key]
    assert any("recovered output" in f for f in wl.check(state, op, cell, NullTracer()))


def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("op", op="a"):
        with tr.span("child"):
            pass
    op_span, child = tr.finished()
    self_t = tr.self_times()
    assert self_t["child"] == pytest.approx(child.duration)
    assert self_t["op"] == pytest.approx(op_span.duration - child.duration)
    assert child.op == "a" and child.parent == 0


def test_tail_latency_keeps_ten_samples_beyond():
    assert tail_latency([1.0] * 19) is None
    assert tail_latency([1.0] * 100)[0] == 90
    assert tail_latency([1.0] * 5000)[0] == 99


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-batch",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
