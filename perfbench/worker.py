"""One workload in one fresh process: set up, run, check, report.

Started by ``run.py`` with a fixed ``PYTHONHASHSEED`` and a private
ledger directory; not meant to be run by hand.  Tracing off, it runs
whole rounds of ops in a closed loop (one client, one op at a time)
until the timed ops add up to ``--seconds`` and prints the end-to-end
metrics.  Tracing on, it runs round 0 twice, untraced then traced from
the same cache state, and prints the per-layer metrics.  Either way the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def host_probe_ms() -> float:
    """Median wall time of a fixed pure-Python loop (a host-speed gauge).

    Reported beside the host-time metrics as a diagnostic; never used
    to rescale them.
    """
    times = []
    for _ in range(3):
        t = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(perf_counter() - t)
    return statistics.median(times) * 1e3


def _digest(files: list[Path]) -> str:
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str:
    """HEAD of the checkout's git metadata, when it has any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "src_digest": _digest(sorted((ROOT / "src" / "repro").rglob("*.py"))),
        "bench_digest": bench_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "sim_backend": os.environ.get("REPRO_SIM_BACKEND"),
    }


def bench_digest() -> str:
    here = Path(__file__).resolve().parent
    return _digest(sorted(p for p in here.glob("*.py") if not p.name.startswith("test_")))


def drain_ledgers() -> tuple[int, int]:
    """Count and delete the run ledgers written so far: (events, bytes)."""
    d = Path(os.environ["REPRO_RUNLOG_DIR"])
    events = size = 0
    for p in d.glob("*.jsonl"):
        data = p.read_bytes()
        events += data.count(b"\n")
        size += len(data)
        p.unlink()
    return events, size


class Loop:
    """Outcome of running ops: latencies, failures and ledger volume."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failures: list[dict] = []
        self.ledger_events = 0
        self.ledger_bytes = 0
        self.rounds = 0

    @property
    def timed(self) -> float:
        return sum(self.latencies)


def run_op(wl, state, op, r, loop, acc, tr, traced):
    """Time one op, then check it and record its counts (untimed)."""
    from workloads import CacheDeltas

    label = wl.describe(op)
    out, err = None, None
    with CacheDeltas(tr) if traced else nullcontext():
        t = perf_counter()
        try:
            if traced:
                with tr.span("op", op=label):
                    out = wl.run_traced(state, op, tr)
            else:
                out = wl.run(state, op)
        except Exception as exc:  # a failed op is counted, never fatal
            err = f"{type(exc).__name__}: {exc}"
        loop.latencies.append(perf_counter() - t)
    if err is None:
        with tr.span("check", op=label):
            fails = wl.check(state, op, out, tr)
        if r == 0:
            wl.exact(state, op, out, acc)
    else:
        fails = [err]
    if fails:
        loop.failures.append({"round": r, "op": label, "failures": fails})
    events, size = drain_ledgers()
    loop.ledger_events += events
    loop.ledger_bytes += size


def closed_loop(wl, state, seconds):
    """Whole rounds, one op at a time, until the timed ops reach ``seconds``."""
    from tracing import NullTracer
    from workloads import Exact

    loop, acc, tr = Loop(), Exact(), NullTracer()
    r = 0
    while r == 0 or loop.timed < seconds:
        if r and wl.cold:
            wl.reset()  # each round starts from fresh program caches
        for op in wl.round(state, r):
            run_op(wl, state, op, r, loop, acc, tr, traced=False)
        r += 1
    loop.rounds = r
    return loop, acc


def traced_passes(wl, state, seconds, tr):
    """Each round twice, untraced and traced, until the traced half of
    ``seconds`` is used; the untraced rounds are the baseline for the
    tracing overhead.  Pairing rounds, and swapping which half of a pair
    goes first, keeps host drift and warm-up out of the ratio."""
    from tracing import NullTracer
    from workloads import Exact

    base, base_acc, loop, acc = Loop(), Exact(), Loop(), Exact()
    r = 0
    while loop.timed < seconds / 2:
        pair = [(base, base_acc, NullTracer(), False), (loop, acc, tr, True)]
        for lp, a, t, traced in pair if r % 2 == 0 else pair[::-1]:
            if wl.cold:
                wl.reset()
            if traced:
                state.get("oracle", {}).clear()  # time the oracle once per round
            for op in wl.round(state, r):
                run_op(wl, state, op, r, lp, a, t, traced)
        r += 1
    base.rounds = loop.rounds = r
    return base, base_acc, loop, acc


def tail_latency(lat: list[float]) -> "tuple[int, float] | None":
    """Highest whole percentile (max 99) with >= 10 samples beyond it."""
    n = len(lat)
    if n < 20:
        return None
    pct = min(99, int(100 * (1 - 10 / n)))
    return pct, statistics.quantiles(lat, n=100)[pct - 1] * 1e3


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    t0 = perf_counter()
    import repro  # noqa: F401  (import time is part of set-up)
    import workloads
    import_s = perf_counter() - t0

    from spec import END_TO_END, EXACT, PER_LAYER, SPAN_OF
    from tracing import NullTracer, Tracer

    traced = bool(args.trace)
    wl = workloads.WORKLOADS[args.workload]()
    tr = Tracer() if traced else NullTracer()

    # Set-up: generate the inputs and build what is prepared ahead.
    # Repeated (each build starts from empty caches); the median counts.
    setup_times = []
    state = None
    for _ in range(1 if traced else 3):
        state = None  # let the previous repetition's build go first
        t = perf_counter()
        with tr.span("setup"):
            state = wl.prepare(wl.generate(args.seed), tr)
        setup_times.append(perf_counter() - t)
    setup_s = import_s + statistics.median(setup_times)

    probe_before = host_probe_ms()
    drain_ledgers()
    run_failures: list[str] = []
    if not traced:
        loop, acc = closed_loop(wl, state, args.seconds)
        passes = [loop]
    else:
        base, base_acc, loop, acc = traced_passes(wl, state, args.seconds, tr)
        passes = [base, loop]
        if base_acc.result() != acc.result():
            run_failures.append(
                "exact metrics differ between the untraced and traced passes"
            )
    if hasattr(wl, "setup_counts"):
        wl.setup_counts(state, acc)
    probe_after = host_probe_ms()
    exact = acc.result()

    # Exact metrics must repeat for the same seed and code.
    prov = provenance(args.seed)
    record = OUT / "exact" / (
        f"{args.workload}-seed{args.seed}-{prov['src_digest']}-{prov['bench_digest']}.json"
    )
    exact_doc = {k: exact.get(k, 0) for k in EXACT}
    if record.exists():
        before = json.loads(record.read_text())
        diff = sorted(k for k in EXACT if before.get(k) != exact_doc[k])
        if diff:
            run_failures.append(f"exact metrics changed for this seed: {diff}")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(exact_doc, sort_keys=True))

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    lat = loop.latencies
    if traced:
        metrics = per_layer(wl, state, tr, base, loop, exact, PER_LAYER, SPAN_OF)
        metrics["host.probe_ms"] = (probe_before + probe_after) / 2
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        metrics = {
            "setup_s": setup_s,
            "throughput_ops_per_s": len(lat) / loop.timed,
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {n: u for n, u, _, _ in END_TO_END}

    details = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": prov,
        "ops": len(lat),
        "rounds": loop.rounds,
        "timed_s": loop.timed,
        "import_s": import_s,
        "setup_reps_s": setup_times,
        "error_rate": failed / attempted,
        "tail_latency": tail_latency(lat),
        "round0_ms": {
            wl.describe(op): t * 1e3
            for op, t in zip(wl.round(state, 0), lat)
        } if len(lat) <= 1000 else None,
        "host_probe_ms": {"before": probe_before, "after": probe_after},
        "exact": exact_doc,
        "failures": [f for p in passes for f in p.failures] + run_failures,
        "metrics": metrics,
    }
    out_dir = OUT / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{name}.json").write_text(json.dumps(details, indent=1, default=str))
    if traced:
        tr.write(OUT / "traces" / f"{name}.json")

    print_summary(details, units, tr if traced else None)
    print(json.dumps({
        "correct": failed == 0 and not run_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def per_layer(wl, state, tr, base, loop, exact, spec, span_of) -> dict:
    """Every per-layer metric of the traced pass (0 where a layer is idle).

    Times and counters are per round of the traced pass (a round has the
    same composition for every seed); exact metrics cover round 0.
    """
    raw = tr.self_times()
    self_t = {k: v / loop.rounds for k, v in raw.items()}
    c = {k: v / loop.rounds for k, v in tr.counts.items()}
    m = {name: 0.0 for name, _, _ in spec}
    for name, span in span_of.items():
        m[name] = self_t.get(span, 0.0)
    m["datasets.generate_s"] = raw.get("datasets.generate", 0.0)  # set-up, once
    m.update(exact)
    for k in ("compile.cache_misses", "lint.cache_hits", "replay.fallbacks"):
        m[k] = c.get(k, 0)
    lookups = c.get("compile.hits", 0) + c.get("compile.cache_misses", 0)
    m["compile.cache_hit_ratio"] = c.get("compile.hits", 0) / lookups if lookups else 0.0
    if self_t.get("refsim"):
        m["refsim.fires_per_s"] = c.get("refsim.fires", 0) / self_t["refsim"]
    m["runlog.events"] = base.ledger_events / base.rounds
    m["runlog.bytes"] = base.ledger_bytes / base.rounds
    m["trace.ops_s"] = sum(s.duration for s in tr.finished() if s.name == "op") / loop.rounds
    m["trace.unattributed_s"] = self_t.get("op", 0.0)
    m["trace.unattributed_share"] = m["trace.unattributed_s"] / m["trace.ops_s"]
    per_op = loop.timed / len(loop.latencies)
    m["trace.overhead"] = per_op / (base.timed / len(base.latencies)) - 1
    if hasattr(wl, "repeat_share"):
        m["sweep.repeat_share"] = wl.repeat_share(wl.round(state, 0))
    return m


def print_summary(details: dict, units: dict, tr) -> None:
    p = details["provenance"]
    print(
        f"# {details['workload']} seed={p['seed']} commit={p['commit'][:12]} "
        f"src={p['src_digest']} python={p['python']} numpy={p['numpy']} "
        f"networkx={p['networkx']} scipy={p['scipy']} nproc={p['nproc']}"
    )
    probe = details["host_probe_ms"]
    print(
        f"# ops={details['ops']} rounds={details['rounds']} "
        f"timed={details['timed_s']:.2f}s error_rate={details['error_rate']:.4f} "
        f"host_probe_ms before={probe['before']:.2f} after={probe['after']:.2f}"
    )
    tail = details["tail_latency"]
    if tail is not None and not details["trace"]:
        print(f"# latency_p{tail[0]}_ms = {tail[1]:.4f} ({details['ops']} samples)")
    for k, v in details["metrics"].items():
        print(f"{k:32s} {v:16.6g} {units[k]}")
    if tr is not None:
        total = details["metrics"]["trace.ops_s"] * details["rounds"]
        print("# self time by span over the traced pass (share of op time)")
        for name, s in sorted(tr.self_times().items(), key=lambda kv: -kv[1]):
            label = "(unattributed)" if name == "op" else name
            print(f"#   {label:28s} {s:10.4f}s {s / total:7.2%}")
    for f in details["failures"]:
        print(f"# FAILED {f}")


if __name__ == "__main__":
    sys.exit(main())
