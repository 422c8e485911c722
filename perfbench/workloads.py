"""The benchmark's four workloads.

Each workload turns a seed into inputs (``generate``), builds what is
prepared ahead (``prepare``; both count as set-up), and hands out
*rounds* of operations.  An op has two implementations that must agree:
``run`` calls the public entry points as a user would (tracing off), and
``run_traced`` calls the same layer functions in the order
:func:`repro.core.partitioner.partition` does, with a span around each.
``check`` is the benchmark's own oracle and runs outside the timed
region; ``exact`` adds an op's deterministic counts to the run's record.

Rounds have a fixed composition per workload (the seed draws what is in
each slot, never how many slots of which size there are), so a run's
throughput and latency mix do not depend on the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import partition_transitive_closure
from repro.algorithms import transitive_closure as tc
from repro.arrays.cycle_sim import simulate
from repro.arrays.vector_compile import (
    clear_compiled_cache,
    compiled_cache_info,
    get_compiled,
)
from repro.arrays.vector_sim import simulate_vector
from repro.core.ggraph import GGraph, group_by_columns
from repro.core.graph import DependenceGraph, NodeKind
from repro.core.gsets import (
    make_linear_gsets,
    make_mesh_gsets,
    schedule_gsets,
    verify_schedule,
)
from repro.core.metrics import evaluate_schedule, tc_io_bandwidth
from repro.core.partitioner import PartitionedImplementation
from repro.core.semiring import BOOLEAN, MIN_PLUS, Semiring, closure_reference
from repro.core.verify import verify_implementation
from repro.datasets import compute_closure, kronecker
from repro.lint import LintTarget, clear_lint_cache, lint_cache_info, run_lint
from repro.obs.metrics import get_registry
from repro.obs.profile import critical_path
from repro.resilience import (
    CAMPAIGN_CONFIGS,
    REGIME_NAMES,
    FaultKind,
    campaign_config,
    run_campaign,
)
from repro.resilience.campaign import seeded_matrix

SEMIRINGS: dict[str, Semiring] = {"boolean": BOOLEAN, "min_plus": MIN_PLUS}


class Exact:
    """Deterministic per-seed counts accumulated over a run's first round."""

    def __init__(self) -> None:
        self.c: dict[str, float] = {}

    def add(self, name: str, value: float = 1) -> None:
        self.c[name] = self.c.get(name, 0) + value

    def result(self) -> dict[str, float]:
        c = dict(self.c)
        useful = c.pop("sim.useful", 0)
        capacity = c.pop("sim.capacity", 0)
        if capacity:
            c["sim.utilization"] = useful / capacity
        avail_n = c.pop("resilience.availability_n", 0)
        avail_sum = c.pop("resilience.availability_sum", 0)
        if avail_n:
            c["resilience.availability"] = avail_sum / avail_n
        return c


def _add_sim(acc: Exact, res: Any) -> None:
    acc.add("sim.cycles", res.makespan)
    acc.add("sim.useful", res.useful)
    acc.add("sim.capacity", res.cells * res.makespan)


def _edges(dg: DependenceGraph) -> int:
    """Data-dependence edges: one per operand reference."""
    return sum(len(dg.operands(nid)) for nid in dg.nodes_of_kind(*NodeKind))


def _fallbacks() -> float:
    """Total ``repro_vector_fallback_total`` over every reason."""
    counter = get_registry().counter(
        "repro_vector_fallback_total",
        "Vector-backend fast-path fallbacks by reason",
    )
    return sum(float(s["value"]) for s in counter.to_json()["series"])


class CacheDeltas:
    """Counts compile-cache, lint-cache and fallback changes across an op."""

    def __init__(self, tr: Any) -> None:
        self.tr = tr

    def __enter__(self) -> "CacheDeltas":
        self.compiled = compiled_cache_info()
        self.lint = lint_cache_info()
        self.fallbacks = _fallbacks()
        return self

    def __exit__(self, *exc: Any) -> None:
        compiled, lint = compiled_cache_info(), lint_cache_info()
        self.tr.count("compile.hits", compiled["hits"] - self.compiled["hits"])
        self.tr.count("compile.cache_misses", compiled["misses"] - self.compiled["misses"])
        self.tr.count("lint.cache_hits", lint["hits"] - self.lint["hits"])
        self.tr.count("replay.fallbacks", _fallbacks() - self.fallbacks)


def _mismatch(what: str, got: np.ndarray, want: np.ndarray) -> "str | None":
    if got.shape == want.shape and np.array_equal(got, want):
        return None
    bad = int(np.sum(got != want)) if got.shape == want.shape else -1
    return f"{what}: {bad} entries differ from the oracle"


def _oracle(tr: Any, a: np.ndarray, sr: Semiring) -> np.ndarray:
    with tr.span("oracle"):
        return closure_reference(a, sr)


# --------------------------------------------------------------------------
# design-sweep


@dataclass(frozen=True)
class Design:
    n: int
    m: int
    geometry: str
    policy: str
    aligned: bool
    semiring: str
    #: seeds verify_implementation's trial inputs
    trial_seed: int
    #: the input the reference simulation and critical path run on
    a: np.ndarray = field(compare=False, repr=False)

    @property
    def key(self) -> tuple:
        return (self.n, self.m, self.geometry, self.policy, self.aligned, self.semiring)

    def label(self) -> str:
        lay = "aligned" if self.aligned else "packed"
        return (
            f"n{self.n}-{self.geometry}-m{self.m}-{self.policy}-{lay}-{self.semiring}"
        )


@dataclass
class DesignOutcome:
    impl: PartitionedImplementation
    verify_ok: bool
    verify_notes: list[str]
    lint_findings: int
    ref: Any
    cp: Any


class DesignSweep:
    """Distinct designs taken cold from spec to a verified implementation.

    A round has one design per size in ``LADDER``.  Sizes are fixed per
    slot because cost grows about as n^3: drawing them would make
    throughput a property of the seed.  Five of the nine slots are n=24,
    so the median op is the middle one of five similar designs; the
    first three of them share one semiring, so two designs in nine
    repeat an (n, semiring) pair on another array (what an FPDG memo
    could reuse).
    """

    name = "design-sweep"
    cold = True
    LADDER = (16, 20, 24, 24, 24, 24, 24, 28, 32)
    REPEAT_SLOTS = (3, 4)
    LINEAR_M = (2, 3, 4, 6, 8)
    MESH_M = (4, 9, 16)
    TRIALS = 10

    def __init__(self, ladder: "tuple[int, ...] | None" = None,
                 linear_m: "tuple[int, ...] | None" = None,
                 mesh_m: "tuple[int, ...] | None" = None) -> None:
        self.LADDER = ladder or self.LADDER
        self.LINEAR_M = linear_m or self.LINEAR_M
        self.MESH_M = mesh_m or self.MESH_M

    def generate(self, seed: int) -> dict:
        return {"seed": seed, "rounds": [], "seen": set()}

    def prepare(self, gen: dict, tr: Any) -> dict:
        self.round(gen, 0)
        return gen

    @staticmethod
    def _deal(rng: random.Random, values: tuple, k: int) -> list:
        """``k`` values covering ``values`` as evenly as possible, shuffled."""
        out: list = []
        while len(out) < k:
            batch = list(values)
            rng.shuffle(batch)
            out += batch
        out = out[:k]
        rng.shuffle(out)
        return out

    def _draw_round(self, rng: random.Random) -> list[Design]:
        # Arrays and policies are dealt evenly over the slots (half
        # linear, half mesh, each m once before any repeats) so that a
        # round's cost does not hinge on the seed's luck.
        k = len(self.LADDER)
        geometries = self._deal(rng, ("linear", "mesh"), k)
        linear_m = iter(self._deal(rng, self.LINEAR_M, geometries.count("linear")))
        mesh_m = iter(self._deal(rng, self.MESH_M, geometries.count("mesh")))
        policies = self._deal(rng, ("vertical", "horizontal"), k)
        semirings = self._deal(rng, tuple(SEMIRINGS), k)
        for slot in self.REPEAT_SLOTS:
            if 0 < slot < k:
                semirings[slot] = semirings[slot - 1]
        designs = []
        for n, geometry, policy, semiring in zip(
            self.LADDER, geometries, policies, semirings
        ):
            linear = geometry == "linear"
            m = next(linear_m) if linear else next(mesh_m)
            aligned = rng.choice((True, False)) if linear else True
            trial_seed = rng.randrange(2**31)
            a = SEMIRINGS[semiring].random_matrix(
                n, np.random.default_rng(trial_seed + 1), density=0.3
            )
            designs.append(
                Design(n, m, geometry, policy, aligned, semiring, trial_seed, a)
            )
        return designs

    def round(self, state: dict, r: int) -> list[Design]:
        """Round ``r``; every design differs from all of earlier rounds."""
        rounds, seen = state["rounds"], state["seen"]
        while len(rounds) <= r:
            for attempt in itertools.count():
                rng = random.Random(f"design-sweep:{state['seed']}:{len(rounds)}:{attempt}")
                designs = self._draw_round(rng)
                keys = {d.key for d in designs}
                if len(keys) == len(designs) and not keys & seen:
                    break
            seen |= keys
            rng.shuffle(designs)
            rounds.append(designs)
        return rounds[r]

    @staticmethod
    def repeat_share(designs: list[Design]) -> float:
        seen: set = set()
        repeats = 0
        for d in designs:
            repeats += (d.n, d.semiring) in seen
            seen.add((d.n, d.semiring))
        return repeats / len(designs)

    def describe(self, op: Design) -> str:
        return op.label()

    def run(self, state: dict, op: Design) -> DesignOutcome:
        sr = SEMIRINGS[op.semiring]
        impl = partition_transitive_closure(
            op.n, op.m, geometry=op.geometry, policy=op.policy,
            aligned=op.aligned, semiring=sr,
        )
        report = verify_implementation(
            impl, trials=self.TRIALS, seed=op.trial_seed, backend="vector"
        )
        ref = impl.simulate(op.a, backend="reference")
        cp = critical_path(impl.exec_plan, impl.dg)
        lint = report.lint
        return DesignOutcome(
            impl, report.ok, list(report.mismatches),
            len(lint) if lint is not None else 0, ref, cp,
        )

    def run_traced(self, state: dict, op: Design, tr: Any) -> DesignOutcome:
        sr = SEMIRINGS[op.semiring]
        n, m = op.n, op.m
        with tr.span("fpdg.build"):
            dg = tc.tc_regular(n)
        with tr.span("ggraph.group"):
            gg = GGraph(dg, group_by_columns)
        with tr.span("gsets.select"):
            if op.geometry == "linear":
                plan = make_linear_gsets(gg, m, aligned=op.aligned)
            else:
                plan = make_mesh_gsets(gg, m)
        with tr.span("gsets.schedule"):
            order = schedule_gsets(plan, op.policy)
            verify_schedule(plan, order)
        with tr.span("metrics.evaluate"):
            report = evaluate_schedule(plan, order)
        impl = PartitionedImplementation(
            dg=dg, gg=gg, plan=plan, order=order, report=report, semiring=sr
        )
        with tr.span("plan.build"):
            ep = impl.exec_plan
        # verify_implementation(backend="vector"): preflight, compile, trials
        with tr.span("lint"):
            lint = run_lint(
                LintTarget.from_implementation(impl, io_bound=tc_io_bandwidth(n, m))
            )
        with tr.span("compile"):
            compiled = get_compiled(ep, dg, sr)
        replay = "replay.bitpack" if compiled.bitpack is not None else "replay.dense"
        rng = np.random.default_rng(op.trial_seed)
        ok, notes = True, []
        for idx in range(self.TRIALS):
            a = sr.random_matrix(n, rng, density=float(rng.uniform(0.15, 0.6)))
            with tr.span("inputs.encode"):
                inputs = tc.make_inputs(a, sr)
            with tr.span(replay):
                res = simulate_vector(ep, dg, inputs, sr)
            with tr.span("outputs.decode"):
                got = res.output_matrix(n, sr)
            with tr.span("verify.oracle"):
                want = closure_reference(a, sr)
            if res.violations or not np.array_equal(got, want):
                ok = False
                notes.append(f"trial {idx}: wrong or violating")
        with tr.span("inputs.encode"):
            inputs = tc.make_inputs(op.a, sr)
        with tr.span("refsim"):
            ref = simulate(ep, dg, inputs, sr)
        tr.count("refsim.fires", ref.busy)
        with tr.span("critpath"):
            cp = critical_path(ep, dg)
        return DesignOutcome(impl, ok, notes, len(lint), ref, cp)

    def check(self, state: dict, op: Design, out: DesignOutcome, tr: Any) -> list[str]:
        sr = SEMIRINGS[op.semiring]
        fails = []
        if not out.verify_ok:
            fails.append("verify_implementation not ok: " + "; ".join(out.verify_notes))
        if out.ref.violations:
            fails.append(f"reference simulation: {len(out.ref.violations)} violations")
        got = out.ref.output_matrix(op.n, sr)
        fails.append(_mismatch("reference output", got, _oracle(tr, op.a, sr)))
        vec = out.impl.simulate(op.a, backend="vector").output_matrix(op.n, sr)
        fails.append(_mismatch("vector output vs reference", vec, got))
        if not out.cp.matches_makespan or out.cp.makespan != out.ref.makespan:
            fails.append(
                f"critical path {out.cp.length} != makespan {out.ref.makespan}"
            )
        return [f for f in fails if f]

    def exact(self, state: dict, op: Design, out: DesignOutcome, acc: Exact) -> None:
        impl = out.impl
        _add_sim(acc, out.ref)
        acc.add("fpdg.nodes", len(impl.dg))
        acc.add("fpdg.edges", _edges(impl.dg))
        acc.add("ggraph.gnodes", len(impl.gg.gnodes))
        acc.add("gsets.count", len(impl.plan.gsets))
        acc.add("plan.fires", len(impl.exec_plan.fires))
        acc.add("plan.stall_cycles", impl.exec_plan.stall_cycles)
        compiled = get_compiled(impl.exec_plan, impl.dg, impl.semiring)
        acc.add("compile.steps", len(compiled.steps))
        acc.add("compile.slots", compiled.n_slots)
        acc.add("compile.bitpack_plans", compiled.bitpack is not None)
        acc.add("lint.findings", out.lint_findings)

    def reset(self) -> None:
        clear_compiled_cache()
        clear_lint_cache()


# --------------------------------------------------------------------------
# replay-batch


@dataclass(frozen=True)
class ReplayOp:
    design: int
    input: int


class ReplayBatch:
    """Warm replay of prebuilt plans over a seeded stream of inputs."""

    name = "replay-batch"
    cold = False
    #: (n, m, geometry, policy, aligned, semiring): boolean plans replay
    #: bit-packed, min-plus plans run dense semiring steps.
    DESIGNS = (
        (24, 4, "linear", "vertical", True, "boolean"),
        (24, 9, "mesh", "vertical", True, "min_plus"),
        (28, 4, "mesh", "horizontal", True, "boolean"),
        (24, 6, "linear", "horizontal", False, "min_plus"),
    )
    POOL = 256

    def __init__(self, designs: "tuple | None" = None, pool: "int | None" = None) -> None:
        if designs is not None:
            self.DESIGNS = designs
        if pool is not None:
            self.POOL = pool

    def generate(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 0x5EED])
        pools = []
        for n, *_rest, semiring in self.DESIGNS:
            sr = SEMIRINGS[semiring]
            pools.append([
                sr.random_matrix(n, rng, density=float(rng.uniform(0.02, 0.4)))
                for _ in range(self.POOL)
            ])
        return {"pools": pools}

    def prepare(self, gen: dict, tr: Any) -> dict:
        clear_compiled_cache()
        impls, bitpack = [], []
        with tr.span("setup.designs"):
            for n, m, geometry, policy, aligned, semiring in self.DESIGNS:
                sr = SEMIRINGS[semiring]
                impl = partition_transitive_closure(
                    n, m, geometry=geometry, policy=policy, aligned=aligned,
                    semiring=sr,
                )
                compiled = get_compiled(impl.exec_plan, impl.dg, sr)
                impls.append(impl)
                bitpack.append(compiled.bitpack is not None)
        return {
            "pools": gen["pools"], "impls": impls, "bitpack": bitpack,
            "oracle": {},
        }

    def round(self, state: dict, r: int) -> list[ReplayOp]:
        return [
            ReplayOp(d, i)
            for i in range(self.POOL) for d in range(len(self.DESIGNS))
        ]

    def describe(self, op: ReplayOp) -> str:
        return f"design{op.design}-input{op.input}"

    def run(self, state: dict, op: ReplayOp) -> tuple:
        impl = state["impls"][op.design]
        sr = impl.semiring
        a = state["pools"][op.design][op.input]
        inputs = tc.make_inputs(a, sr)
        res = simulate_vector(impl.exec_plan, impl.dg, inputs, sr, strict=True)
        return res, res.output_matrix(a.shape[0], sr)

    def run_traced(self, state: dict, op: ReplayOp, tr: Any) -> tuple:
        impl = state["impls"][op.design]
        sr = impl.semiring
        a = state["pools"][op.design][op.input]
        with tr.span("inputs.encode"):
            inputs = tc.make_inputs(a, sr)
        bitpack = state["bitpack"][op.design]
        with tr.span("replay.bitpack" if bitpack else "replay.dense"):
            res = simulate_vector(impl.exec_plan, impl.dg, inputs, sr, strict=True)
        with tr.span("outputs.decode"):
            out = res.output_matrix(a.shape[0], sr)
        return res, out

    def check(self, state: dict, op: ReplayOp, out: tuple, tr: Any) -> list[str]:
        key = (op.design, op.input)
        want = state["oracle"].get(key)
        if want is None:
            impl = state["impls"][op.design]
            want = _oracle(tr, state["pools"][op.design][op.input], impl.semiring)
            state["oracle"][key] = want
        msg = _mismatch("replay output", out[1], want)
        return [msg] if msg else []

    def exact(self, state: dict, op: ReplayOp, out: tuple, acc: Exact) -> None:
        _add_sim(acc, out[0])

    def setup_counts(self, state: dict, acc: Exact) -> None:
        """Counts of the plans prepared ahead (same for every seed)."""
        for impl in state["impls"]:
            compiled = get_compiled(impl.exec_plan, impl.dg, impl.semiring)
            acc.add("compile.steps", len(compiled.steps))
            acc.add("compile.slots", compiled.n_slots)
            acc.add("compile.bitpack_plans", compiled.bitpack is not None)

    def reset(self) -> None:
        pass


# --------------------------------------------------------------------------
# sparse-closure


@dataclass(frozen=True)
class ClosureOp:
    graph: int
    engine: str


class SparseClosure:
    """Closure engines on seeded Kronecker graphs across a size ladder.

    ``bitpack`` runs at every size (dense packed sweep up to n=2048, SCC
    condensation above), ``reference`` (unpacked Warshall) up to n=1024,
    and ``ssc12`` on a seeded sample of sources at every size but 2^11.
    Leaving that one out keeps a round at an odd 15 ops whose middle
    falls among ops of similar cost (n=256 bitpack, n=1024 ssc12), so the
    median latency does not jump between two cost classes.  The check
    compares every op's rows on the sample with ``ssc1``, an engine no op
    runs.
    """

    name = "sparse-closure"
    cold = False
    SCALES = tuple(range(7, 13))
    REFERENCE_MAX_N = 1024
    SSC12_SKIP_SCALES = (11,)
    SOURCES = 32

    def __init__(self, scales: "tuple[int, ...] | None" = None) -> None:
        if scales is not None:
            self.SCALES = scales

    def generate(self, seed: int) -> dict:
        rng = random.Random(f"sparse-closure:{seed}")
        specs = []
        for scale in self.SCALES:
            n = 1 << scale
            kron_seed = rng.randrange(2**31)
            src = sorted(rng.sample(range(n), min(self.SOURCES, n)))
            specs.append((scale, kron_seed, np.array(src, dtype=np.int64)))
        return {"specs": specs}

    def prepare(self, gen: dict, tr: Any) -> dict:
        graphs = []
        for scale, kron_seed, _src in gen["specs"]:
            with tr.span("datasets.generate"):
                graphs.append(kronecker(scale, seed=kron_seed))
        return {
            "graphs": graphs, "sources": [src for *_, src in gen["specs"]],
            "oracle": {}, "pairs": {},
        }

    def round(self, state: dict, r: int) -> list[ClosureOp]:
        ops = []
        for gi, g in enumerate(state["graphs"]):
            ops.append(ClosureOp(gi, "bitpack"))
            if g.n <= self.REFERENCE_MAX_N:
                ops.append(ClosureOp(gi, "reference"))
            if self.SCALES[gi] not in self.SSC12_SKIP_SCALES:
                ops.append(ClosureOp(gi, "ssc12"))
        return ops

    def describe(self, op: ClosureOp) -> str:
        return f"scale{self.SCALES[op.graph]}-{op.engine}"

    def run(self, state: dict, op: ClosureOp) -> Any:
        g = state["graphs"][op.graph]
        if op.engine == "ssc12":
            return compute_closure(g, "ssc12", sources=state["sources"][op.graph])
        return compute_closure(g, op.engine)

    def run_traced(self, state: dict, op: ClosureOp, tr: Any) -> Any:
        # compute_closure picks the kernel (dense or SCC for bitpack);
        # the span is named after it once known.
        with tr.span("closure") as sp:
            res = self.run(state, op)
            sp.name = f"closure.{res.kernel}"
        return res

    def check(self, state: dict, op: ClosureOp, res: Any, tr: Any) -> list[str]:
        g = state["graphs"][op.graph]
        src = state["sources"][op.graph]
        want = state["oracle"].get(op.graph)
        if want is None:
            with tr.span("oracle"):
                want = compute_closure(g, "ssc1", sources=src).words
            state["oracle"][op.graph] = want
        rows = res.words if op.engine == "ssc12" else res.words[src]
        fails = [_mismatch(f"{op.engine} rows on the source sample", rows, want)]
        if op.engine != "ssc12":
            pairs = state["pairs"].setdefault(op.graph, res.closure_edges)
            if pairs != res.closure_edges:
                fails.append(
                    f"{op.engine} reach pairs {res.closure_edges} != {pairs} "
                    "from another engine"
                )
        return [f for f in fails if f]

    def exact(self, state: dict, op: ClosureOp, res: Any, acc: Exact) -> None:
        acc.add("closure.reach_pairs", res.closure_edges)
        if res.kernel == "bitpack-dense":
            n = res.n
            acc.add("closure.word_ops", n * n * -(-n // 64))

    def reset(self) -> None:
        pass


# --------------------------------------------------------------------------
# fault-campaign

#: the classic one-fault kinds, then the multi-fault regimes
FAULT_CELLS = tuple(k.value for k in FaultKind) + tuple(REGIME_NAMES)
BACKENDS = ("reference", "vector")


@dataclass(frozen=True)
class CampaignOp:
    config: str
    kind: str
    backend: str
    seed: int


class FaultCampaign:
    """One ``run_campaign`` cell per op; a round is one whole campaign.

    Every round covers each shipped config x fault kind or regime once,
    under a campaign seed drawn from the workload seed.  Per config, a
    seeded half of the kinds run on the reference backend and the other
    half on the vector backend, so both backends carry the same load in
    every round.
    """

    name = "fault-campaign"
    cold = True

    def __init__(self, configs: "tuple[str, ...] | None" = None,
                 cells: "tuple[str, ...] | None" = None) -> None:
        self.configs = configs or tuple(c.name for c in CAMPAIGN_CONFIGS)
        self.cells = cells or FAULT_CELLS

    def generate(self, seed: int) -> dict:
        return {"seed": seed, "rounds": {}, "compute": {}}

    def prepare(self, gen: dict, tr: Any) -> dict:
        self.round(gen, 0)
        return gen

    def round(self, state: dict, r: int) -> list[CampaignOp]:
        rounds = state["rounds"]
        if r not in rounds:
            rng = random.Random(f"fault-campaign:{state['seed']}:{r}")
            cs = rng.randrange(2**31)
            ops = []
            for config in self.configs:
                kinds = list(self.cells)
                rng.shuffle(kinds)
                half = len(kinds) // 2
                ops += [CampaignOp(config, k, BACKENDS[0], cs) for k in kinds[:half]]
                ops += [CampaignOp(config, k, BACKENDS[1], cs) for k in kinds[half:]]
            rng.shuffle(ops)
            rounds[r] = ops
        return rounds[r]

    def describe(self, op: CampaignOp) -> str:
        return f"{op.config}:{op.kind}:{op.backend}:seed{op.seed}"

    def run(self, state: dict, op: CampaignOp) -> Any:
        if op.kind in REGIME_NAMES:
            result = run_campaign(
                seed=op.seed, configs=[op.config], regime=op.kind,
                backend=op.backend,
            )
        else:
            result = run_campaign(
                seed=op.seed, configs=[op.config], kinds=[op.kind],
                backend=op.backend,
            )
        (cell,) = result.runs
        return cell

    def run_traced(self, state: dict, op: CampaignOp, tr: Any) -> Any:
        with tr.span("resilience.run"):
            return self.run(state, op)

    def check(self, state: dict, op: CampaignOp, cell: Any, tr: Any) -> list[str]:
        return check_campaign_cell(op, cell, tr)

    def _compute_nodes(self, state: dict, n: int) -> frozenset:
        cache = state["compute"]
        if n not in cache:
            dg = tc.tc_regular(n)
            cache[n] = frozenset(
                nid for nid in dg.nodes_of_kind(NodeKind.OP)
                if dg.node(nid).tag == "compute"
            )
        return cache[n]

    def exact(self, state: dict, op: CampaignOp, cell: Any, acc: Exact) -> None:
        acc.add("resilience.retries", cell.retries)
        acc.add("resilience.repartitions", cell.repartitions)
        acc.add("resilience.quarantined", cell.quarantined)
        acc.add("resilience.degraded_gsets", cell.degraded_gsets)
        acc.add("resilience.overhead_cycles", cell.overhead_cycles)
        acc.add("sim.cycles", cell.total_cycles)
        if cell.availability is not None:
            acc.add("resilience.availability_sum", cell.availability)
            acc.add("resilience.availability_n")
        if cell.result is not None:
            cfg = campaign_config(op.config)
            compute = self._compute_nodes(state, cfg.n)
            acc.add("sim.useful", sum(1 for nid in cell.result.fire_cycles if nid in compute))
            acc.add("sim.capacity", cfg.m * cell.total_cycles)

    def reset(self) -> None:
        clear_compiled_cache()
        clear_lint_cache()


def check_campaign_cell(op: CampaignOp, cell: Any, tr: Any) -> list[str]:
    """A cell must recover or degrade, and its output must match the oracle."""
    fails = []
    if not cell.ok:
        fails.append(
            f"cell not ok: error={cell.error} injected={cell.injected} "
            f"detected={cell.detected} recovered={cell.recovered} "
            f"degraded={cell.degraded} oracle_ok={cell.oracle_ok}"
        )
    if cell.result is None:
        fails.append("no recovery result")
        return fails
    cfg = campaign_config(op.config)
    a = seeded_matrix(cfg.n, random.Random(f"{op.seed}:{cfg.name}:matrix"))
    want = _oracle(tr, a, BOOLEAN)
    outputs = cell.result.outputs
    try:
        got = np.array(
            [[outputs[("out", i, j)] for j in range(cfg.n)] for i in range(cfg.n)],
            dtype=want.dtype,
        )
    except KeyError as exc:
        fails.append(f"recovered run lacks output {exc}")
        return fails
    msg = _mismatch("recovered output", got, want)
    if msg:
        fails.append(msg)
    return fails


WORKLOADS: dict[str, Callable[[], Any]] = {
    "design-sweep": DesignSweep,
    "replay-batch": ReplayBatch,
    "sparse-closure": SparseClosure,
    "fault-campaign": FaultCampaign,
}
