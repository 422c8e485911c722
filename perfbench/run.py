"""The repository benchmark: end-to-end and per-layer metrics per workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload design-sweep --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 0            # every workload, one after another
    python3 perfbench/run.py --write-manifest    # regenerate BENCHMARK.json
    python3 -m pytest perfbench -q               # the benchmark's self-tests

Each workload runs in a fresh Python process (``worker.py``) with one
client in a closed loop, ``PYTHONHASHSEED=0`` (node ids hold strings, so
set and dict order depend on it), the simulator backend pinned, and run
ledgers sent to a private directory under ``.perfbench/`` that is
deleted afterwards.  ``--trace 0`` reports the end-to-end metrics of
``spec.END_TO_END``; ``--trace 1`` reports the per-layer metrics of
``spec.PER_LAYER`` from a separate traced run.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Results, traces and the per-seed exact
records land in ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spec import RUN_SECONDS, WORKLOADS, manifest  # noqa: E402

#: A workload process that has not finished by then is killed.
CHILD_TIMEOUT_S = 170


def child_env(runlog_dir: Path) -> dict[str, str]:
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONPATH"
    }
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
        REPRO_SIM_BACKEND="reference",
        REPRO_RUNLOG_DIR=str(runlog_dir),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[int, str]:
    """Run one workload in a fresh process; returns (exit code, stdout)."""
    tmp = ROOT / ".perfbench" / "tmp" / f"{name}-{os.getpid()}"
    runlog_dir = tmp / "runlog"
    runlog_dir.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(runlog_dir), stdout=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S, text=True,
        )
    except subprocess.TimeoutExpired:
        return 124, ""
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return proc.returncode, proc.stdout


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true")
    args = ap.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        code, out = run_workload(name, args.seed, args.seconds, args.trace)
        if code != 0:
            sys.stderr.write(out)
            print(f"error: workload {name} exited with code {code}", file=sys.stderr)
            return code or 1
        lines = out.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        results[name] = lines[-1]
    if args.workload:
        print(results[args.workload])
    else:
        print(json.dumps({n: json.loads(r) for n, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
