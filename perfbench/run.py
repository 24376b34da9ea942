"""Benchmark of the KGC re-evaluation stack: four seeded workloads, one command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload headline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (see ``perfbench/README.md``):

* ``headline``   -- the paper's headline lineup through ``Runner.run()``;
* ``eval_large`` -- a fused stream-ingested FB15k-shaped source, audited,
  de-redundified and evaluated through ``Runner.run()``;
* ``live_audit`` -- a churn delta log replayed into a ``LiveDatasetMaintainer``
  with the audit refreshed after every batch;
* ``serve``      -- a closed loop of single queries against ``repro-kgc serve``.

With ``--trace 0`` the run reports the end-to-end metrics of
:data:`END_TO_END`; with ``--trace 1`` it runs the job once untraced and once
with the layer wrappers of ``perfbench/layers.py``, and reports the per-layer
metrics.  Inputs are generated from ``--seed`` and cached under
``.perfbench/inputs``; every result is written under ``.perfbench/results``
stamped with ``repro.telemetry.bench.host_info()``.  The last line of stdout
is the JSON result; the exit code is 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
WORKLOADS = ("headline", "eval_large", "live_audit", "serve")
#: End-to-end metrics: every workload reports every one (README.md defines
#: what each means per workload).
END_TO_END = (
    ("setup_s", "s"),
    ("latency_mean_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
#: Fresh set-ups per measured run; ``setup_s`` is their median.
SETUP_PROBES = {"headline": 5, "eval_large": 5, "live_audit": 4, "serve": 3}
#: Bumped whenever generated inputs change shape, so stale caches are not reused.
INPUT_VERSION = 1
STATE_DIR = ".perfbench"
PREPARE_TIMEOUT = 600
MEASURE_TIMEOUT = 170


def pinned_env(root: Path) -> Dict[str, str]:
    """The workload processes' environment: pinned hashing and BLAS threads."""
    env = dict(os.environ)
    env.update({
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": str(root / "src"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
    })
    return env


def _child(args: Sequence[str], env: Dict[str, str], timeout: float) -> None:
    command = [sys.executable, str(HERE / "workloads.py"), *args]
    completed = subprocess.run(command, env=env, timeout=timeout, capture_output=True, text=True)
    if completed.returncode != 0:
        raise RuntimeError(
            f"{' '.join(args[:2])} failed (exit {completed.returncode}):\n{completed.stderr}"
        )


def ensure_inputs(
    workload: str, seed: int, small: bool, state: Path, env: Dict[str, str]
) -> Path:
    """Generate (or reuse) the seed's inputs; generation is never timed."""
    name = f"{workload}-s{seed}{'-small' if small else ''}-v{INPUT_VERSION}"
    inputs = state / "inputs" / name
    if (inputs / "inputs.json").is_file():
        return inputs
    staging = state / "inputs" / f".{name}.{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.parent.mkdir(parents=True, exist_ok=True)
    try:
        _child(
            ["prepare", workload, str(seed), str(staging), str(inputs.relative_to(Path.cwd()))]
            + (["--small"] if small else []),
            env, PREPARE_TIMEOUT,
        )
        try:
            staging.rename(inputs)
        except OSError:
            if not (inputs / "inputs.json").is_file():
                raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return inputs


def setup_samples(workload: str, inputs: Path, count: int, env: Dict[str, str]) -> List[float]:
    """Seconds from process spawn until the workload can start timed work."""
    import workloads

    samples = []
    for _ in range(count):
        if workload == "serve":
            with workloads.Server(workloads.serve_command(inputs), env=env) as server:
                samples.append(server.wait_ready())
            continue
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, str(HERE / "workloads.py"), "probe", workload, str(inputs)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = process.stdout.readline()
            samples.append(time.perf_counter() - started)
            _, stderr = process.communicate(timeout=120)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
        if line.strip() != "ready" or process.returncode != 0:
            raise RuntimeError(f"{workload} set-up probe failed:\n{stderr}")
    return samples


def run_workload(workload: str, args: argparse.Namespace, root: Path) -> Dict[str, Any]:
    env = pinned_env(root)
    state = root / STATE_DIR
    phases = {"started": time.perf_counter()}
    inputs = ensure_inputs(workload, args.seed, args.small, state, env)
    phases["prepare"] = time.perf_counter()
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{workload}-s{args.seed}-trace{args.trace}.json"
    setup = [] if args.trace else setup_samples(workload, inputs, SETUP_PROBES[workload], env)
    phases["setup"] = time.perf_counter()
    _child(
        ["measure", workload, str(inputs), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", str(out)],
        env, MEASURE_TIMEOUT,
    )
    phases["measure"] = time.perf_counter()
    result = json.loads(out.read_text(encoding="utf-8"))
    result["phase_seconds"] = {
        name: phases[name] - phases[previous]
        for previous, name in zip(("started", "prepare", "setup"), ("prepare", "setup", "measure"))
    }
    if args.trace:
        metrics = result["per_layer"]
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setup))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        result["setup_samples"] = setup
    failed_checks = sum(not check["passed"] for check in result["checks"])
    summary = {
        "correct": failed_checks == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]) + failed_checks,
        "metrics": metrics,
    }
    result.update(summary, workload=workload, seed=args.seed, seconds=args.seconds)
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _print_report(workload, args, result, out)
    return summary


def _print_report(workload: str, args: argparse.Namespace, result: Dict[str, Any], out: Path) -> None:
    print(f"== {workload} (seed {args.seed}, {args.seconds} s, trace {args.trace})")
    for name, metric in result["metrics"].items():
        print(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']}")
    for key, value in sorted(result.get("info", {}).items()):
        if not isinstance(value, dict):
            print(f"  {key:<30} {value}")
    if args.trace:
        from layers import format_table

        print(format_table(result["span_table"]))
        print(f"  chrome trace: {result['chrome_trace']}")
    print(f"  operations: {result['attempted']} attempted, {result['failed']} failed")
    for check in result["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"  {status} {check['name']} ({check['detail']})")
    print(f"  result: {out}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced input size (smoke tests)")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout (src/repro not found)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(root / "src")]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = {name: run_workload(name, args, root) for name in names}
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = summaries[names[0]]
    else:
        final = {
            "correct": all(summary["correct"] for summary in summaries.values()),
            "attempted": sum(summary["attempted"] for summary in summaries.values()),
            "failed": sum(summary["failed"] for summary in summaries.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, summary in summaries.items()
                for metric, value in summary["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
