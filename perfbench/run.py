"""Benchmark runner: one workload, fresh worker processes, closed loop.

    python3 perfbench/run.py --workload suite2d --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  It writes the workload's
config (generated from ``--seed``) and every worker's files under
``.perfbench_runs/`` in the checkout, then

1. starts one untimed worker, so byte-compilation and the page cache are
   warm, and records the package, numpy and BLAS versions;
2. starts ``SETUP_PROBES`` set-up-only workers (``setup_s``);
3. with ``--trace 0``, runs the workload one worker after another, each
   waiting for the last, until ``--seconds`` have passed (at least once);
   with ``--trace 1``, runs it once untraced and then traced until
   ``--seconds`` have passed.

Every invocation's output is re-checked against the config's tolerances.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The full record (metadata, every
sample, output hashes, problems) goes to ``record.json`` in the run's
directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
BUDGET_S = 170.0  # every worker is started and reaped within this
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in spans.TRACED:
        units[f"{name}.s"] = "s"
        units[f"{name}.incl_s"] = "s"
        units[f"{name}.calls"] = "count"
    units["jets.ops"] = "count"
    for name in spans.BYTES:
        units[f"{name}.bytes"] = "B"
    units["quadrature.nodes"] = "count"
    units["process.cpu_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.self_time_share"] = "ratio"
    units["stability.max_pairwise_rel_diff"] = "ratio"
    units["stability.max_fd_rel_diff"] = "ratio"
    units["geometry.max_soliton_residual"] = "abs"
    return units


class Runner:
    """Starts workers for one workload run and keeps every sample."""

    def __init__(self, workload: str, run_dir: Path, config_path: Path, deadline: float):
        self.workload = workload
        self.run_dir = run_dir
        self.config_path = config_path
        self.deadline = deadline
        self.count = 0

    def invoke(self, run: bool, trace: bool = False) -> dict | None:
        """Start one worker and wait for it; None if it failed or overran."""
        self.count += 1
        tag = f"{self.count:03d}"
        result = self.run_dir / f"{tag}.result.json"
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload",
            self.workload,
            "--config",
            str(self.config_path),
            "--result",
            str(result),
        ]
        if run:
            cmd += ["--out", str(self.run_dir / f"{tag}.out"), "--run-id", tag]
            if trace:
                cmd.append("--trace")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None
        with open(self.run_dir / f"{tag}.log", "wb") as log:
            try:
                proc = subprocess.run(
                    cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, timeout=timeout
                )
            except subprocess.TimeoutExpired:
                return None
        if proc.returncode != 0 or not result.is_file():
            return None
        return json.loads(result.read_text(encoding="utf-8"))


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_state() -> dict:
    """HEAD and whether tracked files differ from it; None outside a git checkout."""
    unknown = {"revision": None, "dirty": None}
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return unknown
    if rev.returncode != 0 or status.returncode != 0:
        return unknown
    return {"revision": rev.stdout.strip(), "dirty": bool(status.stdout.strip())}


def record_hash(key: str, digest: str) -> bool:
    """Remember the output hash for ``key``; False if a different one is on file."""
    path = RUNS / "output_hashes.json"
    known = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    if known.setdefault(key, digest) != digest:
        return False
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True, indent=1), encoding="utf-8")
    os.replace(tmp, path)
    return True


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics: medians over traced invocations of per-run totals."""
    rows = []
    for res in traced:
        tr = res["trace"]
        times = spans.layer_times(tr["spans"])
        row = {}
        for name in spans.TRACED:
            t = times.get(name, {"s": 0.0, "incl_s": 0.0, "calls": 0})
            row[f"{name}.s"] = t["s"]
            row[f"{name}.incl_s"] = t["incl_s"]
            row[f"{name}.calls"] = t["calls"]
        for key in ["jets.ops", "quadrature.nodes"] + [f"{n}.bytes" for n in spans.BYTES]:
            row[key] = tr["counts"].get(key, 0)
        row["trace.self_time_share"] = sum(t["s"] for t in times.values()) / res["wall_s"]
        rows.append(row)
    metrics = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    metrics["process.cpu_s"] = statistics.median(r["cpu_s"] for r in untraced)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    gates = {
        "stability.max_pairwise_rel_diff": 0.0,
        "stability.max_fd_rel_diff": 0.0,
        "geometry.max_soliton_residual": 0.0,
    }
    for res in traced + untraced:
        sources = [res["check"]["gates"]] + ([res["trace"]["gates"]] if res["trace"] else [])
        for source in sources:
            for key, value in source.items():
                gates[key] = max(gates[key], value)
    metrics.update(gates)
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "soliton_stability" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package source at {ROOT / 'src'}\n")
        return 2
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    config = workloads.make_config(args.workload, args.seed)
    config_blob = workloads.config_bytes(config)
    config_path = run_dir / "config.json"
    config_path.write_bytes(config_blob)
    runner = Runner(args.workload, run_dir, config_path, start + BUDGET_S)

    warm = runner.invoke(run=False)
    if warm is None:
        sys.stderr.write(f"perfbench: set-up failed, see {run_dir}\n")
        return 2
    setup_samples = []
    for _ in range(SETUP_PROBES):
        probe = runner.invoke(run=False)
        if probe is None:
            sys.stderr.write(f"perfbench: set-up failed, see {run_dir}\n")
            return 2
        setup_samples.append(probe["setup_s"])

    expected = workloads.expected_ops(args.workload, config)
    attempted = failed = 0
    problems: list[str] = []
    untraced: list[dict] = []
    traced: list[dict] = []

    def one(trace: bool) -> bool:
        nonlocal attempted, failed
        res = runner.invoke(run=True, trace=trace)
        if res is None:
            attempted += expected
            failed += expected
            problems.append(f"invocation {runner.count} did not finish (see its .log)")
            return False
        attempted += res["check"]["attempted"]
        failed += res["check"]["failed"]
        problems.extend(f"invocation {runner.count}: {p}" for p in res["check"]["problems"])
        setup_samples.append(res["setup_s"])
        (traced if trace else untraced).append(res)
        return True

    ok = True
    if args.trace:
        ok = one(trace=False)
    loop_start = time.monotonic()
    while ok:
        ok = one(trace=bool(args.trace))
        done = traced if args.trace else untraced
        if time.monotonic() - loop_start >= args.seconds:
            break
        if ok and time.monotonic() + 1.5 * done[-1]["wall_s"] > runner.deadline:
            break

    hashes = sorted({r["sha256"] for r in untraced + traced if r["sha256"]})
    src_hash = source_hash()
    deterministic = len(hashes) <= 1
    if len(hashes) == 1:
        key = f"{args.workload}|{args.seed}|{src_hash}"
        deterministic = record_hash(key, hashes[0])
    if not deterministic:
        problems.append("output bytes differ between runs of the same code and seed")

    metadata = {
        "workload": args.workload,
        "seed": args.seed,
        "variation_seed": config.get("variations", {}).get("seed"),
        "config_sha256": hashlib.sha256(config_blob).hexdigest(),
        "nodes": workloads.node_count(config, workloads.WORKLOADS[args.workload].command),
        "source_sha256": src_hash,
        "git": git_state(),
        "versions": warm["versions"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "output_sha256": hashes,
        "deterministic": deterministic,
        "closed_loop": "one worker at a time, --workers 1",
        "why": workloads.WORKLOADS[args.workload].why,
    }

    counts = {"untraced": len(untraced), "traced": len(traced), "setup": len(setup_samples)}
    if not (untraced and (traced or not args.trace)):
        metrics = {}
    elif args.trace:
        units = per_layer_units()
        values = layer_metrics(traced, untraced)
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    correct = failed == 0 and deterministic and bool(metrics)
    record = {
        "metadata": metadata,
        "counts": counts,
        "problems": problems,
        "setup_samples": setup_samples,
        "untraced": untraced,
        "metrics": metrics,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print("meta " + json.dumps(metadata, sort_keys=True))
    for p in problems:
        print(f"problem: {p}")
    samples = counts["traced"] if args.trace else counts["untraced"]
    for name, m in metrics.items():
        n = counts["setup"] if name == "setup_s" else samples
        print(f"{name} = {m['value']:.6g} {m['unit']} (median of {n})")
    print(f"ops attempted {attempted}, failed {failed}; record in {run_dir}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
