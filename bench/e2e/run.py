#!/usr/bin/env python3
"""End-to-end benchmark of the VPP RowHammer study.

Builds bench/e2e (the vppbench program, linked against the repository's
libraries) and runs each workload in its own process, so peak RSS stays per
workload. Prints every metric as ``name value unit``, checks the outputs,
writes BENCH_e2e.json (or, with --trace, layers.json plus one Chrome trace
per workload), and prints one JSON result object as the last stdout line.

  python3 bench/e2e/run.py --seed 1                  # all four workloads
  python3 bench/e2e/run.py --workload vppd_mix --seed 3 --seconds 15
  python3 bench/e2e/run.py --trace                   # per-layer attribution
  python3 bench/e2e/run.py --write-goldens           # re-pin --seed 1 outputs

Exit status is 0 only when every run completed and every correctness check
passed: vppbench's own checks (repetitions byte-identical, recomputed
shards equal, vppd repeats equal) and, for --seed 1, the output digests
pinned in bench/e2e/goldens.json. Once the build succeeded, the result
line is printed even when a run fails; a failed build prints none.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DEFAULT_SECONDS = 25
SCHEMA = "vppstudy-bench-e2e/1"

WORKLOADS = ("alg1_campaign", "alg23_campaign", "vppd_mix", "distributed_2w")

# The gated metrics -- those every workload reports -- with their direction
# and bound are BENCHMARK.json's. `bound` is the share of the parent's
# median by which a metric may worsen before a change counts as a
# regression.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
GATED_E2E = [m["name"] for m in BENCHMARK["end_to_end"]]
GATED_LAYERS = [m["name"] for m in BENCHMARK["per_layer"]]

# End-to-end metrics: (better, bound). Besides the gated ones, the metrics
# reported only where they apply.
E2E = {m["name"]: (m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]}
E2E.update({
    "fail_frac": ("lower", 0.0),
    "cold_wall_s": ("lower", 0.25),
    "req_p50_ms": ("lower", 0.25),
    "req_p95_ms": ("lower", 0.25),
    "miss_req_p50_ms": ("lower", 0.25),
    "hit_req_p50_ms": ("lower", 0.25),
    "req_per_s": ("higher", 0.25),
})

# Per-layer metrics of traced runs: the end-to-end metric and workloads each
# should move.
LAYERS = {
    "softmc.init_row_us": "wall_s on alg1_campaign",
    "softmc.read_row_us": "wall_s on alg1_campaign",
    "softmc.hammer_us": "wall_s on alg1_campaign",
    "softmc.read_column_us": "wall_s on alg23_campaign",
    "softmc.wait_us": "wall_s on alg23_campaign",
    "softmc.build_share": "wall_s on alg1_campaign, alg23_campaign",
    "softmc.dispatch_share": "wall_s on alg1_campaign, alg23_campaign",
    "softmc.commands_per_cell": "cells_per_s on alg1_campaign",
    "softmc.column_cmds_per_cell": "cells_per_s on alg1_campaign",
    "dram.activate_us": "wall_s on alg1_campaign",
    "dram.column_ns": "wall_s on alg1_campaign, alg23_campaign",
    "dram.hammer_pair_ns": "wall_s on alg1_campaign",
    "dram.flips_per_cell": "wall_s on alg1_campaign",
    "harness.measure_ber_us": "wall_s on alg1_campaign, distributed_2w",
    "harness.measure_ber_calls_per_row": "wall_s on alg1_campaign, distributed_2w",
    "harness.test_row_ms": "wall_s on alg1_campaign, distributed_2w",
    "harness.wcdp_row_ms": "wall_s on alg1_campaign, distributed_2w",
    "harness.trcd_row_ms": "wall_s on alg23_campaign",
    "harness.retention_row_ms": "wall_s on alg23_campaign",
    "core.shard_ms_p50": "wall_s on alg1_campaign, alg23_campaign",
    "core.shard_ms_p95": "wall_s on alg1_campaign, alg23_campaign",
    "core.pool_efficiency": "wall_s on alg1_campaign, alg23_campaign",
    "core.checkpoint_bytes": "wall_s on alg1_campaign, distributed_2w",
    "core.checkpoint_bytes_per_shard": "wall_s on alg1_campaign, distributed_2w",
    "core.manifest_write_ms": "wall_s on alg1_campaign, distributed_2w",
    "core.manifest_load_ms": "wall_s on alg1_campaign, distributed_2w",
    "core.manifest_overhead_frac": "wall_s on alg1_campaign",
    "core.merge_ms": "wall_s on distributed_2w",
    "server.cache_hit_frac": "req_p50_ms on vppd_mix",
    "server.cache_cells": "req_p50_ms on vppd_mix",
    "server.cache_evictions": "req_p50_ms on vppd_mix",
    "server.service_ms_p50": "req_p50_ms on vppd_mix",
    "server.wire_queue_ms_p50": "hit_req_p50_ms on vppd_mix",
    "server.encode_us": "hit_req_p50_ms on vppd_mix",
    "server.decode_us": "hit_req_p50_ms on vppd_mix",
    "server.queue_rejected": "fail_frac on vppd_mix",
    "server.lease_rtt_ms": "wall_s on distributed_2w",
    "server.submit_rtt_ms": "wall_s on distributed_2w",
    "server.worker_idle_frac": "wall_s on distributed_2w",
    "server.dropped_batches": "wall_s on distributed_2w",
    "server.duplicate_shards": "wall_s on distributed_2w",
    "common.json_parse_ms": "wall_s on distributed_2w",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build vppbench; all tool output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("run.py: no library sources under src/ -- nothing to build")
        return None
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "vppbench"], stdout=sys.stderr, check=True)
    return build_dir / "vppbench"


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(binary, workload, args, out_dir):
    cmd = [str(binary), workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(out_dir)]
    if args.trace:
        cmd.append("--trace")
    # Generous against the run's own length, well inside the 180 s limit.
    timeout = min(170, 60 + 4 * args.seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {timeout} s and was killed")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"run.py: {workload} exited with {proc.returncode}")
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        log(f"run.py: {workload} printed no result document")
        return None


def crashed(workload):
    """The result of a run that died: one attempted operation, failed."""
    return {"failures": [f"{workload} did not complete"], "attempted": 1,
            "failed": 1, "metrics": {}, "info": {}, "outputs": {}}


def check_goldens(workload, result, goldens):
    """Digests of --seed 1 outputs must equal the pinned ones."""
    pinned = goldens.get("workloads", {}).get(workload)
    if pinned is None:
        return [f"no goldens pinned for {workload}"]
    got = result.get("outputs", {})
    errors = []
    for key, digest in sorted(pinned.items()):
        if got.get(key) != digest:
            errors.append(f"{key}: digest {got.get(key)} != golden {digest}")
    for key in sorted(set(got) - set(pinned)):
        errors.append(f"{key}: output not pinned in goldens.json")
    return errors


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help="measured time per workload run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1], help="traced run: per-layer metrics")
    parser.add_argument("--build-dir", default=str(ROOT / "build" / "e2e"))
    parser.add_argument("--json", help="where to write BENCH_e2e.json "
                        "(default: inside the build directory)")
    parser.add_argument("--write-goldens", action="store_true",
                        help="pin this run's --seed 1 output digests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.write_goldens and (args.seed != 1 or args.trace):
        parser.error("--write-goldens pins plain --seed 1 runs only")

    build_dir = Path(args.build_dir)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"run.py: build failed: {e}")
        return 2
    if binary is None:
        return 2
    out_dir = build_dir / "out"
    goldens_path = HERE / "goldens.json"
    goldens = json.loads(goldens_path.read_text()) if goldens_path.is_file() else {}

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    names = GATED_LAYERS if args.trace else GATED_E2E
    results = {}
    ok = True
    attempted = failed = 0
    final_metrics = {}
    for workload in workloads:
        result = run_workload(binary, workload, args, out_dir)
        completed = result is not None
        if not completed:
            result = crashed(workload)
        errors = list(result["failures"])
        if completed and args.seed == 1 and not args.trace \
                and not args.write_goldens:
            errors += check_goldens(workload, result, goldens)
        metrics = result["metrics"]
        errors += [f"metric {n} missing" for n in names if n not in metrics]
        correct = not errors
        ok = ok and correct
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"== {workload} ({'correct' if correct else 'INCORRECT'}) ==")
        for name, m in metrics.items():
            print(f"{name} {m['value']!r} {m['unit']}")
        for e in errors:
            log(f"run.py: {workload}: {e}")
        results[workload] = {"correct": correct, "errors": errors,
                             "attempted": result["attempted"],
                             "failed": result["failed"],
                             "metrics": metrics, "info": result["info"],
                             "outputs": result["outputs"]}
        for name in names:
            if name in metrics:
                key = name if len(workloads) == 1 else f"{workload}.{name}"
                final_metrics[key] = {"value": metrics[name]["value"],
                                      "unit": metrics[name]["unit"]}

    info = next(iter(results.values()))["info"]
    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "hardware_concurrency": int(info.get("hardware_concurrency", 0)),
        "compiler": info.get("compiler", "unknown"),
        "build_type": info.get("build_type", "unknown"),
        "simd": info.get("simd", "unknown"),
        "git_sha": git_sha(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }
    doc = {"schema": SCHEMA, "seed": args.seed, "seconds": args.seconds,
           "trace": bool(args.trace), "host": host, "workloads": {}}
    for workload, r in results.items():
        entry = dict(r)
        entry["metrics"] = {}
        for name, m in r["metrics"].items():
            spec = E2E.get(name)
            if args.trace:
                entry["metrics"][name] = dict(m, moves=LAYERS.get(name, ""))
            else:
                entry["metrics"][name] = dict(
                    m, better=spec[0] if spec else "lower",
                    bound=spec[1] if spec else None)
        if args.trace:
            spans = out_dir / f"spans-{workload}.json"
            entry["spans"] = json.loads(spans.read_text()) if spans.is_file() else {}
            entry["chrome_trace"] = str(out_dir / f"trace-{workload}.json")
        doc["workloads"][workload] = entry
    if args.trace:
        path = build_dir / "layers.json"
    else:
        path = Path(args.json) if args.json else build_dir / "BENCH_e2e.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    log(f"run.py: wrote {path}")

    if args.write_goldens and ok:
        pinned = json.loads(goldens_path.read_text()) if goldens_path.is_file() \
            else {"seed": 1, "workloads": {}}
        for workload, r in results.items():
            pinned["workloads"][workload] = r["outputs"]
        goldens_path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        log(f"run.py: pinned {', '.join(results)} in {goldens_path}")

    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": final_metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
