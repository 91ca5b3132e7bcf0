#!/usr/bin/env python3
"""CI perf gate over vppstudy bench snapshots.

Snapshots are the ``vppstudy-bench-perf/1`` JSON files the bench binaries
write (``{"benchmarks": [{"name": ..., "ns_per_op": ...}, ...]}``). A name
can appear several times in one snapshot -- ``--benchmark_repetitions=N``
emits one entry per repetition, and ``BM_StudySweep``'s hardware-concurrency
argument can collide with a fixed argument on small runners -- so every
consumer here first reduces a name's samples to their median, which is what
makes the gate stable on shared CI runners.

Subcommands:
  compare BASELINE CURRENT  Gate median ns/op against the checked-in
                            baseline: any benchmark whose ratio exceeds the
                            threshold (default 1.15) fails the job, unless
                            advisory mode is on (--advisory, or a non-empty
                            $PERF_ADVISORY -- the workflow sets it from the
                            `perf-regression-ok` PR label). Always renders
                            the full delta table, and appends it to
                            $GITHUB_STEP_SUMMARY when that is set. Warns
                            (advisory only) when BASELINE has no "host"
                            block, and prints both core counts (or both
                            SIMD kernel names) when the two snapshots ran
                            on different core counts (or kernels).
  scaling CURRENT           Ratio check of two benchmarks in one snapshot:
                            by default the jobs=2 study sweep must not be
                            slower than jobs=1 (the whole point of sharded
                            jobs); --base/--test pick another pair, e.g. the
                            checkpoint append at 1000 vs 100 journal records.
                            Fails when the median ns/op ratio test/base
                            exceeds --tolerance (default 1.0).
  self-test                 Unit check for the gate itself: a synthetic >15%
                            regression must trip `compare`, a borderline one
                            must not, `scaling` must cut both ways, and
                            the host warnings must fire when they should.
                            Run in CI so a broken gate cannot pass silently.
"""

import argparse
import json
import os
import statistics
import sys

DEFAULT_THRESHOLD = 1.15
SCALING_BASE = "BM_StudySweep/1/process_time/real_time"
SCALING_TEST = "BM_StudySweep/2/process_time/real_time"


def load_medians(path):
    """name -> median ns_per_op across all samples of that name."""
    with open(path) as f:
        data = json.load(f)
    samples = {}
    for bench in data.get("benchmarks", []):
        samples.setdefault(bench["name"], []).append(float(bench["ns_per_op"]))
    return {name: statistics.median(vals) for name, vals in samples.items()}


def load_host(path):
    """The snapshot's "host" block (core counts, SIMD kernels), or None."""
    with open(path) as f:
        return json.load(f).get("host")


def host_notes(baseline_path, base_host, current_host):
    """Advisory lines on how comparable the two snapshots' hosts are."""
    if not base_host:
        return [
            f"::warning::{baseline_path} has no host block, so its ns/op "
            "cannot be read against a core count; re-record it from a "
            "snapshot that carries its host"
        ]
    current_host = current_host or {}
    notes = []
    base_cores = base_host.get("nproc")
    current_cores = current_host.get("nproc")
    if current_cores is not None and base_cores != current_cores:
        notes.append(
            f"::warning::core counts differ: baseline nproc {base_cores}, "
            f"current nproc {current_cores}"
        )
    # The sensing rows run the hash-walk kernels, so their ns/op depends on
    # the kernel width (scalar, 4 or 8 lanes): name both when they differ.
    base_simd = base_host.get("simd")
    current_simd = current_host.get("simd")
    if current_simd is not None and base_simd != current_simd:
        notes.append(
            f"::warning::SIMD kernels differ: baseline simd {base_simd}, "
            f"current simd {current_simd}"
        )
    return notes


def compare_medians(base, current, threshold):
    """Return (table_lines, regressions) for current vs base medians."""
    lines = [
        "| benchmark | baseline ns/op | current ns/op | ratio |",
        "|---|---:|---:|---:|",
    ]
    regressions = []
    for name in sorted(current):
        ns = current[name]
        ref = base.get(name)
        if ref is None:
            lines.append(f"| {name} | (new) | {ns:,.1f} | - |")
            continue
        ratio = ns / ref if ref > 0 else float("inf")
        flag = " :x:" if ratio > threshold else ""
        lines.append(f"| {name} | {ref:,.1f} | {ns:,.1f} | {ratio:.2f}x{flag} |")
        if ratio > threshold:
            regressions.append((name, ratio))
    for name in sorted(set(base) - set(current)):
        lines.append(f"| {name} | {base[name]:,.1f} | (missing) | - |")
    return lines, regressions


def append_step_summary(text):
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if path:
        with open(path, "a") as f:
            f.write(text)


def advisory_requested(args):
    if getattr(args, "advisory", False):
        return True
    env = os.environ.get("PERF_ADVISORY", "")
    return env not in ("", "0", "false")


def missing_required(current, prefixes):
    """Required prefixes with no matching benchmark name in the snapshot."""
    return [
        p
        for p in prefixes
        if not any(name.startswith(p) for name in current)
    ]


def cmd_compare(args):
    base = load_medians(args.baseline)
    current = load_medians(args.current)
    # A benchmark the baseline lists but the run filter dropped shows up as
    # "(missing)" in the table without failing; --require turns absence of a
    # named family into a hard error so a filter typo cannot un-gate it.
    absent = missing_required(current, getattr(args, "require", None) or [])
    if absent:
        for prefix in absent:
            print(
                f"::error::required benchmark '{prefix}' is absent from "
                f"{args.current} -- check the --benchmark_filter"
            )
        return 2
    for note in host_notes(
        args.baseline, load_host(args.baseline), load_host(args.current)
    ):
        print(note)
    table, regressions = compare_medians(base, current, args.threshold)
    advisory = advisory_requested(args)
    mode = "advisory (perf-regression-ok)" if advisory else "gating"
    header = (
        f"## perf gate: median ns/op vs baseline "
        f"({mode}, threshold {args.threshold:.2f}x)"
    )
    lines = [header, ""] + table
    if regressions:
        lines.append("")
        lines.append(
            f"Regressions (> {args.threshold:.2f}x): "
            + ", ".join(f"{n} ({r:.2f}x)" for n, r in regressions)
        )
    summary = "\n".join(lines) + "\n"
    print(summary)
    append_step_summary(summary)
    for name, ratio in regressions:
        level = "warning" if advisory else "error"
        print(f"::{level}::{name} is {ratio:.2f}x the baseline median ns/op")
    if regressions and not advisory:
        print(
            "perf gate FAILED; refresh bench/BENCH_baseline.json if the "
            "regression is intentional, or apply the perf-regression-ok label"
        )
        return 1
    return 0


def cmd_scaling(args):
    medians = load_medians(args.current)
    base = medians.get(args.base)
    test = medians.get(args.test)
    if base is None or test is None:
        print(
            f"::error::scaling smoke needs both '{args.base}' and "
            f"'{args.test}' in {args.current}; found {sorted(medians)}"
        )
        return 2
    ratio = test / base if base > 0 else float("inf")
    verdict = "ok" if ratio <= args.tolerance else "FAILED"
    summary = (
        f"## scaling smoke: {args.test} vs {args.base} ({verdict})\n\n"
        f"| run | median wall ns/op |\n|---|---:|\n"
        f"| {args.base} | {base:,.1f} |\n"
        f"| {args.test} | {test:,.1f} |\n\n"
        f"test / base = {ratio:.3f}x (tolerance {args.tolerance:.2f}x)\n"
    )
    print(summary)
    append_step_summary(summary)
    if ratio > args.tolerance:
        print(
            f"::error::{args.test} is {ratio:.2f}x {args.base} "
            f"(tolerance {args.tolerance:.2f}x)"
        )
        return 1
    return 0


def cmd_self_test(_args):
    """The gate must trip on a synthetic regression and stay quiet otherwise."""
    base = {"BM_A": 100.0, "BM_B": 200.0}
    # 1.20x on BM_A: must be flagged at the 1.15 threshold.
    _, regressions = compare_medians(base, {"BM_A": 120.0, "BM_B": 200.0}, 1.15)
    if [name for name, _ in regressions] != ["BM_A"]:
        print(f"self-test FAILED: 1.20x regression not flagged: {regressions}")
        return 1
    # 1.10x on both: inside the threshold, must pass.
    _, regressions = compare_medians(base, {"BM_A": 110.0, "BM_B": 220.0}, 1.15)
    if regressions:
        print(f"self-test FAILED: 1.10x wrongly flagged: {regressions}")
        return 1
    # --require: a present prefix passes, an absent one must be reported.
    current = {"BM_FuzzGeneration/8": 100.0, "BM_A": 100.0}
    if missing_required(current, ["BM_FuzzGeneration", "BM_A"]):
        print("self-test FAILED: present prefixes reported missing")
        return 1
    if missing_required(current, ["BM_StudySweep"]) != ["BM_StudySweep"]:
        print("self-test FAILED: absent prefix not reported")
        return 1
    # Host notes: a hostless baseline is named; differing core counts give
    # one line with both; matching hosts give nothing.
    notes = host_notes("base.json", None, {"nproc": 4})
    if len(notes) != 1 or "base.json" not in notes[0]:
        print(f"self-test FAILED: hostless baseline not flagged: {notes}")
        return 1
    notes = host_notes("base.json", {"nproc": 4}, {"nproc": 16})
    counts = ("baseline nproc 4,", "current nproc 16")
    if len(notes) != 1 or not all(c in notes[0] for c in counts):
        print(f"self-test FAILED: core-count mismatch not reported: {notes}")
        return 1
    if host_notes("base.json", {"nproc": 4}, {"nproc": 4}):
        print("self-test FAILED: matching hosts wrongly flagged")
        return 1
    # Differing SIMD kernels give one line naming both (a baseline recorded
    # before snapshots named them differs from any named kernel); matching
    # kernels give nothing, and a core-count mismatch adds its own line.
    notes = host_notes(
        "base.json",
        {"nproc": 4, "simd": "avx512"},
        {"nproc": 4, "simd": "avx2"},
    )
    kernels = ("baseline simd avx512,", "current simd avx2")
    if len(notes) != 1 or not all(k in notes[0] for k in kernels):
        print(f"self-test FAILED: SIMD kernel mismatch not reported: {notes}")
        return 1
    if host_notes(
        "base.json",
        {"nproc": 4, "simd": "avx2"},
        {"nproc": 4, "simd": "avx2"},
    ):
        print("self-test FAILED: matching SIMD kernels wrongly flagged")
        return 1
    notes = host_notes("base.json", {"nproc": 4}, {"nproc": 8, "simd": "avx2"})
    if len(notes) != 2:
        print("self-test FAILED: core and kernel mismatch not both reported")
        return 1
    # Median reduction: {90, 300, 100} -> 100, not the 163 mean.
    import tempfile

    snapshot = {
        "schema": "vppstudy-bench-perf/1",
        "benchmarks": [
            {"name": "BM_A", "ns_per_op": 90.0},
            {"name": "BM_A", "ns_per_op": 300.0},
            {"name": "BM_A", "ns_per_op": 100.0},
            {"name": SCALING_BASE, "ns_per_op": 1000.0},
            {"name": SCALING_TEST, "ns_per_op": 600.0},
        ],
    }
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        json.dump(snapshot, f)
        path = f.name
    saved_summary = os.environ.pop("GITHUB_STEP_SUMMARY", None)
    try:
        medians = load_medians(path)
        if medians["BM_A"] != 100.0:
            print(f"self-test FAILED: median wrong: {medians['BM_A']}")
            return 1
        # Scaling: 0.6x passes, and an inverted (regressing) pair must fail.
        ns = argparse.Namespace(
            current=path, base=SCALING_BASE, test=SCALING_TEST, tolerance=1.0
        )
        if cmd_scaling(ns) != 0:
            print("self-test FAILED: 0.6x scaling wrongly rejected")
            return 1
        ns_bad = argparse.Namespace(
            current=path, base=SCALING_TEST, test=SCALING_BASE, tolerance=1.0
        )
        if cmd_scaling(ns_bad) == 0:
            print("self-test FAILED: inverted scaling not rejected")
            return 1
    finally:
        os.unlink(path)
        if saved_summary is not None:
            os.environ["GITHUB_STEP_SUMMARY"] = saved_summary
    print("perf gate self-test passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="gate current snapshot vs baseline")
    p.add_argument("baseline")
    p.add_argument("current")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--advisory", action="store_true")
    p.add_argument(
        "--require",
        action="append",
        metavar="PREFIX",
        help="fail (exit 2) unless CURRENT has a benchmark with this "
        "name prefix; repeatable",
    )
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("scaling", help="jobs=2 must not be slower than jobs=1")
    p.add_argument("current")
    p.add_argument("--base", default=SCALING_BASE)
    p.add_argument("--test", default=SCALING_TEST)
    p.add_argument("--tolerance", type=float, default=1.0)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("self-test", help="unit check of the gate logic")
    p.set_defaults(func=cmd_self_test)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
