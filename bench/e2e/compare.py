#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs (bench/e2e/run.py output).

Subcommands:
  PARENT_DIR CHANGE_DIR   Each directory holds the BENCH_e2e.json files of
                          one side's runs (every *.json with the
                          vppstudy-bench-e2e/1 schema). Runs pair up by
                          sorted file name, so name them run-01.json,
                          run-02.json, ... on both sides and alternate which
                          side runs first. For every (workload, metric) the
                          table gives each side's median and quartiles and
                          a verdict, the first that applies:
                            regression     the change's median is worse than
                                           the parent's by more than the
                                           bound; with a bound of 0
                                           (fail_frac), any worse mean
                            unresolved     a side's spread (quartile
                                           distance / median) exceeds the
                                           metric's bound, and not every
                                           change run beats every parent run
                            gain           the change wins at least 9/10 of
                                           the pairs (ties count for
                                           neither) and the medians differ by
                                           more than the parent's quartile
                                           distance
                            unchanged      none of the above
                          Exits 1 when any metric regressed or is
                          unresolved: neither shows the change no worse.
  self-test               Unit check of the verdict logic on synthetic runs,
                          including a pass through real files on disk.
"""

import json
import statistics
import sys
import tempfile
from pathlib import Path

SCHEMA = "vppstudy-bench-e2e/1"
GAIN_WIN_SHARE = 0.9


def load_runs(directory):
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(doc, dict) and doc.get("schema") == SCHEMA \
                and not doc.get("trace"):
            runs.append(doc)
    return runs


def collect(runs):
    """(workload, metric) -> {values, unit, better, bound}, in run order."""
    out = {}
    for doc in runs:
        for workload, entry in doc["workloads"].items():
            for name, m in entry["metrics"].items():
                if m.get("bound") is None:
                    continue
                slot = out.setdefault((workload, name), {
                    "values": [], "unit": m["unit"], "better": m["better"],
                    "bound": float(m["bound"])})
                slot["values"].append(float(m["value"]))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def better(a, b, direction):
    """True when value a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def relative_worsening(parent, change, direction):
    delta = change - parent if direction == "lower" else parent - change
    if parent == 0:
        return float("inf") if delta > 0 else 0.0
    return delta / abs(parent)


def spread(values):
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def verdict(parent, change, direction, bound):
    if bound == 0:
        # No increase allowed (fail_frac): any run's worsening counts, which
        # a median would hide when most runs read 0.
        worse = better(sum(parent) / len(parent), sum(change) / len(change),
                       direction)
        return "regression" if worse else "unchanged"
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    # A median worse by more than the bound regresses however noisy the
    # runs: noise must not hide a slowdown.
    if relative_worsening(p_med, c_med, direction) > bound:
        return "regression"
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    if pairs and wins >= GAIN_WIN_SHARE * len(pairs) \
            and better(c_med, p_med, direction) \
            and abs(c_med - p_med) > p_q3 - p_q1:
        return "gain"
    return "unchanged"


def compare(parent_runs, change_runs):
    """Return (table lines, verdicts {(workload, metric): verdict})."""
    parent = collect(parent_runs)
    change = collect(change_runs)
    lines = ["| workload | metric | parent median [q1, q3] | "
             "change median [q1, q3] | change | bound | verdict |",
             "|---|---|---:|---:|---:|---:|---|"]
    verdicts = {}
    for key in sorted(parent):
        if key not in change:
            lines.append(f"| {key[0]} | {key[1]} | - | (missing) | - | - | - |")
            continue
        p, c = parent[key], change[key]
        v = verdict(p["values"], c["values"], p["better"], p["bound"])
        verdicts[key] = v
        pq, cq = quartiles(p["values"]), quartiles(c["values"])
        rel = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else 0.0
        lines.append(
            f"| {key[0]} | {key[1]} | {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}] "
            f"| {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}] | {rel:+.1f}% "
            f"| {p['bound']:.0%} | {v} |")
    return lines, verdicts


def cmd_compare(parent_dir, change_dir):
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    if not parent_runs or not change_runs:
        print("compare: no BENCH_e2e runs found in one of the directories")
        return 2
    lines, verdicts = compare(parent_runs, change_runs)
    print(f"parent: {len(parent_runs)} run(s), change: {len(change_runs)} run(s)")
    print("\n".join(lines))
    failing = [(k, v) for k, v in verdicts.items()
               if v in ("regression", "unresolved")]
    for (workload, metric), v in failing:
        print(f"{v.upper()}: {metric} on {workload}")
    return 1 if failing else 0


def synthetic_run(metrics):
    """A minimal BENCH_e2e document: metrics {name: (value, better, bound)}."""
    return {"schema": SCHEMA, "trace": False, "workloads": {"w": {"metrics": {
        name: {"value": v, "unit": "s", "better": d, "bound": b}
        for name, (v, d, b) in metrics.items()}}}}


def cmd_self_test():
    def check(name, got, want):
        if got != want:
            print(f"self-test FAILED: {name}: got {got}, want {want}")
            sys.exit(1)

    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.03, 9.97]
    check("20% slower flagged",
          verdict(base, [v * 1.2 for v in base], "lower", 0.1), "regression")
    check("5% slower within a 10% bound",
          verdict(base, [v * 1.05 for v in base], "lower", 0.1), "unchanged")
    check("throughput drop flagged",
          verdict(base, [v * 0.8 for v in base], "higher", 0.1), "regression")
    noisy = [10, 14, 7, 12, 9, 15, 6, 11, 13, 8]
    check("spread wider than the bound is unresolved",
          verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1), "unresolved")
    check("a slowdown beyond the bound regresses however noisy",
          verdict(noisy, [v * 1.4 for v in noisy], "lower", 0.1), "regression")
    check("unresolved unless every change run beats every parent run",
          verdict(noisy, [v / 10 for v in noisy], "lower", 0.1), "gain")
    check("20% faster on every pair is a gain",
          verdict(base, [v * 0.8 for v in base], "lower", 0.1), "gain")
    eight_of_ten = [v * 0.8 for v in base[:8]] + [v * 1.01 for v in base[8:]]
    check("8/10 wins is no gain",
          verdict(base, eight_of_ten, "lower", 0.1), "unchanged")
    inside_iqr = [v - 0.01 for v in base]
    check("a win inside the parent's spread is no gain",
          verdict(base, inside_iqr, "lower", 0.1), "unchanged")
    check("any new failure regresses fail_frac",
          verdict([0.0] * 10, [0.0] * 9 + [0.01], "lower", 0.0), "regression")

    with tempfile.TemporaryDirectory() as tmp:
        parent_dir, change_dir = Path(tmp, "parent"), Path(tmp, "change")
        parent_dir.mkdir()
        change_dir.mkdir()
        for i, v in enumerate(base):
            (parent_dir / f"run-{i:02d}.json").write_text(json.dumps(
                synthetic_run({"wall_s": (v, "lower", 0.1),
                               "cells_per_s": (100 / v, "higher", 0.1)})))
            (change_dir / f"run-{i:02d}.json").write_text(json.dumps(
                synthetic_run({"wall_s": (v * 1.3, "lower", 0.1),
                               "cells_per_s": (100 / v, "higher", 0.1)})))
        (change_dir / "notes.json").write_text("[]")  # ignored: not a run
        _, verdicts = compare(load_runs(parent_dir), load_runs(change_dir))
        check("files: wall_s regression", verdicts[("w", "wall_s")], "regression")
        check("files: cells_per_s unchanged",
              verdicts[("w", "cells_per_s")], "unchanged")
    print("compare self-test passed")
    return 0


def main(argv):
    if argv == ["self-test"]:
        return cmd_self_test()
    if len(argv) == 2:
        return cmd_compare(argv[0], argv[1])
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
