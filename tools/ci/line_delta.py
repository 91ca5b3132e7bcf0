#!/usr/bin/env python3
"""Lines added, removed and net per area of the tree between two git refs.

Every change reports its net line delta for src/, tools/, bench/ and
tests/ (ROADMAP.md). This script computes it from ``git diff --numstat``
against the merge base of BASE and HEAD, so a branch is measured by its own
commits only. Renames count as a delete plus an add; binary files count 0.

Subcommands:
  report BASE [--head REF]  Print a Markdown table (area, +, -, net) for
                            src/, tools/, bench/ and tests/ plus a total over
                            the whole tree. CI appends it to the job summary.
  self-test                 Unit check: parsing of synthetic numstat lines,
                            then a report on a throwaway git repository.
"""

import argparse
import os
import subprocess
import sys
import tempfile

AREAS = ("src/", "tools/", "bench/", "tests/")


def tally(numstat):
    """area -> [added, removed] over `git diff --numstat` output.

    The "total" area covers every path, inside the four areas or not."""
    totals = {area: [0, 0] for area in AREAS + ("total",)}
    for line in numstat.splitlines():
        if not line.strip():
            continue
        added, removed, path = line.split("\t", 2)
        if added == "-":  # binary file
            continue
        for area in AREAS:
            if path.startswith(area):
                totals[area][0] += int(added)
                totals[area][1] += int(removed)
        totals["total"][0] += int(added)
        totals["total"][1] += int(removed)
    return totals


def render(totals):
    rows = ["| area | + | - | net |", "|---|---:|---:|---:|"]
    for area, (added, removed) in totals.items():
        rows.append(f"| {area} | {added} | {removed} | {added - removed:+d} |")
    return "\n".join(rows)


def numstat(base, head, cwd=None):
    return subprocess.run(
        ["git", "diff", "--numstat", "--no-renames", f"{base}...{head}"],
        cwd=cwd,
        check=True,
        capture_output=True,
        text=True,
    ).stdout


def cmd_report(args):
    print(render(tally(numstat(args.base, args.head))))
    return 0


def cmd_self_test(_args):
    sample = (
        "10\t2\tsrc/softmc/dispatcher.cpp\n"
        "0\t30\tsrc/softmc/observer.hpp\n"
        "5\t0\ttools/ci/line_delta.py\n"
        "-\t-\tbench/data.bin\n"
        "7\t1\ttests/softmc/column_run_test.cpp\n"
        "3\t3\tDESIGN.md\n"
        "1\t0\tsrcs/not_src.txt\n"
    )
    totals = tally(sample)
    expected = {
        "src/": [10, 32],
        "tools/": [5, 0],
        "bench/": [0, 0],
        "tests/": [7, 1],
        "total": [26, 36],
    }
    if totals != expected:
        print(f"self-test FAILED: tally {totals} != {expected}")
        return 1
    table = render(totals)
    if "| src/ | 10 | 32 | -22 |" not in table or "| tools/ | 5 | 0 | +5 |" not in table:
        print(f"self-test FAILED: table rendering\n{table}")
        return 1

    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c",
           "commit.gpgsign=false"]
    with tempfile.TemporaryDirectory() as repo:
        def run(*cmd):
            subprocess.run(git + list(cmd), cwd=repo, check=True,
                           capture_output=True)

        def write(path, lines):
            full = os.path.join(repo, path)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w") as f:
                f.write("".join(f"{line}\n" for line in lines))

        run("init", "-q")
        write("src/a.cpp", ["1", "2", "3", "4"])
        write("tests/t.cpp", ["x"])
        run("add", "-A")
        run("commit", "-q", "-m", "base")
        run("branch", "base")
        write("src/a.cpp", ["1", "two"])
        write("tools/new.py", ["a", "b", "c"])
        run("add", "-A")
        run("commit", "-q", "-m", "change")
        totals = tally(numstat("base", "HEAD", cwd=repo))
    expected = {
        "src/": [1, 3],
        "tools/": [3, 0],
        "bench/": [0, 0],
        "tests/": [0, 0],
        "total": [4, 3],
    }
    if totals != expected:
        print(f"self-test FAILED: git report {totals} != {expected}")
        return 1
    print("line delta self-test passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="line delta of HEAD against BASE")
    p.add_argument("base")
    p.add_argument("--head", default="HEAD")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("self-test", help="unit check of the counting")
    p.set_defaults(func=cmd_self_test)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
