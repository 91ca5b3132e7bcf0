#!/usr/bin/env python3
"""List the src/ headers that no product path includes.

A header under src/ is reached when a source file under src/, tools/,
bench/ or examples/ includes it, other than the header's own .cpp (the one
with the same path and a .cpp suffix). A header that only tests/ and its own
.cpp include is code that no product runs. An include resolves against src/
and against the including file's directory.

Subcommands:
  check [--root DIR]  Print every unreached header (path under src/) and exit
                      1 if there are any, 0 otherwise. DIR defaults to the
                      repository root.
  self-test           Unit check on a throwaway tree.
"""

import argparse
import os
import re
import sys
import tempfile

PRODUCT_DIRS = ("src", "tools", "bench", "examples")
SOURCE_SUFFIXES = (".cpp", ".cc", ".hpp", ".h")
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def source_files(root, top):
    for dirpath, _dirs, files in os.walk(os.path.join(root, top)):
        for name in files:
            if name.endswith(SOURCE_SUFFIXES):
                yield os.path.join(dirpath, name)


def unreached(root):
    """Sorted src/-relative paths of the headers no product file includes."""
    src = os.path.join(root, "src")
    headers = {os.path.relpath(path, src)
               for path in source_files(root, "src") if path.endswith(".hpp")}
    reached = set()
    for top in PRODUCT_DIRS:
        for path in source_files(root, top):
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
            here = os.path.dirname(path)
            for name in INCLUDE.findall(text):
                for candidate in (os.path.join(src, name),
                                  os.path.join(here, name)):
                    header = os.path.relpath(os.path.normpath(candidate), src)
                    own_cpp = os.path.join(src, header[:-len(".hpp")] + ".cpp")
                    if header in headers and os.path.normpath(path) != own_cpp:
                        reached.add(header)
    return sorted(headers - reached)


def cmd_check(args):
    found = unreached(args.root)
    for header in found:
        print(f"unreached: src/{header}")
    if found:
        print(f"{len(found)} src/ header(s) reached only by tests or their "
              "own .cpp")
        return 1
    print("every src/ header is reached from src/, tools/, bench/ or examples/")
    return 0


def cmd_self_test(_args):
    files = {
        "src/a/used.hpp": "",
        "src/a/used.cpp": '#include "a/used.hpp"\n',
        "src/a/lonely.hpp": "",
        "src/a/lonely.cpp": '#include "a/lonely.hpp"\n',
        "src/a/peer.hpp": "",
        "src/a/other.cpp": '#include "peer.hpp"\n',  # resolves beside the file
        "src/b/tool_only.hpp": "",
        "src/b/example_only.hpp": "",
        "src/b/commented.hpp": "",
        "src/b/b.cpp": '// #include "b/commented.hpp" is a comment\n',
        "tools/x.cpp": '#include "a/used.hpp"\n#include "b/tool_only.hpp"\n',
        "examples/e.cpp": '#  include "b/example_only.hpp"\n',
        "tests/t.cpp": '#include "a/lonely.hpp"\n#include "b/commented.hpp"\n',
    }
    with tempfile.TemporaryDirectory() as root:
        for path, text in files.items():
            full = os.path.join(root, path)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w") as f:
                f.write(text)
        found = unreached(root)
    expected = ["a/lonely.hpp", "b/commented.hpp"]
    if found != expected:
        print(f"self-test FAILED: unreached {found} != {expected}")
        return 1
    print("unreached self-test passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="list unreached src/ headers")
    p.add_argument("--root",
                   default=os.path.dirname(os.path.dirname(os.path.dirname(
                       os.path.abspath(__file__)))))
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("self-test", help="unit check on a throwaway tree")
    p.set_defaults(func=cmd_self_test)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
