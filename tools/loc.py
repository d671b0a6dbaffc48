#!/usr/bin/env python3
"""Count the repository's non-test Rust lines.

A line counts when it is neither blank nor a comment (`//`, `///`, `//!`
or inside `/* ... */`). Not counted at all:

- the directories `target/`, `vendor/`, `perfbench/`, `crates/testkit/`,
  every `tests/` and `benches/` directory, and hidden directories;
- every top-level `#[cfg(test)]` or `#[cfg(all(test, ...))]` module, also
  when other attributes sit between the `cfg` and the `mod`.

The rules assume rustfmt-clean sources: a top-level module closes on the
first later line that is exactly `}`.

Usage: tools/loc.py [-v] [PATH ...]

PATHs (files or directories, relative to the repository root) restrict
the count to those trees; the default is the whole repository. `-v`
prints one `count path` line per file first. The total is always the
last line. The script only reports; it never fails on a count.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SKIP_DIR_NAMES = {"target", "vendor", "tests", "benches"}
SKIP_DIR_PATHS = {"perfbench", os.path.join("crates", "testkit")}

TEST_CFG = re.compile(r"^#\[cfg\((test|all\(\s*test\s*,.*\))\)\]\s*$")
MOD_ITEM = re.compile(r"^(pub(\([^)]*\))?\s+)?mod\s+\w+\s*(\{|;)")


def skipped_dir(rel, name):
    return name.startswith(".") or name in SKIP_DIR_NAMES or rel in SKIP_DIR_PATHS


def rust_files(start):
    if os.path.isfile(start):
        yield start
        return
    for dirpath, dirnames, filenames in os.walk(start):
        dirnames[:] = sorted(
            d
            for d in dirnames
            if not skipped_dir(os.path.relpath(os.path.join(dirpath, d), ROOT), d)
        )
        for f in sorted(filenames):
            if f.endswith(".rs"):
                yield os.path.join(dirpath, f)


def test_module_end(lines, i):
    """If a top-level test-only module starts at line `i`, the index of
    its last line; otherwise None."""
    if not TEST_CFG.match(lines[i]):
        return None
    j = i + 1
    # Further attributes, comments and blank lines may precede the item.
    while j < len(lines) and (
        lines[j].startswith("#[") or lines[j].lstrip().startswith("//") or not lines[j].strip()
    ):
        j += 1
    if j == len(lines):
        return None
    m = MOD_ITEM.match(lines[j])
    if m is None:
        return None
    if m.group(3) == ";":
        return j
    for k in range(j + 1, len(lines)):
        if lines[k].rstrip() == "}":
            return k
    return len(lines) - 1


def count_lines(path):
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    n = 0
    depth = 0  # nesting depth of /* */ block comments
    i = 0
    while i < len(lines):
        end = test_module_end(lines, i) if depth == 0 else None
        if end is not None:
            i = end + 1
            continue
        s = lines[i].strip()
        i += 1
        code = False
        while s:
            if depth > 0:
                open_at, close_at = s.find("/*"), s.find("*/")
                if close_at < 0 and open_at < 0:
                    break
                if 0 <= open_at < close_at or close_at < 0:
                    depth += 1
                    s = s[open_at + 2 :]
                else:
                    depth -= 1
                    s = s[close_at + 2 :].strip()
            elif s.startswith("//"):
                break
            elif s.startswith("/*"):
                depth = 1
                s = s[2:]
            else:
                code = True
                break
        n += code
    return n


def main(argv):
    verbose = "-v" in argv
    starts = [a for a in argv if a != "-v"] or ["."]
    total = 0
    for start in starts:
        for path in rust_files(os.path.normpath(os.path.join(ROOT, start))):
            n = count_lines(path)
            total += n
            if verbose:
                print(f"{n:7d} {os.path.relpath(path, ROOT)}")
    print(f"{total:7d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
