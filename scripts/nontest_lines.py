#!/usr/bin/env python3
"""Counts the non-test Rust lines of the workspace.

A line counts when it is non-blank and lies in a `.rs` file outside any
`tests/` directory, outside `target/` and `perfbench/`, and outside every
`#[cfg(test)]` item. A file pulled in by `#[cfg(test)] mod x;` is test code
as a whole. Shims and examples count.

Run from the repository root: `python3 scripts/nontest_lines.py`. It prints
the total, then one line per file with `-v`.
"""

import os
import re
import sys

SKIP_DIRS = {"tests", "target", "perfbench", ".git"}
CFG_TEST = re.compile(r"^\s*#\[cfg\(test\)\]")
MOD_DECL = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?mod\s+(\w+)\s*;")


def module_dir(path):
    """The directory that holds the files of `path`'s child modules."""
    base = os.path.basename(path)
    if base in ("lib.rs", "main.rs", "mod.rs"):
        return os.path.dirname(path)
    return path[: -len(".rs")]


def count_file(path, test_files):
    """Non-blank lines of `path` outside `#[cfg(test)]` items; adds the
    files of `#[cfg(test)] mod x;` declarations to `test_files`."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    count = 0
    i = 0
    while i < len(lines):
        if not CFG_TEST.match(lines[i]):
            if lines[i].strip():
                count += 1
            i += 1
            continue
        # Skip the attribute, any further attributes, then the item: up to
        # its `;` or through its balanced braces.
        i += 1
        while i < len(lines) and lines[i].strip().startswith("#["):
            i += 1
        m = MOD_DECL.match(lines[i]) if i < len(lines) else None
        if m:
            d = module_dir(path)
            for cand in (os.path.join(d, m.group(1) + ".rs"),
                         os.path.join(d, m.group(1), "mod.rs")):
                test_files.add(os.path.normpath(cand))
            i += 1
            continue
        depth = 0
        opened = False
        while i < len(lines):
            code = lines[i].split("//", 1)[0]
            depth += code.count("{") - code.count("}")
            opened = opened or "{" in code
            i += 1
            if (opened and depth <= 0) or (not opened and code.rstrip().endswith(";")):
                break
    return count


def main():
    verbose = "-v" in sys.argv[1:]
    files = []
    for root, dirs, names in os.walk("."):
        dirs[:] = sorted(d for d in dirs if d not in SKIP_DIRS)
        files += [os.path.normpath(os.path.join(root, n)) for n in sorted(names) if n.endswith(".rs")]
    test_files = set()
    counts = {p: count_file(p, test_files) for p in files}
    total = 0
    for p in files:
        if p in test_files:
            continue
        total += counts[p]
        if verbose:
            print(f"{counts[p]:6} {p}")
    print(f"non-test Rust lines: {total}")


if __name__ == "__main__":
    main()
