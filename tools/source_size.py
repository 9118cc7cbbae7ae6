#!/usr/bin/env python3
"""Prints the size of each module of a Python package: its line count, as
`wc -l` gives it, and its token count, with COMMENT, NL and ENCODING tokens
left out, so comments and blank lines do not count but docstrings do.

Usage: python3 tools/source_size.py [package-dir]   (default: src/lflow)
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def source_size(path: Path) -> tuple[int, int]:
    """(lines, tokens) of one source file."""
    with path.open("rb") as fh:
        tokens = sum(tok.type not in SKIPPED for tok in tokenize.tokenize(fh.readline))
    return path.read_bytes().count(b"\n"), tokens


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "lflow")
    total_lines = total_tokens = 0
    print(f"{'module':<20} {'lines':>6} {'tokens':>7}")
    for path in sorted(root.glob("*.py")):
        lines, tokens = source_size(path)
        total_lines += lines
        total_tokens += tokens
        print(f"{path.name:<20} {lines:>6} {tokens:>7}")
    print(f"{'total':<20} {total_lines:>6} {total_tokens:>7}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
