#!/usr/bin/env python3
"""Count the non-comment lines of C++ under src/.

Walks src/**/*.cc and src/**/*.hh and counts every line that holds
code: blank lines, `//` comment lines and lines inside `/* ... */`
comments are left out.  A line with code and a trailing comment
counts.  Comment markers inside string and character literals are
not comments.  Prints one count per module directory, then the
total, and always exits 0: the number is a record, not a gate.

Run from anywhere:  python3 scripts/count_src_lines.py [ROOT]
ROOT defaults to this checkout; pass another checkout's root to
count it the same way.
"""

import sys
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def code_lines(text):
    """Lines of `text` holding anything other than comments."""
    count = 0
    in_block = False
    for line in text.splitlines():
        has_code = False
        quote = None
        i = 0
        while i < len(line):
            c = line[i]
            pair = line[i:i + 2]
            if in_block:
                if pair == "*/":
                    in_block = False
                    i += 2
                    continue
            elif quote:
                has_code = True
                if c == "\\":
                    i += 2
                    continue
                if c == quote:
                    quote = None
            elif pair == "//":
                break
            elif pair == "/*":
                in_block = True
                i += 2
                continue
            elif not c.isspace():
                has_code = True
                if c in "\"'":
                    quote = c
            i += 1
        count += has_code
    return count


def main(argv):
    root = Path(argv[1]).resolve() if len(argv) > 1 else REPO
    src = root / "src"
    per_module = Counter()
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".cc", ".hh") or not path.is_file():
            continue
        module = path.parent.relative_to(src).as_posix()
        per_module[module] += code_lines(
            path.read_text(encoding="utf-8"))
    for module in sorted(per_module):
        print(f"{per_module[module]:7d}  src/{module}")
    print(f"{sum(per_module.values()):7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
