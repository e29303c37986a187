#!/usr/bin/env python3
"""Count the non-test lines of Rust source under `crates/`, per crate.

A line counts when it lies in `crates/<crate>/src/**/*.rs` and outside every
`#[cfg(test)]` item. An item runs from its `#[cfg(test)]` attribute to the
end of the item: the `}` that closes its first top-level brace, or the `;`
that ends a braceless item (`#[cfg(test)] use ...;`). A gated item in the
middle of a file is skipped and counting resumes after it. Blank lines,
comments and doc comments all count, and strings, character literals and
comments are skipped when matching braces.

    python3 scripts/nontest_lines.py [ROOT]

prints one row per crate and the total, for the workspace at ROOT
(default: the current directory).
"""

import re
import sys
from pathlib import Path

CFG_TEST = re.compile(r"#\[cfg\(test\)\]")
# A raw string's opening `r#*"`, whose closing quote carries as many `#`s.
RAW_STRING = re.compile(r'b?r(#*)"')
# A character literal, not a lifetime: `'x'`, `'\n'`, `'\u{7f}'`, `'{'`.
CHAR_LITERAL = re.compile(r"b?'(\\u\{[0-9a-fA-F]+\}|\\.|[^\\'])'")


def code_mask(text):
    """For each character of `text`, whether it is code: not inside a
    comment, string or character literal."""
    mask = [True] * len(text)
    i, n = 0, len(text)

    def blank(start, end):
        for k in range(start, min(end, n)):
            mask[k] = False

    while i < n:
        c = text[i]
        if text.startswith("//", i):
            end = text.find("\n", i)
            end = n if end < 0 else end
            blank(i, end)
            i = end
        elif text.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if text.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif text.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            blank(i, j)
            i = j
        elif (c == "r" or text.startswith("br", i)) and RAW_STRING.match(text, i) and (
            i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")
        ):
            m = RAW_STRING.match(text, i)
            close = '"' + m.group(1)
            end = text.find(close, m.end())
            end = n if end < 0 else end + len(close)
            blank(i, end)
            i = end
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            blank(i, j + 1)
            i = j + 1
        elif c in "'b":
            m = CHAR_LITERAL.match(text, i)
            if m and (c == "'" or text[i + 1] == "'"):
                blank(i, m.end())
                i = m.end()
            else:
                i += 1
        else:
            i += 1
    return mask


def test_item_spans(text):
    """The `(start, end)` character spans of the `#[cfg(test)]` items."""
    mask = code_mask(text)
    spans = []
    for m in CFG_TEST.finditer(text):
        start = m.start()
        if not mask[start] or (spans and start < spans[-1][1]):
            continue
        depth = 0  # of (), [] and {} together
        in_braces = False
        i = m.end()
        while i < len(text):
            c = text[i]
            if not mask[i]:
                pass
            elif c == "#" and depth == 0 and text.startswith("[", i + 1):
                # Another attribute of the same item: skip its brackets.
                close, inner = i + 1, 0
                while close < len(text):
                    if mask[close] and text[close] == "[":
                        inner += 1
                    elif mask[close] and text[close] == "]":
                        inner -= 1
                        if inner == 0:
                            break
                    close += 1
                i = close
            elif c in "([{":
                if c == "{" and depth == 0:
                    in_braces = True
                depth += 1
            elif c in ")]}":
                depth -= 1
                if depth == 0 and in_braces and c == "}":
                    break
            elif c == ";" and depth == 0:
                break
            i += 1
        spans.append((start, i + 1))
    return spans


def count_file(path):
    text = path.read_text(encoding="utf-8")
    lines = text.count("\n") + (0 if text.endswith("\n") or not text else 1)
    excluded = set()
    for start, end in test_item_spans(text):
        first = text.count("\n", 0, start)
        last = text.count("\n", 0, max(end - 1, start))
        excluded.update(range(first, last + 1))
    return lines - len(excluded)


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    rows = []
    for crate in sorted(p for p in (root / "crates").iterdir() if (p / "src").is_dir()):
        files = sorted((crate / "src").rglob("*.rs"))
        rows.append((crate.name, len(files), sum(count_file(f) for f in files)))
    width = max(len(name) for name, _, _ in rows + [("total", 0, 0)])
    print(f"{'crate':<{width}}  files  non-test lines")
    for name, files, lines in rows:
        print(f"{name:<{width}}  {files:>5}  {lines:>14,}")
    total_files = sum(files for _, files, _ in rows)
    total = sum(lines for _, _, lines in rows)
    print(f"{'total':<{width}}  {total_files:>5}  {total:>14,}")


if __name__ == "__main__":
    main()
