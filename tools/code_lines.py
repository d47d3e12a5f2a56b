"""Count the code lines of a Python source tree.

    python tools/code_lines.py [SRC]

A code line is a line that holds a token other than a comment, a docstring
or layout (newlines, indentation).  A docstring here is any string that is
a statement on its own.  A token that spans lines (a triple-quoted string
inside an expression) holds every line it spans.  Prints the count of each
module under ``SRC/fctnlr`` (default: this checkout's ``src``), then the
total.
"""
from __future__ import annotations

import argparse
import io
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING, tokenize.COMMENT}


def code_lines(text: str) -> int:
    """The number of code lines of one module's source."""
    toks = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
            if t.type not in _LAYOUT or t.type == tokenize.NEWLINE]
    lines = set()
    for i, tok in enumerate(toks):
        if tok.type == tokenize.NEWLINE:
            continue
        # a string that starts a statement and ends it is a docstring
        starts = i == 0 or toks[i - 1].type == tokenize.NEWLINE
        if tok.type == tokenize.STRING and starts and toks[i + 1].type == tokenize.NEWLINE:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=Path(__file__).resolve().parents[1] / "src",
                        type=Path, help="directory holding the fctnlr package")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted((args.src / "fctnlr").glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<16} {count:>6}")
    print(f"{'total':<16} {total:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
