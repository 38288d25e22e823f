"""Count code lines of Python sources: no blank, comment or docstring lines.

A line counts when a token other than a comment or a docstring starts or
runs over it.  A docstring is a string token that forms a statement on its
own.  Usage:

    python tools/code_lines.py [PATH ...]      # default: src

prints one `path = count` line per file, then `total = count`.
"""

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(source: str) -> int:
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    prev = tokenize.NEWLINE
    for i, tok in enumerate(tokens):
        nxt = tokens[i + 1].type if i + 1 < len(tokens) else tokenize.ENDMARKER
        docstring = (tok.type == tokenize.STRING and prev in _STATEMENT_START
                     and nxt in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if tok.type not in _LAYOUT and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        prev = tok.type
    return len(lines)


def main(paths):
    total = 0
    for root in map(Path, paths or ["src"]):
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            n = code_lines(path.read_text())
            total += n
            print(f"{path} = {n}")
    print(f"total = {total}")


if __name__ == "__main__":
    main(sys.argv[1:])
