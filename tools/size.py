"""Size of the package source, one count for every size report.

Prints, per file of src/sowp and in total, the `wc -l` line count and the
tokenize split of those lines into code, docstring, comment and blank.  A
line is docstring if it lies in a string statement (a module, class or
function docstring), blank lines inside it included; comment if it holds
a comment and nothing else; code if it holds any other token; blank
otherwise.

    python tools/size.py [directory]      (default: src/sowp)
"""

import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COLUMNS = ("lines", "code", "docstring", "comment", "blank")
# tokens that end or indent a line, or that carry no code
LAYOUT = {tokenize.ENCODING, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER, tokenize.COMMENT}


def split(path: Path) -> tuple:
    """(lines, code, docstring, comment, blank) line counts of one file."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = path.read_bytes().count(b"\n")
    code, doc, comment = set(), set(), set()
    statement_start = True      # no token of the current statement yet
    for k, tok in enumerate(tokens):
        rows = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in LAYOUT:
            alone = statement_start and tokens[k + 1].type == tokenize.NEWLINE
            (doc if tok.type == tokenize.STRING and alone else code).update(rows)
        if tok.type not in (tokenize.NL, tokenize.COMMENT):
            statement_start = tok.type in LAYOUT
    comment -= code | doc
    return (lines, len(code), len(doc), len(comment),
            lines - len(code | doc | comment))


def main(argv=None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    directory = Path(argv[0]) if argv else ROOT / "src" / "sowp"
    rows = [(path.name, split(path)) for path in sorted(directory.glob("*.py"))]
    rows.append(("total", tuple(map(sum, zip(*(counts for _, counts in rows))))))
    print(f"{'file':<16}" + "".join(f"{c:>11}" for c in COLUMNS))
    for name, counts in rows:
        print(f"{name:<16}" + "".join(f"{n:>11,}" for n in counts))


if __name__ == "__main__":
    main()
