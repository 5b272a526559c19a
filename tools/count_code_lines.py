"""Count a Python package's code lines: every line holding a token, less
module, class and function docstrings, comments and blank lines.
Usage: python tools/count_code_lines.py [package dir, default src/qcool]"""
import ast
import io
import sys
import tokenize
from pathlib import Path

BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    lines = {n for tok in tokenize.tokenize(io.BytesIO(text.encode()).readline)
             if tok.type not in BLANK for n in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, SCOPES) and ast.get_docstring(node) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src/qcool")
    counts = {p: code_lines(p.read_text()) for p in sorted(root.glob("*.py"))}
    for path, n in [*counts.items(), ("total", sum(counts.values()))]:
        print(f"{n:6d} {path}")
