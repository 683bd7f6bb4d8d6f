"""Count the code lines of the package, per module and in total.

    python3 tools/code_lines.py [ROOT]

ROOT is a source checkout (default: the one holding this script); every
``*.py`` file under its ``src/`` is counted.  A code line is a physical line
that is not blank, not a comment alone and not part of a docstring (the
leading string of a module, class or function, as ``ast`` finds it).  One
line is printed per module, then the total.  Only the standard library is
used.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path


def code_lines(source):
    """The number of code lines in ``source``, the text of one module."""
    skipped = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    skipped.update(range(body[0].lineno, body[0].end_lineno + 1))
    # a line holding any token but a comment, a newline or indentation is code
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skipped)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    src = args.root / "src"
    total = 0
    for path in sorted(src.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.relative_to(src)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
