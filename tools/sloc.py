"""Count the lines of each module of a Python package.

For every .py file it prints the physical lines (what `wc -l` counts) and
the code lines: the lines that are neither blank, a comment nor part of a
docstring. A line counts as code when `tokenize` puts a token other than a
comment or a line break on it; a string token that spans lines counts each
of its lines. The docstrings of the module, of each class and of each
function, as `ast` finds them, are then taken out.

    python3 tools/sloc.py                 # src/tiersim
    python3 tools/sloc.py DIR_OR_FILE ...

Standard library only.
"""

import ast
import io
import os
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source):
    """(physical lines, code lines) of one module's source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            code.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return source.count("\n"), len(code)


def modules(paths):
    for path in paths:
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                if name.endswith(".py"):
                    yield os.path.join(path, name)
        else:
            yield path


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    paths = argv or [os.path.join(here, os.pardir, "src", "tiersim")]
    total_lines = total_code = 0
    print(f"{'module':<24}{'lines':>7}{'code':>7}")
    for path in modules(paths):
        with open(path, encoding="utf-8") as f:
            lines, code = count(f.read())
        total_lines += lines
        total_code += code
        print(f"{os.path.basename(path):<24}{lines:>7}{code:>7}")
    print(f"{'total':<24}{total_lines:>7}{total_code:>7}")


if __name__ == "__main__":
    main(sys.argv[1:])
