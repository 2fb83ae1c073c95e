"""Print the package's size three ways, so that every change reports it alike.

    PYTHONPATH=src python tests/size.py

- `src lines`: lines of every `src/stagecal/*.py`, as `wc -l` counts them;
- `code lines`: those of the lines that hold part of a statement, counted
  with `tokenize`: blank, comment and docstring lines are left out, so
  deleting a comment does not count as deleting code; `code lines by module`
  splits that count per file, so that a change shows where its lines went;
- `settable values`: function parameters with a default, plus dataclass
  fields, counted with `ast`: each is a value a caller may leave out;
  `settable values by module` splits that count per file, as the code lines are;
- `flags`: the options of each `stagecal` command, read from its parser.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

from stagecal.cli import _build_parser

SRC = Path(__file__).resolve().parents[1] / "src" / "stagecal"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def settable_values(tree: ast.Module) -> int:
    """Parameters with a default plus dataclass fields in one module."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(item, ast.AnnAssign) for item in node.body)
    return count


def code_lines(source: str) -> int:
    """Lines of `source` that hold a token of a statement other than a docstring."""
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, documented) and ast.get_docstring(node, clean=False) is not None
    }
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in layout and not (token.type == tokenize.STRING and token.start in docstrings):
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def flags() -> dict:
    """Command name -> number of its options, --help not counted."""
    commands = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: sum(bool(a.option_strings) and a.dest != "help" for a in parser._actions)
        for name, parser in commands.choices.items()
    }


def main() -> None:
    files = sorted(SRC.glob("*.py"))
    lines = sum(path.read_bytes().count(b"\n") for path in files)
    code = {path.stem: code_lines(path.read_text()) for path in files}
    values = {path.stem: settable_values(ast.parse(path.read_text())) for path in files}
    print(f"src lines: {lines}")
    print(f"code lines: {sum(code.values())}")
    print(f"settable values: {sum(values.values())}")
    print("flags: " + ", ".join(f"{name} {n}" for name, n in flags().items()))
    print("code lines by module: " + ", ".join(f"{name} {n}" for name, n in code.items()))
    print("settable values by module: " + ", ".join(f"{name} {n}" for name, n in values.items()))


if __name__ == "__main__":
    main()
