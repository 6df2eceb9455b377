import ast
import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np

import spinsqueeze
from spinsqueeze.cli import build_parser

ROOT = Path(spinsqueeze.__file__).resolve().parent
REFERENCE = re.compile(r"`([A-Za-z_]\w*)\.([A-Za-z_][\w.]*)`")
MISSING = object()
FILE_SUFFIXES = {"md", "py", "json", "toml", "txt", "csv"}  # `README.md` names a file, not an attribute


def _roots() -> dict:
    """What a reference may start with: the package, its modules, the classes they define, and np."""
    roots = {"np": np, "spinsqueeze": spinsqueeze}
    for info in pkgutil.iter_modules(spinsqueeze.__path__):
        module = importlib.import_module(f"spinsqueeze.{info.name}")
        roots[info.name] = module
        for name, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                roots[name] = value
    return roots


def _documents() -> list[tuple[str, str]]:
    """README.md and every module, class and function docstring of the package, with where each is."""
    docs = [("README.md", (ROOT.parent.parent / "README.md").read_text())]
    for path in sorted(ROOT.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                text = ast.get_docstring(node)
                if text:
                    docs.append((f"{path.name}:{getattr(node, 'lineno', 1)}", text))
    return docs


def test_backticked_references_in_the_docs_resolve():
    """Every backticked `module.name` in README.md and the package docstrings names something that
    exists, so the docs cannot name a kernel or constant that was removed or renamed."""
    roots = _roots()
    unresolved, checked = [], 0
    for where, text in _documents():
        for head, rest in REFERENCE.findall(text):
            if rest in FILE_SUFFIXES:
                continue
            checked += 1
            target = roots.get(head, MISSING)
            for part in rest.split("."):
                fields = getattr(target, "__dataclass_fields__", {})  # a field without a default is no class attribute
                target = fields[part] if part in fields else getattr(target, part, MISSING)
            if target is MISSING:
                unresolved.append(f"{where}: `{head}.{rest}`")
    assert checked >= 20  # the pattern still finds the docs' references
    assert not unresolved, unresolved


def test_readme_command_lines_parse():
    """Every `spinsqueeze ...` line of README's command block parses with the CLI's own parser
    (nothing runs), so a flag that drifts from the docs fails here."""
    readme = (ROOT.parent.parent / "README.md").read_text()
    lines = [line for line in readme.splitlines() if line.startswith("spinsqueeze ")]
    assert len(lines) >= 6  # the block of one line per command is still found
    parser = build_parser()
    commands = {parser.parse_args(shlex.split(line)[1:]).command for line in lines}
    assert commands == {"simulate", "compare", "converge", "scaling", "schedule", "timecost"}
