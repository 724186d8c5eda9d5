"""``src/linkchi`` holds only what the package runs.

Every module-level function there must be referenced from outside its own
body by some module of the package, or named in ``linkchi.__all__`` or by
the ``linkchi`` console entry point.  Helpers that only tests call belong
in ``tests/helpers.py``.
"""

import ast
import pathlib
import re

import linkchi

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "linkchi"

# No src module calls these, but the benchmark's tracer (perfbench/spans.py)
# wraps each by name through its module's ``__dict__``, so they stay in src.
TRACED_BY_NAME = {"substitute", "direct_sum", "unit_power"}


def _read_names(node) -> set:
    """The names and attribute names that ``node`` reads."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _entry_point() -> str:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return re.search(r'^linkchi\s*=\s*"[\w.]+:(\w+)"', text, re.M).group(1)


def test_every_module_function_has_a_caller():
    functions = []  # (module, name, names its own body reads)
    referenced = set(linkchi.__all__) | {_entry_point()}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append((path.stem, node.name, _read_names(node)))
            else:
                referenced |= _read_names(node)
    for module, name, reads in functions:
        referenced |= reads - {name}
    unreferenced = sorted(
        "%s.%s" % (module, name)
        for module, name, _ in functions
        # a module's own __getattr__ is called by the import system
        if name not in referenced and name not in TRACED_BY_NAME and name != "__getattr__"
    )
    assert not unreferenced, "no caller in src: %s" % ", ".join(unreferenced)


def test_traced_exemptions_are_still_needed():
    text = (ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8")
    assert all('"%s"' % name in text for name in TRACED_BY_NAME)
