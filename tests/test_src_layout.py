"""``src/linkchi`` holds only what the package runs.

Every module-level function and class there, and every method, must be
referenced from outside its own body by some module of the package, or
named in ``linkchi.__all__`` or by the ``linkchi`` console entry point.
Helpers that only tests call belong in ``tests/helpers.py``.  Names are
matched as read names and attribute names, so a method counts as called
when any module reads an attribute of its name.
"""

import ast
import pathlib
import re
from collections import Counter

import linkchi

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "linkchi"

# No src module calls these, but the benchmark's tracer (perfbench/spans.py)
# wraps each by name through its module's ``__dict__``, so they stay in src.
TRACED_BY_NAME = {"substitute", "direct_sum", "unit_power"}

# Methods that no src module calls, each kept for a caller outside the package.
CALLED_FROM_OUTSIDE = {
    "cli._Parser.error",  # argparse calls it on a usage error
    "series.Series.coefficient",  # library API: the README's lookup of one coefficient
    "ncalg.NCSeries.variable",  # library API: the variable x_i as a series
    "commalg.CommSeries.variable",  # library API: the variable x_i as a series
}


def _read_names(node) -> Counter:
    """The names and attribute names that ``node`` reads, with their counts."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _entry_point() -> str:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return re.search(r'^linkchi\s*=\s*"[\w.]+:(\w+)"', text, re.M).group(1)


def _definitions():
    """``(qualified name, node, is a method)`` of every module-level function and
    class and every method."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield "%s.%s" % (path.stem, node.name), node, False
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield "%s.%s.%s" % (path.stem, node.name, method.name), method, True


def _unreferenced(methods: bool) -> list:
    reads = Counter()
    for path in SRC.glob("*.py"):
        reads += _read_names(ast.parse(path.read_text(encoding="utf-8")))
    outside = set(linkchi.__all__) | {_entry_point()} | TRACED_BY_NAME
    return sorted(
        qualified
        for qualified, node, is_method in _definitions()
        if is_method == methods
        # dunders are called by the language: __init__, __eq__, a module's __getattr__
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in outside
        and qualified not in CALLED_FROM_OUTSIDE
        and reads[node.name] == _read_names(node)[node.name]  # read only inside its own body
    )


def test_every_module_function_has_a_caller():
    unreferenced = _unreferenced(methods=False)
    assert not unreferenced, "no caller in src: %s" % ", ".join(unreferenced)


def test_every_method_has_a_caller():
    unreferenced = _unreferenced(methods=True)
    assert not unreferenced, "no caller in src: %s" % ", ".join(unreferenced)


def test_traced_exemptions_are_still_needed():
    text = (ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8")
    assert all('"%s"' % name in text for name in TRACED_BY_NAME)
