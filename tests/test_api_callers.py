"""Every public function and method of canp.metrology and canp.gaussian has a caller.

A caller is a reference in `src/canp` outside the name's own definition (the
re-exports in `__init__.py` do not count) or in the benchmark harness's
scripts `benchmarks/*.py` (the frozen `benchmarks/baseline/` copy does not
count). A name that only tests call belongs in the tests, not in the package.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "canp"
GUARDED = ("metrology", "gaussian")
# The tests' independent reference for ⟨O⟩ in a Gaussian state.
KEPT_FOR_TESTS = {"gaussian.expectation"}


def public_definitions(module: str):
    """(qualified name, is_method, def node) of the public functions and methods in module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", False, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{module}.{node.name}.{member.name}", True, member


def references(path: Path, module: str):
    """(identifier, line, is_method_access) of every read in a file that may reach module.

    A function is reached by a bare name in its own module or in a file that
    imports it from there, or as `module.name`; a method by any attribute
    access of its name (the receiver's type is not resolved).
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = path.stem == module
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(module)
                for alias in node.names}
    for node in ast.walk(tree):
        if not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name) and (own or node.id in imported):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            qualified = isinstance(node.value, ast.Name) and node.value.id == module
            yield node.attr, node.lineno, not qualified


def caller_files():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return files + sorted((ROOT / "benchmarks").glob("*.py"))


def test_every_public_metrology_and_gaussian_name_has_a_caller():
    checked, uncalled = set(), set()
    for module in GUARDED:
        own_file = PACKAGE / f"{module}.py"
        refs = {path: list(references(path, module)) for path in caller_files()}
        for qualname, is_method, node in public_definitions(module):
            checked.add(qualname)
            own_lines = range(node.lineno, node.end_lineno + 1)
            called = any(
                ident == node.name and is_method == method_access
                and not (path == own_file and line in own_lines)
                for path, found in refs.items()
                for ident, line, method_access in found
            )
            if not called:
                uncalled.add(qualname)
    # The guard reads the package it is meant to guard.
    assert {"metrology.Protocol.qfi", "gaussian.coherent", *KEPT_FOR_TESTS} <= checked
    assert uncalled - KEPT_FOR_TESTS == set()
