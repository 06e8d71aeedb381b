"""Every function and method of every canp module has a caller.

A caller of a public name is a reference in `src/canp` outside the name's
own definition (the re-exports in `__init__.py` do not count) or in the
benchmark harness's scripts `benchmarks/*.py` (the frozen
`benchmarks/baseline/` copy does not count). A name that only tests call
belongs in the tests, not in the package. A private module-level function
needs a caller in `src/canp` itself: one that nothing calls was left behind.
"""

import ast
from pathlib import Path

import canp

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "canp"
GUARDED = sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# Independent references kept on purpose: the tests' ⟨O⟩ in a Gaussian
# state and number-basis expectations and density matrix, and the general
# skew information that a wider oracle is planned to compare against.
KEPT_FOR_TESTS = {
    "gaussian.expectation",
    "fock.ladder",
    "fock.expectation_fock",
    "fock.FockState.density_matrix",
    "fock.skew_information_general",
}


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


def parse_reads(path: Path):
    """The `from … import` bindings and the Name and Attribute reads of a file, parsed once."""
    nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    imports = [(node.module or "", alias.asname or alias.name) for node in nodes
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    reads = [node for node in nodes if isinstance(node, (ast.Name, ast.Attribute))
             and isinstance(node.ctx, ast.Load)]
    return imports, reads


def references(path: Path, parsed, module: str):
    """(identifier, line, is_method_access) of every read in a parsed file that may reach module.

    A function is reached by a bare name in its own module or in a file that
    imports it from there, or as `module.name`; a method by any attribute
    access of its name (the receiver's type is not resolved).
    """
    imports, reads = parsed
    own = path.stem == module
    imported = {name for source, name in imports if source.endswith(module)}
    for node in reads:
        if isinstance(node, ast.Name) and (own or node.id in imported):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            qualified = isinstance(node.value, ast.Name) and node.value.id == module
            yield node.attr, node.lineno, not qualified


def package_files():
    return [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


def caller_files():
    return package_files() + sorted((ROOT / "benchmarks").glob("*.py"))


def private_definitions(module: str):
    """(qualified name, False, def node) of the private module-level functions in module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            yield f"{module}.{node.name}", False, node


def uncalled_definitions(definitions, files):
    """(checked, uncalled): the qualified names definitions(module) yields over
    GUARDED, and those with no reference in files outside their own definition."""
    checked, uncalled = set(), set()
    parsed = {path: parse_reads(path) for path in files}
    for module in GUARDED:
        own_file = PACKAGE / f"{module}.py"
        refs = {path: list(references(path, reads, module)) for path, reads in parsed.items()}
        for qualname, is_method, node in definitions(module):
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
    return checked, uncalled


def test_every_public_name_has_a_caller():
    checked, uncalled = uncalled_definitions(public_definitions, caller_files())
    # The guard reads the package it is meant to guard.
    assert {"metrology.Protocol.qfi", "models.config_object", "operators.commutator",
            *KEPT_FOR_TESTS} <= checked
    assert uncalled - KEPT_FOR_TESTS == set()


def test_every_private_function_has_a_caller():
    checked, uncalled = uncalled_definitions(private_definitions, package_files())
    assert {"cli._split_overrides", "experiments._model_values", "fock._escalate"} <= checked
    assert uncalled == set()


def test_package_root_exports_only_the_protocol_api():
    # Every other name is imported from its module, so the root cannot
    # grow back into a second, unguarded listing of the package.
    assert canp.__all__ == ["ModelParams", "Protocol", "__version__"]
