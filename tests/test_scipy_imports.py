"""The library imports two scipy routines, each inside the function that calls it.

``scipy.linalg.get_lapack_funcs`` (the ``gttrf``/``gttrs`` pair of the FD
march and its spline) and ``scipy.special.ndtr`` (the closed-form call) are the
only scipy names that ``src/itoarb`` may import, and only inside a function:
a module-level import would load scipy in every command that imports the
module, and any other subpackage (``scipy.interpolate`` pulls in ``optimize``,
``sparse``, ``spatial`` and ``fft``) costs start-up time and memory.
"""

import ast
from pathlib import Path

import itoarb

SRC = Path(itoarb.__file__).parent
ALLOWED = {("scipy.linalg", "get_lapack_funcs"), ("scipy.special", "ndtr")}


def scipy_imports(tree: ast.Module):
    """``(module, name, inside a function)`` for each scipy name the tree imports;
    a plain ``import scipy...`` gives the name ``None``."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((alias.name, None, in_function) for alias in child.names
                             if alias.name.split(".")[0] == "scipy")
            elif isinstance(child, ast.ImportFrom) and not child.level and \
                    child.module.split(".")[0] == "scipy":
                found.extend((child.module, alias.name, in_function) for alias in child.names)
            visit(child, in_function or isinstance(child, (ast.FunctionDef,
                                                           ast.AsyncFunctionDef, ast.Lambda)))

    visit(tree, False)
    return found


def test_only_two_scipy_routines_imported_inside_functions():
    imports = {str(path.relative_to(SRC)): scipy_imports(ast.parse(path.read_text()))
               for path in sorted(SRC.rglob("*.py"))}
    names = {(module, name) for found in imports.values() for module, name, _ in found}
    module_level = [(file, module, name) for file, found in imports.items()
                    for module, name, inside in found if not inside]
    assert names <= ALLOWED, f"scipy names beyond {sorted(ALLOWED)}: {sorted(names - ALLOWED)}"
    assert not module_level, f"scipy imported at module level: {module_level}"


def test_guard_sees_every_kind_of_import():
    source = ("import scipy.linalg\n"
              "def f():\n    from scipy.interpolate import CubicSpline\n"
              "class C:\n    from scipy.special import ndtr\n"
              "    def g(self):\n        from scipy.linalg import get_lapack_funcs\n")
    assert scipy_imports(ast.parse(source)) == [
        ("scipy.linalg", None, False), ("scipy.interpolate", "CubicSpline", True),
        ("scipy.special", "ndtr", False), ("scipy.linalg", "get_lapack_funcs", True)]
