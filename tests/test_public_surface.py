"""Every public name of the library has a consumer, and no module reaches
into another's private names.

A name in the ``__all__`` of an ``itoarb`` module, and every function or class
that a module defines at top level under a name without a leading underscore,
must be used by the library (``src/itoarb/``) or by an acceptance criterion
(``tests/test_acceptance.py``).
A use is a read of the name in its own module, a read of a name imported from
the module, or an attribute of the module (``pricing.u0``); definitions,
imports and ``__all__`` entries are not uses.  The package ``__init__``
defines no name but ``__version__``.  No ``itoarb`` module reads a sibling's
``_name`` (as ``geometry._name``) or imports one from it.
"""

import ast
import importlib
from pathlib import Path

import pytest

import itoarb

SRC = Path(itoarb.__file__).parent
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def uses(path: Path, own: str | None) -> set[tuple[str, str]]:
    """The ``(module, name)`` pairs of ``itoarb`` that the file at ``path`` reads;
    ``own`` names the module the file is, for its reads of its own names."""
    tree = ast.parse(path.read_text())
    modules, names = {}, {}  # local name -> module; local name -> (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # relative imports occur only inside the package
            base = f"itoarb.{node.module or ''}".rstrip(".") if node.level else node.module or ""
            for alias in node.names:
                local = alias.asname or alias.name
                if base == "itoarb" and alias.name in MODULES:
                    modules[local] = alias.name
                elif base.startswith("itoarb."):
                    names[local] = (base.split(".")[1], alias.name)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in names:
                found.add(names[node.id])
            elif own:
                found.add((own, node.id))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            found.add((modules[node.value.id], node.attr))
    return found


def public_names(module: str) -> list[str]:
    """The module's ``__all__`` plus its top-level public functions and classes."""
    defs = [node.name for node in ast.parse((SRC / f"{module}.py").read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]
    exported = getattr(importlib.import_module(f"itoarb.{module}"), "__all__", [])
    return sorted({*exported, *defs})


USED = set().union(*(uses(p, p.stem) for p in SRC.glob("*.py")), uses(ACCEPTANCE, None))


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_has_a_consumer(module):
    unused = [n for n in public_names(module) if (module, n) not in USED]
    assert not unused, f"itoarb.{module} public names that nothing uses: {unused}"


def sibling_private_names(module: str) -> list[str]:
    """The ``_name``s of other ``itoarb`` modules that ``module`` reads or imports."""
    path = SRC / f"{module}.py"
    found = {(m, n) for m, n in uses(path, module) if m != module}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            base = f"itoarb.{node.module}" if node.level else node.module
            if base.startswith("itoarb."):
                found.update((base.split(".")[1], alias.name) for alias in node.names)
    return sorted(f"{m}.{n}" for m, n in found
                  if n.startswith("_") and not n.startswith("__"))


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reads_a_siblings_private_names(module):
    private = sibling_private_names(module)
    assert not private, f"itoarb.{module} reads private names of other modules: {private}"
