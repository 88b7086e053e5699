"""No scanstat module reads another scanstat module's private names.

A name that starts with `_` (dunders aside) belongs to its own module.  A
module that needs one from a sibling, as `mod._x` on an imported module or as
`from .mod import _x`, is doing that module's work, and the work belongs
behind a public function of the module that owns the name.
"""

import ast
import pkgutil
from pathlib import Path

import scanstat

PACKAGE = Path(scanstat.__file__).parent
MODULES = {info.name for info in pkgutil.iter_modules(scanstat.__path__)}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sibling(node: ast.ImportFrom) -> str | None:
    """The scanstat module an ImportFrom reads from ("" for the package itself), else None."""
    if node.level == 1 or node.module == "scanstat" or (node.module or "").startswith("scanstat."):
        return (node.module or "").removeprefix("scanstat").lstrip(".")
    return None


def _private_reads(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names if a.asname and a.name.startswith("scanstat."))
        elif isinstance(node, ast.ImportFrom) and (module := _sibling(node)) is not None:
            if module:
                found += [f"{path.name}:{node.lineno}: from {module} import {a.name}"
                          for a in node.names if _private(a.name)]
            else:
                aliases.update(a.asname or a.name for a in node.names if a.name in MODULES)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_the_walk_sees_every_module_and_its_sibling_imports():
    assert {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"} == MODULES
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    assert any(isinstance(n, ast.ImportFrom) and _sibling(n) == "" for n in ast.walk(tree))


def test_no_module_reads_a_sibling_private_name():
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in _private_reads(path)]
    assert found == []
