"""Package layout: every library module is used by the package itself."""

import ast
from pathlib import Path

import bnball

# Entry points: the command line and the package's public names.  The
# re-exports in __init__ do not count as a use, or re-exporting a module
# would hide that only tests call it.
ENTRY_MODULES = {"cli", "__init__"}


def _imported_modules(path: Path) -> set[str]:
    """Names of the bnball modules that one module imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # the package is flat, so a relative import is from bnball
            base = ("bnball." if node.level else "") + (node.module or "")
            base = base.rstrip(".")
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            if parts[0] == "bnball" and len(parts) > 1:
                names.add(parts[1])
    return names


def test_every_module_is_imported_by_another():
    """A module that only tests import does not belong in the package."""
    package = Path(bnball.__file__).parent
    modules = {p.stem: p for p in package.glob("*.py")}
    unused = [
        name
        for name in sorted(modules.keys() - ENTRY_MODULES)
        if not any(
            name in _imported_modules(path)
            for other, path in modules.items()
            if other not in (name, "__init__")
        )
    ]
    assert not unused, f"modules no other package module imports: {unused}"
