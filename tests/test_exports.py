"""The package exports only names that the package itself or the demos use."""

import ast
from pathlib import Path

import creanet as cn

PACKAGE = Path(cn.__file__).resolve().parent
DEMOS = Path(__file__).resolve().parents[1] / "demos"


def referenced_names(paths) -> set[str]:
    """Every name the files read or call, bare or as an attribute; definitions and imports do not count."""
    names: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_used_outside_the_tests():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(DEMOS.glob("*.py"))
    assert len(paths) > 3
    unused = sorted(set(cn.__all__) - {"__version__"} - referenced_names(paths))
    assert not unused, f"exported but used only by the tests (or nowhere): {unused}"
