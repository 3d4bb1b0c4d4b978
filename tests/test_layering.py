"""The settings module sits at the bottom of the package and owns every enum."""

import ast
from pathlib import Path

import creanet as cn

PACKAGE = Path(cn.__file__).resolve().parent
ENUMS = ("SCORING_MODES", "TEMPORAL_PRIORS", "BALANCING_MODES", "BALANCE_ANCHORS", "MOVES")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def package_imports(tree: ast.Module) -> set[str]:
    """The `creanet` modules a file imports, relative or absolute; the package itself as 'creanet'."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                found |= {module.split(".")[0]} if module else {a.name for a in node.names}
            elif module == "creanet":
                found |= {a.name for a in node.names}
            elif module.startswith("creanet."):
                found.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "creanet" or alias.name.startswith("creanet."):
                    found.add(alias.name.split(".")[1] if "." in alias.name else "creanet")
    return found


def test_config_imports_no_package_module_but_similarity():
    assert package_imports(parse(PACKAGE / "config.py")) <= {"similarity"}


def test_enum_tuples_are_assigned_only_in_config():
    owners: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id in ENUMS:
                        owners.setdefault(name.id, []).append(path.name)
    assert owners == {name: ["config.py"] for name in ENUMS}
