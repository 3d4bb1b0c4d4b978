"""The settings module sits at the bottom of the package and owns every enum and range check.

The package reaches scipy's sparse kernels without importing `scipy.sparse`
and calls them only on checked stores, one module alone calls libc's
`madvise` through `ctypes`, and the edge dumps' float formatter imports only
numpy.
"""

import ast
import dataclasses
import os
import re
import subprocess
import sys
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


# Raises allowed to check a setting outside `config.py`: (module, enclosing function).
SETTING_CHECKS_ALLOWED = {("similarity.py", "check_sigma")}  # `config.py` calls it


def raise_messages(tree: ast.Module):
    """(enclosing function, message) of each `raise X("...")`, an f-string's fields read as {}."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call) and child.exc.args:
                message = child.exc.args[0]
                if isinstance(message, ast.Constant) and isinstance(message.value, str):
                    yield function, message.value
                elif isinstance(message, ast.JoinedStr):
                    yield function, "".join(part.value if isinstance(part, ast.Constant) else "{}"
                                            for part in message.values)
            yield from visit(child, function)

    yield from visit(tree, None)


def test_settings_are_checked_only_in_config():
    names = {f.name for cls in (cn.RunConfig, cn.TimeMachineSpec) for f in dataclasses.fields(cls)}
    names |= {"percentile", "group"}
    checks_setting = re.compile(rf"({'|'.join(sorted(names))}) must")
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "config.py":
            continue
        for function, message in raise_messages(parse(path)):
            allowed = (path.name, function) in SETTING_CHECKS_ALLOWED
            if checks_setting.match(message) and not allowed:
                found.append(f"{path.name}:{function}: {message!r}")
    assert not found, f"settings checked outside config.py: {found}"


# The stage cores that write into memory their caller hands them, and the
# public wrappers that hand them fresh memory; only `pipeline.py` hands one
# stage the memory of the stage before it.
STAGE_CORES = {"_balance": ("implication.py", "build_implication_network"),
               "_scale": ("scoring.py", "normalize")}


def calls_and_writes(tree: ast.Module):
    """(enclosing function, name, node) of each call by name, and of each `.writeable =` assignment."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                yield function, name, child
            elif isinstance(child, ast.Assign):
                for target in child.targets:
                    if isinstance(target, ast.Attribute) and target.attr in ("writeable", "WRITEABLE"):
                        yield function, "writeable", child
            yield from visit(child, function)

    yield from visit(tree, None)


def unfreezes(name: str, node: ast.AST) -> bool:
    """Whether a call or assignment may make an array writable again."""
    if name == "writeable":
        return True
    if name == "setflags":
        return any(kw.arg == "write" and not (isinstance(kw.value, ast.Constant) and kw.value.value is False)
                   for kw in node.keywords) or bool(node.args)
    return False


def test_only_the_pipeline_hands_a_stage_its_inputs_memory():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "pipeline.py":
            continue
        for function, name, node in calls_and_writes(parse(path)):
            if unfreezes(name, node):
                found.append(f"{path.name}:{function}: makes an array writable")
            if name in STAGE_CORES and STAGE_CORES[name] != (path.name, function):
                found.append(f"{path.name}:{function}: calls {name}")
    assert not found, f"stage memory handed over outside pipeline.py: {found}"
    pipeline_calls = {name for _, name, _ in calls_and_writes(parse(PACKAGE / "pipeline.py"))}
    assert set(STAGE_CORES) <= pipeline_calls and "setflags" in pipeline_calls


# Imports of `scipy.sparse` allowed in the package: (module, enclosing function).
SCIPY_SPARSE_ALLOWED = {("_kernels.py", "load")}  # the fallback when the direct load fails


def scipy_sparse_imports(tree: ast.Module):
    """The enclosing function of each import of `scipy.sparse` or of a name under it."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [f"{child.module}.{alias.name}" for alias in child.names]
            else:
                names = []
            if any(name == "scipy.sparse" or name.startswith("scipy.sparse.") for name in names):
                yield function
            yield from visit(child, function)

    yield from visit(tree, None)


def test_no_module_imports_scipy_sparse_but_the_kernel_fallback():
    found = {(path.name, function) for path in sorted(PACKAGE.glob("*.py"))
             for function in scipy_sparse_imports(parse(path))}
    assert found == SCIPY_SPARSE_ALLOWED


# The functions that may read scipy's kernels: (module, enclosing function).
# The kernels check no bounds; these two pass them only the arrays of an
# implication network's stores, which `PaintingGraph` checked when it was
# built, in the index type `_kernels.index_arrays` picks.
KERNEL_CALLERS = {("scoring.py", "_product"), ("implication.py", "_merged")}


def kernel_reads(tree: ast.Module):
    """The enclosing function of each read of the name or attribute `sparsetools`."""
    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == "sparsetools" and isinstance(child.ctx, ast.Load)
                    or isinstance(child, ast.Attribute) and child.attr == "sparsetools"):
                yield function
            yield from visit(child, function)

    yield from visit(tree, None)


def picks_an_index_type(tree: ast.Module) -> bool:
    """Whether the file picks between int32 and int64 with a conditional expression."""
    def names(node):
        return {n.attr if isinstance(n, ast.Attribute) else n.id for n in (node.body, node.orelse)
                if isinstance(n, (ast.Attribute, ast.Name))}

    return any(isinstance(node, ast.IfExp) and names(node) == {"int32", "int64"} for node in ast.walk(tree))


def test_the_kernels_are_called_only_on_checked_stores():
    found = {(path.name, function) for path in sorted(PACKAGE.glob("*.py"))
             for function in kernel_reads(parse(path))}
    assert found == KERNEL_CALLERS
    pickers = [path.name for path in sorted(PACKAGE.glob("*.py")) if picks_an_index_type(parse(path))]
    assert pickers == ["_kernels.py"]


def test_the_cli_imports_neither_scipy_sparse_nor_f2py():
    code = ("import sys\nimport creanet.cli\n"
            "print(sorted(m for m in ('scipy.sparse', 'numpy.f2py') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_float_formatter_needs_only_numpy():
    # the edge dumps' formatter adds no import to `creanet.cli`, which loads numpy anyway
    tree = parse(PACKAGE / "_floatrepr.py")
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert modules == {"__future__", "numpy"}
    code = ("import __future__, importlib.util, sys\nimport numpy\nbefore = set(sys.modules)\n"
            f"spec = importlib.util.spec_from_file_location('alone', {str(PACKAGE / '_floatrepr.py')!r})\n"
            "spec.loader.exec_module(importlib.util.module_from_spec(spec))\n"
            "print(sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def platform_calls(tree: ast.Module) -> set[str]:
    """'ctypes' if the file imports ctypes, 'madvise' if any name, attribute or string names madvise."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        if any(module.split(".")[0] == "ctypes" for module in modules):
            found.add("ctypes")
        text = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                else node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else "")
        if "madvise" in text.lower():
            found.add("madvise")
    return found


def test_only_the_graph_module_loads_libc_and_names_madvise():
    # the one platform call, `graph._release`, stays in one place
    found = {path.name: platform_calls(parse(path)) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {"graph.py": {"ctypes", "madvise"}}
