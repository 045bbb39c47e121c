"""Source hygiene: no package module imports a name it never uses or a
scipy.linalg kernel that holds the GIL, or builds a thread or executor at
import, and no private name is defined that the package never references."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mptop"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(f"{name} (line {line})"
                    for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports unused names: {unused}"


# scipy.linalg's f2py wrappers hold the GIL for a whole kernel call; its
# Cython modules export the same routines as pointers that mptop.sparse
# calls through ctypes, which releases it
GIL_FREE_LINALG = {"scipy.linalg.cython_blas", "scipy.linalg.cython_lapack"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_scipy_linalg_only_through_its_cython_pointers(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported += [(f"{node.module}.{alias.name}", node.lineno)
                         for alias in node.names]
    found = [f"{name} (line {line})" for name, line in imported
             if name.split(".")[:2] == ["scipy", "linalg"]
             and ".".join(name.split(".")[:3]) not in GIL_FREE_LINALG]
    assert not found, f"{path.name} imports from scipy.linalg: {found}"


# a thread or executor built at import is shared by every caller for the
# life of the process; the package builds each inside the call that uses it
THREAD_CONSTRUCTORS = {"Thread", "Timer", "ThreadPoolExecutor",
                       "ProcessPoolExecutor"}


def _import_time_calls(node):
    """Every call under ``node`` outside function and lambda bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        if isinstance(child, ast.Call):
            yield child
        yield from _import_time_calls(child)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_thread_built_at_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    called = [(getattr(call.func, "id", None)
               or getattr(call.func, "attr", None), call.lineno)
              for call in _import_time_calls(tree)]
    found = [f"{name} (line {line})" for name, line in called
             if name in THREAD_CONSTRUCTORS]
    assert not found, f"{path.name} builds at import: {found}"


def _private_definitions(tree):
    """(name, line) of each private module-level function, class and
    constant, and each private method, defined in ``tree``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node.lineno
            yield from ((item.name, item.lineno) for item in node.body
                        if isinstance(item, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            yield from ((name.id, node.lineno) for target in targets
                        for name in ast.walk(target)
                        if isinstance(name, ast.Name))


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_unreferenced_private_names():
    # a refactor that folds a caller away leaves its private helper behind;
    # a reference in another module or a test does not keep one alive here
    # unless the package reads it
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = sorted(f"{module}:{line} {name}"
                    for module, tree in trees.items()
                    for name, line in _private_definitions(tree)
                    if _is_private(name) and name not in read)
    assert not unread, f"private names the package never reads: {unread}"
