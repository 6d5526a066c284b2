"""Static checks on the source, with the stdlib ast module only: no package
module, test file or script imports a name it never uses, every
module-level private name is referenced somewhere in the package, and
every module-level name of the test oracles is referenced by a test file
or by another oracle, so dead code cannot linger after a deletion."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypercnot"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
MODULES = sorted(name for name in TREES if name != "__init__.py")
# every file whose imports must be used; __init__.py imports to re-export
IMPORTERS = {f"src/hypercnot/{module}": TREES[module] for module in MODULES} | {
    path.relative_to(ROOT).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
    for folder in ("tests", "scripts")
    for path in sorted((ROOT / folder).glob("*.py"))
}


def _quoted_annotations(tree: ast.AST):
    """Quoted annotations, parsed: they name types the module must still import."""
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                yield ast.parse(annotation.value, mode="eval")


def _loaded(tree: ast.AST) -> set[str]:
    """Every name a module reads, quoted annotations included."""
    return {
        node.id
        for part in (tree, *_quoted_annotations(tree))
        for node in ast.walk(part)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


def _referenced(tree: ast.AST) -> set[str]:
    """Every name a module reads, reads as an attribute, or imports by name."""
    names = _loaded(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_unused_imports():
    unused = []
    for module, tree in IMPORTERS.items():
        loaded = _loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loaded:
                        unused.append(f"{module}: {bound}")
    assert unused == []


def _definitions(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function, a class or an
    assignment's targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
    return []


def _private_definitions(tree: ast.Module) -> list[str]:
    names = [name for node in tree.body for name in _definitions(node)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_module_name_is_referenced():
    referenced = set().union(*(_referenced(tree) for tree in TREES.values()))
    unreferenced = [
        f"{module}: {name}"
        for module in MODULES
        for name in _private_definitions(TREES[module])
        if name not in referenced
    ]
    assert unreferenced == []


def test_every_oracle_is_referenced():
    # a module-level name of oracles.py counts as used when a test file, or a
    # statement of oracles.py other than the one defining it, refers to it
    body = IMPORTERS["tests/oracles.py"].body
    tests = set().union(
        *(
            _referenced(tree)
            for module, tree in IMPORTERS.items()
            if module.startswith("tests/") and module != "tests/oracles.py"
        )
    )
    statements = [_referenced(node) for node in body]
    unreferenced = [
        name
        for i, node in enumerate(body)
        for name in _definitions(node)
        if not name.startswith("__")
        and name not in tests
        and not any(name in refs for j, refs in enumerate(statements) if j != i)
    ]
    assert unreferenced == []
