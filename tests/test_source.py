"""Source hygiene checks over src/vladkit."""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vladkit"


def test_every_private_module_level_name_is_loaded_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):  # e.g. pipeline._FIELDS
                loaded.add(node.attr)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            unused += [
                f"{module}: {name}" for name in names
                if name.startswith("_") and not name.startswith("__") and name not in loaded
            ]
    assert unused == []


def test_every_imported_name_is_loaded_in_its_module():
    """No src/vladkit module keeps an import that it does not use, e.g. one
    kept only so that a caller can patch it; __init__.py re-exports its
    imports and is exempt."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                  and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in loaded:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_vladkit_error_is_the_only_exception_class():
    """Every failure is a VladkitError told apart by its message: no code
    catches a narrower class, so src/vladkit defines none."""
    bases = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                names = {ast.unparse(b).rpartition(".")[2] for b in node.bases}
                bases[f"{path.stem}.{node.name}"] = names
    known = {name for name, value in vars(builtins).items()
             if isinstance(value, type) and issubclass(value, BaseException)}
    exceptions = set()
    while True:  # a class deriving from an exception class is one too
        found = {cls for cls, names in bases.items() if names & known}
        if found == exceptions:
            break
        exceptions = found
        known |= {cls.rpartition(".")[2] for cls in found}
    assert sorted(exceptions) == ["errors.VladkitError"]
