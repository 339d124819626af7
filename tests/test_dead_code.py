"""Every module-level name in `src/spindisk/` is used somewhere.

A public function, class or constant that no code in `src/`, `bench/`
or `tests/` references is dead API.  A private (underscore) name must be
referenced from `src/` or `bench/`: a helper that only tests use is dead
code kept alive by its tests.  A reference is a loaded name, an
attribute or an imported name; the re-exports in `spindisk/__init__.py`
do not count, so public API that nothing uses is caught too.  Click
commands (reached through the group), `__all__` and `__version__` are
exempt.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spindisk"
EXEMPT = {"__all__", "__version__"}


def module_level_names(tree):
    """(name, node) of each function, class and assigned name at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id, node


def is_click_command(node):
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in getattr(node, "decorator_list", ())
    )


def referenced_names(dirs):
    used = set()
    for path in (p for d in dirs for p in (ROOT / d).rglob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
            elif isinstance(n, ast.alias) and path != PACKAGE / "__init__.py":
                used.add(n.name)
    return used


def test_no_unreferenced_module_level_names():
    used = referenced_names(("src", "bench", "tests"))
    used_by_program = referenced_names(("src", "bench"))
    dead = [
        f"{path.name}:{node.lineno} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, node in module_level_names(ast.parse(path.read_text()))
        if name not in (used_by_program if name.startswith("_") else used)
        and name not in EXEMPT and not is_click_command(node)
    ]
    assert dead == []
