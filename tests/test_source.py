"""Source guard: every private top-level name of the package is used in the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mmcl"


def _defined(stmt) -> list[str]:
    """The names a top-level statement binds: a def, a class or assignment targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)]
    return []


def _read(stmt) -> set[str]:
    """The identifiers a statement reads: loaded names, attributes and imported names."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """module:name of each private top-level name (one leading underscore) that no
    top-level statement of any module reads, other than the one defining it."""
    stmts = [(module, stmt) for module, text in sorted(sources.items())
             for stmt in ast.parse(text).body]
    reads = [_read(stmt) for _, stmt in stmts]
    dead = []
    for i, (module, stmt) in enumerate(stmts):
        for name in _defined(stmt):
            if name.startswith("_") and not name.startswith("__") and not any(
                    name in r for j, r in enumerate(reads) if j != i):
                dead.append(f"{module}:{name}")
    return dead


def test_every_private_helper_is_used():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert len(sources) > 5
    assert dead_helpers(sources) == []


def test_guard_flags_unused_helpers():
    sources = {
        "a.py": "_LIMIT = 3\n_SPARE: int = 4\n__all__ = ['f']\n"
                "def _loop(n):\n    return _loop(n - 1) if n else 0\n"
                "def _used():\n    return _LIMIT\n"
                "class _Kept:\n    pass\n",
        "b.py": "from .a import _used\nimport a\n"
                "def f():\n    return _used() + a._Kept.__name__.count('x')\n",
    }
    assert dead_helpers(sources) == ["a.py:_SPARE", "a.py:_loop"]
