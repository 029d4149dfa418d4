"""Source guards: every private top-level name of the package is used in the
package, and every flag it emits is documented in the README."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mmcl"


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


def emitted_flags(sources: dict[str, str]) -> set[str]:
    """The flag literals the package emits: a string appended to a list named
    flags, or a tuple element, string or f-string bound to a name or keyword
    named flags. An f-string's replacement fields read as "<"."""
    found = set()

    def add(value):
        if isinstance(value, ast.JoinedStr):
            found.add("".join(v.value if isinstance(v, ast.Constant) else "<"
                              for v in value.values))
        nodes = [value] + [e for n in ast.walk(value) if isinstance(n, (ast.Tuple, ast.List))
                           for e in n.elts]
        found.update(n.value for n in nodes
                     if isinstance(n, ast.Constant) and isinstance(n.value, str))

    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "append"
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "flags"):
                add(node.args[0])
            elif isinstance(node, ast.keyword) and node.arg == "flags":
                add(node.value)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "flags" for t in node.targets):
                add(node.value)
    return found


def test_readme_names_every_emitted_flag():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    flags = emitted_flags(sources)
    assert {"degenerate-gap", "no-progress", "converged", "failed:<"} <= flags
    section = (ROOT / "README.md").read_text().split("\n## Flags\n")[1].split("\n## ")[0]
    missing = [f for f in sorted(flags)
               if f"`{f}" + ("" if f.endswith("<") else "`") not in section]
    assert missing == []


def test_readme_names_every_gen_field_of_every_kind():
    from mmcl import cli, storage
    assert tuple(cli.GEN_KINDS) == storage.DATASET_KINDS
    readme = " ".join((ROOT / "README.md").read_text().split())
    # "... it accepts `n` and `p` for `paired`, `n` for `unpaired`, and ... for `...`;"
    accepts = readme.split("`mmcl gen` checks its config")[1].split(" it accepts ")[1]
    named = {kind: set(re.findall(r"`(\w+)`", fields))
             for fields, kind in re.findall(r"(.+?) for `([\w-]+)`", accepts.split(";")[0])}
    assert named == {kind: set(fields) for kind, (_, fields) in cli.GEN_KINDS.items()}


def test_flag_scan_reads_appends_tuples_and_fstrings():
    sources = {"a.py": "flags = ('x',) if a else ()\nflags = flags + ('y',)\n"
                       "flags.append('z')\nf(flags=f'w:{e}')\nflags = d.pop('_k', '')\n"
                       "other.append('no')\n"}
    assert emitted_flags(sources) == {"x", "y", "z", "w:<"}


def readers(text: str, name: str) -> set[str]:
    """The top-level definitions of a module whose bodies read name."""
    return {stmt.name for stmt in ast.parse(text).body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and name in _read(stmt)}


def test_one_function_chooses_the_softmax_shift_route():
    # The underflow rule of both streamed softmax passes lives in the kernel:
    # no caller reads the range to pick a route of its own.
    assert readers((SRC / "losses.py").read_text(), "_SHARED_RANGE") == {"_softmax_sums"}


def test_one_function_holds_the_rank_check_and_the_gap_rule():
    # Every closed-form fit cuts its spectrum through linalg.truncated_svd:
    # solvers reads neither the gap tolerance nor the full SVD.
    solvers, linalg = (SRC / "solvers.py").read_text(), (SRC / "linalg.py").read_text()
    assert readers(solvers, "GAP_TOL") == set()
    assert readers(solvers, "svd") == set()
    assert readers(linalg, "GAP_TOL") == {"truncated_svd"}


def test_one_function_holds_the_rank_rule():
    # Every rank checked against dimensions, in every fit and in mmcl gen, goes
    # through linalg._check_rank; ModelParams keeps only its zero-column check.
    # losses.schedule_tau has no shape to check against: it refuses only a
    # rank that is not an integer.
    read = {name: (SRC / f"{name}.py").read_text()
            for name in ("solvers", "linalg", "datagen", "losses")}
    assert readers(read["solvers"], "InvalidRank") == set()
    assert readers(read["linalg"], "InvalidRank") == {"_check_rank"}
    assert readers(read["datagen"], "InvalidRank") == {"ModelParams"}
    assert readers(read["losses"], "InvalidRank") == {"schedule_tau"}


def message_builders(text: str, pattern: str) -> set[str]:
    """The top-level definitions of a module with a string literal that matches
    pattern; an f-string's replacement fields read as "<"."""
    def literals(stmt):
        for node in ast.walk(stmt):
            if isinstance(node, ast.JoinedStr):
                yield "".join(v.value if isinstance(v, ast.Constant) else "<"
                              for v in node.values)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield node.value

    return {stmt.name for stmt in ast.parse(text).body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and any(re.search(pattern, lit) for lit in literals(stmt))}


def test_one_function_reads_every_config_section():
    # Every JSON config section is checked for an object and for unknown keys
    # by storage.read_section, and read with storage's parsers.
    found = {f"{path.stem}.{name}" for path in SRC.glob("*.py")
             for name in message_builders(path.read_text(), r"unknown.*fields")}
    assert found == {"storage.read_section"}
    for module in ("harness", "cli"):
        text = (SRC / f"{module}.py").read_text()
        assert readers(text, "int_option") == readers(text, "float_option") == set()


def test_message_scan_reads_literals_and_fstring_parts():
    text = ("def f(u):\n    raise E(f'unknown {u} fields')\n"
            "def g():\n    return 'known fields'\nclass C:\n    m = 'unknown config fields'\n")
    assert message_builders(text, r"unknown.*fields") == {"f", "C"}


def test_reader_scan_sees_nested_and_attribute_reads():
    text = ("_R = 1\ndef f():\n    def g():\n        return _R\n    return g\n"
            "class C:\n    x = m._R\ndef h():\n    _R = 2\n    return 0\n")
    assert readers(text, "_R") == {"f", "C"}
