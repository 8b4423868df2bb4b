"""No module under ``src/repro`` imports a name it never reads.

A stdlib ``ast`` scan: every name an ``import`` binds in a module
(function-local imports included) must be read somewhere in that module
or listed in its ``__all__``.  Package ``__init__`` modules are left out:
importing names to re-export them is what they are for.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def unused_imports(source: str):
    """Names bound by an import in ``source`` that nothing reads."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {
                e.value for e in ast.walk(node.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
    return sorted(
        (line, name) for name, line in imported.items()
        if name not in read and name not in exported
    )


def test_scan_finds_an_unused_name():
    source = (
        "from typing import Dict, List\n"
        "import numpy as np\n"
        "def f(x: Dict) -> None:\n"
        "    from os import path\n"
        "    return np.sum(x)\n"
    )
    assert unused_imports(source) == [(1, "List"), (4, "path")]


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in modules
        for line, name in unused_imports(path.read_text())
    ]
    assert not unused, "imported but never read:\n" + "\n".join(unused)
