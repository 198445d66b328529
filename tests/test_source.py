"""Source hygiene that needs only the standard library: no module of the
package imports a name it never uses (__init__.py is left out, since its
imports are the package's exports), and every private top-level function
or class is named somewhere besides its definition."""
import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "proxcycle"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads, with their lines; a name
    read only in a string annotation counts as read."""
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    imported, read = [], set()
    for node in nodes:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.partition(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        annotation = (node.annotation if isinstance(node, (ast.arg, ast.AnnAssign))
                      else node.returns if isinstance(node, ast.FunctionDef) else None)
        for c in ast.walk(annotation) if annotation is not None else ():
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                read |= {n.id for n in ast.walk(ast.parse(c.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported if name not in read]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os, os.path as osp\n"
              "from a import b, c as d\nimport numpy as np\n"
              "def f(x: 'np.ndarray') -> b:\n    return osp\n")
    assert unused_imports(source) == ["os (line 2)", "d (line 3)"]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_imports_a_name_it_never_uses(name):
    assert unused_imports((SRC / name).read_text()) == []


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """The _-prefixed top-level functions and classes of each source, as
    module:name, that no other line of any source names."""
    lines = [(mod, n, line) for mod, source in sources.items()
             for n, line in enumerate(source.splitlines(), 1)]
    unused = []
    for mod, source in sources.items():
        for node in ast.parse(source).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_")):
                word = re.compile(rf"\b{re.escape(node.name)}\b")
                if not any(word.search(line) for m, n, line in lines
                           if (m, n) != (mod, node.lineno)):
                    unused.append(f"{mod}:{node.name}")
    return unused


def test_the_check_finds_an_unused_private_definition():
    sources = {"a.py": ("def _used():\n    pass\n\ndef _lone():\n    pass\n\n"
                        "def _lone_twin():\n    pass\n\nclass _Exported:\n    pass\n\n"
                        "def public():\n    return _used(), _lone_twin()\n"),
               "b.py": "from .a import _Exported as E\n"}
    assert unused_private_definitions(sources) == ["a.py:_lone"]


def test_every_private_definition_is_named_elsewhere_in_the_package():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unused_private_definitions(sources) == []
