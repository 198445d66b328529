"""Source hygiene that needs only the standard library: no module of the
package imports a name it never uses (__init__.py is left out, since its
imports are the package's exports), every top-level function, class or
assigned name is exported or named somewhere besides its definition, every
exported function is read by package code or listed with its reason, the
config loader converts a number to float only in its one number reader,
only the modules where linear algebra runs import numpy, and only space
writes a product distance."""
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


def top_level_names(tree: ast.Module) -> list[tuple[str, int]]:
    """Each function, class and assigned name a module defines at top level,
    but dunders, with its line."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(n.id, node.lineno) for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name)]
    return [(name, line) for name, line in out if not name.startswith("__")]


def orphaned_definitions(sources: dict[str, str]) -> list[str]:
    """The top-level names of each source, as module:name, that no other
    line of any source names.  Sources include __init__.py, so a public name
    it exports is named there."""
    lines = [(mod, n, line) for mod, source in sources.items()
             for n, line in enumerate(source.splitlines(), 1)]
    unused = []
    for mod, source in sources.items():
        for name, lineno in top_level_names(ast.parse(source)):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(line) for m, n, line in lines if (m, n) != (mod, lineno)):
                unused.append(f"{mod}:{name}")
    return unused


def test_the_check_finds_an_orphaned_definition():
    sources = {"a.py": ("def _used():\n    pass\n\ndef _lone():\n    pass\n\n"
                        "def _lone_twin():\n    pass\n\nclass _Exported:\n    pass\n\n"
                        "def public():\n    return _used(), _lone_twin()\n\n"
                        "def orphan():\n    pass\n\nREAD, ORPHANS = 1, ('x',)\n"
                        "LONE: tuple = ()\n__version__ = '1'\ntotal = READ\n"),
               "b.py": "from .a import _Exported as E\n",
               "__init__.py": "from .a import public\n"}
    assert orphaned_definitions(sources) == [
        "a.py:_lone", "a.py:orphan", "a.py:ORPHANS", "a.py:LONE", "a.py:total"]


def test_every_definition_is_exported_or_named_elsewhere_in_the_package():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert orphaned_definitions(sources) == []


def unreached_exports(sources: dict[str, str]) -> list[str]:
    """The functions __init__.py exports that no other source reads, as an
    ast.Name or ast.Attribute outside the function's own top-level def."""
    init = ast.parse(sources["__init__.py"])
    exported = {a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom)
                for a in node.names}
    functions, read = set(), set()
    for mod, source in sources.items():
        if mod == "__init__.py":
            continue
        for top in ast.parse(source).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            functions.add(own)
            read |= {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(top)
                     if isinstance(n, (ast.Name, ast.Attribute))} - {own}
    return sorted((exported & functions) - read)


def test_the_check_finds_an_unreached_export():
    sources = {"a.py": ("def used():\n    return 1\n\ndef lone(n):\n    return lone(n - 1)\n\n"
                        "def by_attribute():\n    pass\n\ndef _private():\n    return used()\n\n"
                        "CONST = 1\n"),
               "b.py": "from . import a\n\ndef caller():\n    return a.by_attribute()\n",
               "__init__.py": "from .a import CONST, by_attribute, lone, used\nfrom .b import caller\n"}
    assert unreached_exports(sources) == ["caller", "lone"]


# each exported function that no package code reads, with the reason it stays
UNREACHED = {
    "eval_map": "perfbench's tracer wraps it until ROADMAP item 2",
    "convexity_modulus": "item 10",
    "proximal_squeeze_check": "item 10",
}


def test_every_exported_function_is_reached_or_listed():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreached_exports(sources) == sorted(UNREACHED)


def float_calls_outside(source: str, reader: str) -> list[int]:
    """The lines of source that call float( outside the top-level function reader."""
    tree = ast.parse(source)
    allowed = {id(n) for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == reader
               for n in ast.walk(f)}
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                  and n.func.id == "float" and id(n) not in allowed)


def test_the_check_finds_a_float_call_outside_the_reader():
    source = ("def _number(v):\n    return float(v)\n\n"
              "def parse(v: float) -> float:\n    return float(v) + _number(v)\n\n"
              "X = [float(c) for c in '12']\n")
    assert float_calls_outside(source, "_number") == [5, 7]


def test_config_converts_numbers_only_in_its_number_reader():
    # a key read with float() would take true, false and numeric strings
    assert float_calls_outside((SRC / "config.py").read_text(), "_number") == []


NUMPY_MODULES = {"sets.py", "space.py"}


def imports_numpy(source: str) -> bool:
    """Whether source imports numpy or a submodule of it anywhere, in a
    function or under TYPE_CHECKING too."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return any(name.partition(".")[0] == "numpy" for name in names)


def test_the_check_finds_a_numpy_import():
    assert imports_numpy("def f():\n    import numpy as np\n    return np\n")
    assert imports_numpy("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n"
                         "    from numpy.linalg import lstsq\n")
    assert not imports_numpy("import numpyro, math\nfrom .numpy_free import x\n"
                             "s = 'import numpy'\n")


def test_only_the_linear_algebra_modules_import_numpy():
    assert {p.name for p in SRC.glob("*.py") if imports_numpy(p.read_text())} <= NUMPY_MODULES


def inline_product_distances(source: str) -> list[int]:
    """The lines of source that call builtin max on two gap(...) calls, a
    product distance written out; space.larger is the one that keeps a nan."""
    def is_gap(node) -> bool:
        return isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "gap"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "gap")
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                  and n.func.id == "max" and len(n.args) == 2 and all(map(is_gap, n.args)))


def test_the_check_finds_an_inline_product_distance():
    source = ("a = max(gap(x, u), gap(y, v))\nb = larger(gap(x, u), gap(y, v))\n"
              "c = max(gap(x, u), 0.0)\nd = max(\n    self.gap(x, u), probe.gap(y, v))\n"
              "e = max(gap(p, q) for p in ps)\nf = max(w, max(gap(x, u), gap(y, v)))\n")
    assert inline_product_distances(source) == [1, 4, 7]


def test_only_space_writes_a_product_distance():
    assert {name: lines for name in MODULES if name != "space.py"
            if (lines := inline_product_distances((SRC / name).read_text()))} == {}
