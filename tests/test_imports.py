"""Every module-level import in the library is referenced by its module, every
module-level function and class has a reader, importing the library loads no
heavy optional module, and every function the benchmark's tracer binds by name
exists."""
import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SPANS = SRC.parent / "perfbench" / "spans.py"
PACKAGE = SRC / "lrcert"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that no name in the module refers to."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_scan_finds_an_unused_import():
    source = "import json\nimport os.path\nfrom . import geometry as g\nos.sep, g\n"
    assert unused_imports(source) == ["json"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_definitions(sources: dict) -> list:
    """(module, name) of each module-level function and class that no module
    in ``sources`` (module name -> source) refers to outside its own
    definition, by a bare name or as an attribute."""
    defined, referenced = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
                names.discard(node.name)
            referenced |= names
    return [(module, name) for module, name in defined if name not in referenced]


def test_scan_finds_an_unreferenced_definition():
    sources = {"a": "def f():\n    return f()\n\nclass C:\n    pass\n",
               "b": "from .a import C\n\ndef g():\n    return C\n"}
    assert unreferenced_definitions(sources) == [("a", "f"), ("b", "g")]


def test_every_definition_has_a_reader():
    # a function or class that no module of the library reads (the package's
    # re-exports do not count) is either traced by the benchmark or goes
    spans = _load_spans()
    traced = {(module.removeprefix("lrcert."), path.split(".")[0])
              for module, paths in spans.TARGETS.values() for path in paths}
    # identity is the unit of the operator algebra, kept for callers that
    # build observables from it, though no report path reads it
    allowed = traced | {("qalgebra", "identity")}
    sources = {path.stem: path.read_text() for path in MODULES}
    assert [d for d in unreferenced_definitions(sources) if d not in allowed] == []


def test_import_loads_no_special_function_library():
    # Either would add its import time to every command; C_eps needs neither.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, lrcert; "
         "print(sorted({'mpmath', 'scipy.special'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_perfbench_trace_targets_resolve():
    # perfbench/spans.py wraps these functions by name for ``--trace 1``; a
    # rename or removal in the library would silently drop a layer
    spans = _load_spans()
    targets = spans.originals()
    assert set(targets) == set(spans.TARGETS)
    for name, fns in targets.items():
        assert fns and all(callable(fn) for fn in fns), name


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans
