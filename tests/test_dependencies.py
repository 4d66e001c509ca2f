"""The package has no runtime dependencies, no dead names and no syntax
newer than its declared Python floor, its CI workflow holds no library
checks of its own, and these tests keep it so."""

import ast
import random
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_pyproject_declares_no_runtime_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = [line.strip() for line in text.splitlines()
                if line.strip().startswith("dependencies")]
    assert declared == ["dependencies = []"]


def test_package_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "dlfvault").rglob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {module}" for module in modules
                        if module.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_package_has_no_unused_imports():
    sources = sorted(path for path in (ROOT / "src" / "dlfvault").rglob("*.py")
                     if path.name != "__init__.py")
    assert sources
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        # an attribute's base is itself a Name node, so this covers `mod.attr`
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert unused == []


# the oldest Python the package supports, from its one source
FLOOR = tuple(int(part) for part in re.search(
    r'^requires-python = ">=(\d+)\.(\d+)"$',
    (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M).groups())


def _parsed(*dirs):
    for folder in dirs:
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                                  feature_version=FLOOR)


def _unreferenced(*readers):
    """Package names that no module under `readers` loads or reads as an attribute."""
    referenced = set()
    for _, tree in _parsed(*readers):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                referenced.add(node.attr)
    unreferenced = []
    for path, tree in _parsed("src/dlfvault"):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                # an unpacking binds every position, so its unread ones are
                # discards; only a whole-target name counts as a definition
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            unreferenced += [f"{path.name}: {name}" for name in names
                             if name not in referenced
                             and not (name.startswith("__") and name.endswith("__"))]
    return unreferenced


def test_package_defines_no_unreferenced_names():
    assert _unreferenced("src", "tests", "bench") == []


def test_package_defines_no_name_that_only_tests_read():
    # a reference kept only for the tests belongs in the tests
    assert _unreferenced("src", "bench") == []


def test_every_source_parses_at_the_declared_python_floor():
    # ast checks syntax only: newer f-string forms and standard-library
    # names added after the floor pass here unnoticed
    assert list(_parsed("src", "tests", "bench"))


def test_no_seed_parameter_has_a_default():
    # a defaulted seed hands every caller who omits it the same "random" draw
    defaulted = []
    for path, tree in _parsed("src/dlfvault"):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):] + [
                arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None]
            if any(arg.arg == "seed" for arg in with_default):
                defaulted.append(f"{path.name}: {node.name}")
    assert defaulted == []


def test_no_module_draws_past_getrandbits():
    # vault layouts, keys and field parameters are defined on the
    # getrandbits stream alone, drawn by dlfvault._draw's rule; randrange,
    # shuffle and the rest reach it through internals that may change
    # between Python versions. Other modules hand getrandbits to _draw
    # and never call it themselves
    methods = {name for name in dir(random.Random) if not name.startswith("_")}
    calls = []
    for path, tree in _parsed("src/dlfvault"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
                if (isinstance(node.func, ast.Attribute) and name in methods - {"getrandbits"}
                        or name == "getrandbits" and path.name != "_draw.py"):
                    calls.append(f"{path.name}:{node.lineno}: {name}")
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                calls += [f"{path.name}:{node.lineno}: {alias.name}" for alias in node.names
                          if alias.name in methods - {"getrandbits"}]
    assert calls == []


def test_the_ci_workflow_runs_no_inline_python():
    # the library's checks belong to these tests, which CI runs against the
    # installed package; the workflow itself only drives the console script
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    assert re.findall(r"\bpython[\d.]*\s+(?:-c\b|-?\s*<<|-\s*$)", workflow, re.M) == []
