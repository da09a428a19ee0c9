"""The package states its invariants as typed errors, never as asserts,
so that python -O strips no check, imports only what it uses, and reads
no environment variable, so no setting outside its arguments steers it;
and it still offers every name and signature the benchmark harness uses."""

import ast
import importlib
import inspect
from pathlib import Path

import quiverump
from quiverump.ump import ROUTES

SOURCES = sorted(Path(quiverump.__file__).resolve().parent.glob("*.py"))


def test_package_has_no_assert():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Assert)
                or isinstance(node, ast.Name) and node.id == "AssertionError"
                or isinstance(node, ast.Attribute) and node.attr == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES
    assert found == []


def test_package_imports_only_what_it_uses():
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_package_reads_no_environment():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "os" for alias in node.names)
                or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "os"
                or isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                or isinstance(node, ast.Name) and node.id in ("environ", "getenv")
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


HARNESS = Path(__file__).resolve().parents[1] / "bench" / "harness.py"


def _public_definitions(tree):
    """(name, first line, last line) of each public module-level function
    or class, and of each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno


def test_every_public_name_has_a_caller():
    """A public function or class is referenced, by name or as an
    attribute, and a public method or property as an attribute (x.name),
    somewhere in the package outside its own definition, or in
    bench/harness.py; else it is kept alive by its own tests alone.  A
    local variable or parameter of the same name calls no method."""
    refs = []  # (file, line, name, whether an attribute) of every Name and Attribute
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES + [HARNESS]}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path, node.lineno, node.id, False))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.lineno, node.attr, True))
    uncalled = []
    for path in SOURCES:
        for qualname, first, last in _public_definitions(trees[path]):
            name, method = qualname.rsplit(".", 1)[-1], "." in qualname
            if not any(n == name and (attr or not method) and not (p == path and first <= line <= last)
                       for p, line, n, attr in refs):
                uncalled.append(qualname)
    assert uncalled == []


def test_bench_harness_still_binds():
    """Every name bench/harness.py imports from quiverump exists, and every
    call it makes to one, directly or through its call(label, fn, *args)
    wrapper, binds to the current signature."""
    tree = ast.parse(HARNESS.read_text(), filename=str(HARNESS))
    imported, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "quiverump":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(module, alias.name):
                    imported[alias.asname or alias.name] = getattr(module, alias.name)
                else:
                    missing.append(f"{node.module}.{alias.name}")
    unbound = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        args = node.args
        if isinstance(node.func, ast.Name) and node.func.id in imported:
            fn = imported[node.func.id]
        elif isinstance(node.func, ast.Name) and node.func.id == "call" and len(args) > 1 \
                and isinstance(args[1], ast.Name) and args[1].id in imported:
            fn, args = imported[args[1].id], args[2:]
        else:
            continue
        if any(isinstance(a, ast.Starred) for a in args) or any(k.arg is None for k in node.keywords):
            continue
        try:
            inspect.signature(fn).bind(*args, **{k.arg: k.value for k in node.keywords})
        except TypeError as err:
            unbound.append(f"harness.py:{node.lineno} {fn.__name__}: {err}")
    assert imported and missing == []
    assert unbound == []


def test_every_route_has_a_caller():
    """Each value of ump.ROUTES is passed as a string literal to ump_report
    in bench/harness.py, directly or through a wrapper that takes
    ump_report as an argument, such as call(label, fn, *args); else the
    route is kept alive by its own tests alone."""
    passed = set()
    for node in ast.walk(ast.parse(HARNESS.read_text(), filename=str(HARNESS))):
        if not isinstance(node, ast.Call):
            continue
        callee = [node.func] + node.args
        at = [i for i, a in enumerate(callee) if isinstance(a, ast.Name) and a.id == "ump_report"]
        if at:
            args = callee[at[0] + 1:] + [k.value for k in node.keywords if k.arg == "route"]
            passed.update(a.value for a in args if isinstance(a, ast.Constant) and isinstance(a.value, str))
    assert sorted(set(ROUTES) - passed) == []


def test_the_decision_route_builds_no_validated_path():
    """omega, analysis, oracle, ump and brauer build their paths from
    arrows known to compose, with Path(...) and ZeroRelation(...), and
    never validate them again through Quiver.path or zero_relation."""
    here = Path(quiverump.__file__).resolve().parent
    found = []
    for name in ("omega.py", "analysis.py", "oracle.py", "ump.py", "brauer.py"):
        for node in ast.walk(ast.parse((here / name).read_text(), filename=name)):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Attribute) and func.attr == "path"
                    or isinstance(func, ast.Name) and func.id == "zero_relation"):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_oracle_imports_no_structural_module():
    """The oracle is the reference answer, so it stays independent of the
    structural code it checks."""
    path = Path(quiverump.__file__).resolve().parent / "oracle.py"
    structural = {"analysis", "ump", "omega", "brauer"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if parts[-1] in ("", "quiverump"):  # from . import analysis
                parts += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            parts = [part for alias in node.names for part in alias.name.split(".")]
        else:
            continue
        found += [f"oracle.py:{node.lineno} {p}" for p in parts if p in structural]
    assert found == []


def test_brauer_builds_no_presentation_through_the_generic_builder():
    """A Brauer graph algebra is read off its graph: brauer.py imports
    neither the generic builder nor its bound walk or minimisation."""
    path = Path(quiverump.__file__).resolve().parent / "brauer.py"
    generic = {"algebra", "admissibility_bound", "minimalize_relations"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.ImportFrom, ast.Import)):
            found += [f"brauer.py:{node.lineno} {alias.name}" for alias in node.names
                      if alias.name.split(".")[-1] in generic]
    assert found == []


def test_no_verdict_path_names_the_induced_presentation():
    """induced_algebra is named in the package only by its own definition in
    analysis.py: no route builds an induced presentation, and the tests and
    the benchmark harness are its only callers."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        own = [(node.lineno, node.end_lineno) for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "induced_algebra"]
        assert len(own) == (path.name == "analysis.py"), path.name
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name == "induced_algebra" and not any(a <= node.lineno <= b for a, b in own):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_verdict_path_names_the_ramifications_graph():
    """analysis.py and ump.py read the components off the length-2 table
    through omega.saturation_walks: neither names the ramifications graph
    or its walk, which only the tests and the benchmark harness call."""
    graph = {"ramifications_graph", "RamificationsGraph", "weak_components"}
    found = []
    for path in SOURCES:
        if path.name not in ("analysis.py", "ump.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in graph:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_the_ideal_and_omega_name_the_length2_table():
    """is_special_multiserial keeps the length-2 table when its right pass
    holds and omega walks it; no other module names _after, as an attribute
    or a string, so quick_non_ump grows its pair from the special
    multiserial witness with membership queries alone and a right pass
    that fails leaves the table unbuilt.  The cached decision itself,
    _special, is named only in ideal.py: every other module asks
    is_special_multiserial."""
    readers = {"_after": ("ideal.py", "omega.py"), "_special": ("ideal.py",)}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                    else node.value if isinstance(node, ast.Constant) else None)
            if name in readers and path.name not in readers[name]:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_auto_routes_on_the_decision_not_on_an_exception():
    """ump_report asks is_special_multiserial and routes on its result: ump.py
    neither names NotSpecialMultiserial nor catches any exception."""
    here = Path(quiverump.__file__).resolve().parent / "ump.py"
    found = []
    for node in ast.walk(ast.parse(here.read_text(), filename="ump.py")):
        name = node.id if isinstance(node, ast.Name) else node.name if isinstance(node, ast.alias) else None
        if isinstance(node, ast.Try) or name == "NotSpecialMultiserial":
            found.append(f"ump.py:{node.lineno}")
    assert found == []


def test_the_refutation_reads_no_relation():
    """quick_non_ump has one seed source, the special multiserial witness:
    ump.py reads no relation of the ideal and decides no length-2
    composition itself, so seeding from identification terms cannot
    return as a second path."""
    here = Path(quiverump.__file__).resolve().parent / "ump.py"
    relations = {"ideal", "linear", "zero", "_composing", "_length2"}
    found = [f"ump.py:{node.lineno}" for node in ast.walk(ast.parse(here.read_text(), filename="ump.py"))
             if isinstance(node, ast.Attribute) and node.attr in relations]
    assert found == []
