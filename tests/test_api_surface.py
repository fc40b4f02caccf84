"""The package's public surface: every public top-level name in
`src/schurscope`, and every public method of a public class, is used by the
package or the benchmark, or is a kept oracle named below; no public
function takes a cap as a parameter; every defaulted parameter of a public
function is passed by some call in the package or the benchmark, or is
named below; every private top-level function or class of the package is
read by the package; no module of the package or its tests imports a name
it never reads; and the package reads no environment variable but those
named below."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "schurscope").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

# public names that no code in src/ or perfbench/ calls, kept on purpose
ALLOWED_UNREFERENCED = {}

# imports that their own module never reads, kept on purpose
ALLOWED_UNUSED_IMPORTS = {
    "exceptio.orbits_on_pairs":
        "perfbench/tracer.py patches that name to count pair-orbit calls",
    "ramgenus.conjugacy_classes":
        "perfbench/tracer.py reads and patches that name when it installs its "
        "wrappers; the genus-0 search labels the classes on ranks instead",
}

ALLOWED_CAP_PARAMETERS = set()

# environment variables that src/ reads, by name
ALLOWED_ENVIRONMENT = {}

# private top-level functions and classes that no code in src/ reads, kept on
# purpose
ALLOWED_UNREAD_PRIVATE = set()

# defaulted parameters that no call in src/ or perfbench/ passes, kept on
# purpose
ALLOWED_UNPASSED_DEFAULTS = {
    "cli.main.argv": "the tests drive the CLI in-process",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _public_definitions():
    """module.name for every public top-level def and class in src/, and
    module.Class.name for every public method or property of those classes."""
    out = set()
    for path in SRC:
        for node in _parse(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                out.add(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                out |= {f"{path.stem}.{node.name}.{item.name}"
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")}
    return out


def _names_read(node):
    """Every name read as an ast.Name or an ast.Attribute's attr under node,
    except within the def or class of that name."""
    out = set()
    for child in ast.iter_child_nodes(node):
        names = _names_read(child)
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            names.discard(child.name)
        elif isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        out |= names
    return out


def _references():
    """Every name read in src/ and perfbench/, outside its own definition."""
    out = set()
    for path in SRC + BENCH:
        out |= _names_read(_parse(path))
    return out


def test_every_public_name_is_used_or_an_allowed_oracle():
    used = _references()
    unused = {qualified for qualified in _public_definitions()
              if qualified.rsplit(".", 1)[1] not in used}
    assert unused - set(ALLOWED_UNREFERENCED) == set()


def test_allowlist_names_exist_and_are_otherwise_unreferenced():
    defined = _public_definitions()
    used = _references()
    for qualified in ALLOWED_UNREFERENCED:
        assert qualified in defined, qualified
        assert qualified.rsplit(".", 1)[1] not in used, qualified


def test_every_private_helper_is_read_in_src():
    read = set().union(*(_names_read(_parse(path)) for path in SRC))
    unread = {f"{path.stem}.{node.name}" for path in SRC
              for node in _parse(path).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_") and node.name not in read}
    assert unread == ALLOWED_UNREAD_PRIVATE


def _functions(path):
    """(qualified name, node) for the public functions and the public or
    special methods of the public classes of one module."""
    for node in _parse(path).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        else:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                        not item.name.startswith("_")
                        or item.name.startswith("__")):
                    yield f"{node.name}.{item.name}", item


def test_no_public_function_takes_a_cap():
    found = set()
    for path in SRC:
        for name, fn in _functions(path):
            a = fn.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                if arg.arg == "cap" or arg.arg.endswith("_cap"):
                    found.add((path.stem, name, arg.arg))
    assert found == ALLOWED_CAP_PARAMETERS


def _calls():
    """Per called name, the (positional argument count, keyword names) of
    every call in src/ and perfbench/. A call with *args passes every
    positional parameter, and one with **kwargs (keyword None) every
    parameter."""
    out = {}
    for path in SRC + BENCH:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(
                    node.func, "attr", None)
                star = any(isinstance(a, ast.Starred) for a in node.args)
                out.setdefault(name, []).append(
                    (float("inf") if star else len(node.args),
                     {k.arg for k in node.keywords}))
    return out


def test_every_defaulted_parameter_is_passed_by_some_call():
    calls = _calls()
    unpassed = set()
    for path in SRC:
        for name, fn in _functions(path):
            cls, _, method = name.rpartition(".")
            # a call names a class for its __init__, and passes no self
            called = calls.get(cls if method == "__init__" else method, [])
            skip = int(bool(cls) and "staticmethod" not in {
                getattr(d, "id", None) for d in fn.decorator_list})
            a = fn.args
            params = list(enumerate(a.posonlyargs + a.args, -skip))
            defaulted = params[len(params) - len(a.defaults):] + [
                (float("inf"), arg) for arg, default
                in zip(a.kwonlyargs, a.kw_defaults) if default is not None]
            for i, arg in defaulted:
                if not any(n > i or arg.arg in kw or None in kw
                           for n, kw in called):
                    unpassed.add(f"{path.stem}.{name}.{arg.arg}")
    assert unpassed == set(ALLOWED_UNPASSED_DEFAULTS)


def _unused_imports(path):
    """The names that one module binds by an import and never reads."""
    tree = _parse(path)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    return bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_no_unused_imports():
    found = {f"{path.stem}.{name}"
             for path in SRC + TESTS for name in _unused_imports(path)}
    assert found == set(ALLOWED_UNUSED_IMPORTS)


def _environment_reads(tree):
    """The names of the environment variables that one module reads through
    os.environ[...], os.environ.get(...) or os.getenv(...); a read of any
    other shape, or with a key that is not a string literal, as "?"."""
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}

    def key(node):
        return node.value if isinstance(node, ast.Constant) \
            and isinstance(node.value, str) else "?"

    found = set()
    for node in ast.walk(tree):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name not in ("environ", "getenv"):
            continue
        up = parents.get(node)
        if name == "getenv" and isinstance(up, ast.Call) and up.func is node:
            found.add(key(up.args[0]) if up.args else "?")
        elif name == "environ" and isinstance(up, ast.Subscript):
            found.add(key(up.slice))
        elif (name == "environ" and isinstance(up, ast.Attribute)
              and up.attr == "get" and isinstance(parents.get(up), ast.Call)
              and parents[up].args):
            found.add(key(parents[up].args[0]))
        else:
            found.add("?")
    return found


def test_environment_reads_are_allowed():
    found = set().union(*(_environment_reads(_parse(path)) for path in SRC))
    assert found == set(ALLOWED_ENVIRONMENT)


def test_environment_reads_are_found_in_every_shape():
    reads = _environment_reads(ast.parse(
        "import os\nfrom os import environ, getenv\n"
        "os.environ['A']\nos.environ.get('B', '1')\nos.getenv('C')\n"
        "environ['D']\ngetenv('E')\nos.environ.get(name)\n"))
    assert reads == {"A", "B", "C", "D", "E", "?"}
    assert _environment_reads(ast.parse("dict(os.environ)")) == {"?"}
    assert _environment_reads(ast.parse("'X' in os.environ")) == {"?"}
    assert _environment_reads(ast.parse("import os\nos.getcwd()")) == set()
