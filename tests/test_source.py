"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bigtangent"


def _bound_names(tree: ast.Module, lines: list) -> dict:
    """Names bound by the module's imports, each with its line, except
    ``__future__`` imports and lines marked ``# noqa: F401``."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            # an alias can sit on a continuation line of the statement
            marked = {lines[node.lineno - 1], lines[alias.lineno - 1]}
            if any("# noqa: F401" in line for line in marked):
                continue
            name = alias.asname or alias.name.split(".")[0]
            out[name] = alias.lineno
    return out


def _read_names(tree: ast.Module) -> set:
    """Names the module reads: every ``Name`` node (the root of an
    attribute chain is one), every name inside a string annotation, and
    the names a module-level ``__all__`` exports."""
    read = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                parsed = ast.parse(sub.value, mode="eval")
                read |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return read


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    text = path.read_text()
    tree = ast.parse(text)
    read = _read_names(tree)
    unused = {
        name: line
        for name, line in _bound_names(tree, text.splitlines()).items()
        if name not in read
    }
    assert not unused, f"{path.name}: imported but never read: {unused}"


# Accessors on product classes that tests read and no package code does.
# Methods named like ``__getitem__`` are called by syntax, which a name
# scan cannot see, so every such dunder is exempt as well.
READ_ONLY_BY_TESTS = {"Report.to_json", "Report.max_residual", "TensorField.max_abs"}


def _attributes(cls: ast.ClassDef) -> dict:
    """Name -> line of each dataclass field of the class (an annotated name
    in its body) and of each attribute its methods set on ``self``."""
    out = {}
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.setdefault(node.target.id, node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    out.setdefault(sub.attr, sub.lineno)
    return out


def test_every_definition_is_read():
    """Every function, method and class defined in the package is read by
    name somewhere in the package, and so is every dataclass field and
    instance attribute, which counts as read only where it is loaded
    (``obj.name``), not where it is set; so none is reached from tests
    alone.

    Names are matched bare, not by owner: a definition counts as read when
    any package code reads the same name on anything, so a method or
    property that shares its name with one the package reads elsewhere
    (a ``DoubleField.value`` beside ``ScalarField.value()``, say)
    passes unread.  Such a pair needs a look by hand."""
    defined, attributes, read, loaded = {}, {}, set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read |= _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
        scopes = [(tree, "")]
        while scopes:
            scope, prefix = scopes.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.setdefault(prefix + node.name, f"{path.name}:{node.lineno}")
                    scopes.append((node, prefix + node.name + "."))
                else:
                    scopes.append((node, prefix))
                if isinstance(node, ast.ClassDef):
                    for name, line in _attributes(node).items():
                        attributes.setdefault(f"{prefix}{node.name}.{name}", f"{path.name}:{line}")
    unread = {
        qualname: where
        for table, names in ((defined, read), (attributes, loaded))
        for qualname, where in table.items()
        if (name := qualname.rsplit(".", 1)[-1]) not in names
        and not (name.startswith("__") and name.endswith("__"))
    }
    assert set(unread) == READ_ONLY_BY_TESTS, f"defined but never read in src/: {unread}"


# Options no call in src/ passes, each with the reason it stays.
OPTIONS_WITHOUT_A_SRC_CALLER = {
    "adapted_frame.a_seed": "tests build a frame from chosen a_i columns, not from ker S",
    "integrability_check.test_functions": "a test shows the check fails on a chosen function",
    "main.argv": "the console entry point calls main() with no argument; tests pass argv",
}


def _options(tree: ast.Module) -> list:
    """(callable name, parameter, position) of every parameter with a
    default.  The callable name of ``__init__`` is its class's; the
    position counts the positional arguments a call passes (not ``self``)
    and is None for a keyword-only parameter."""
    out = []
    scopes = [(tree, None)]
    while scopes:
        scope, cls = scopes.pop()
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, ast.ClassDef):
                scopes.append((node, node.name))
                continue
            scopes.append((node, None))
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            bound = cls is not None and not static
            name = cls if bound and node.name == "__init__" else node.name
            first = len(positional) - len(args.defaults)
            for i in range(first, len(positional)):
                out.append((name, positional[i].arg, i - bound))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out.append((name, arg.arg, None))
    return out


def test_every_option_has_a_caller():
    """Every parameter with a default is passed, by keyword or by
    position, by some call in the package to a callable of its name, so
    no option is set by tests alone unless it is listed above."""
    options, calls = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        options += _options(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                npos = float("inf") if starred else len(node.args)
                calls.setdefault(name, []).append((npos, {k.arg for k in node.keywords}))
    uncalled = {
        f"{name}.{param}"
        for name, param, pos in options
        if not any(
            param in kws or None in kws or (pos is not None and npos > pos)
            for npos, kws in calls.get(name, ())
        )
    }
    assert uncalled == set(OPTIONS_WITHOUT_A_SRC_CALLER), f"options no src/ call passes: {uncalled}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name(path):
    """A module imports no ``_name`` of another module of the package: a
    name another module needs is public."""
    private = [
        (alias.name, node.lineno)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("bigtangent"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert not private, f"{path.name} imports private names: {private}"
