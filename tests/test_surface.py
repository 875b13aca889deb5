"""The package's public surface.

Each name has one import path, its submodule: `hyperpd/__init__.py`
binds nothing. Every public function, class, method and class-level
field defined in `src/hyperpd` has a caller in `src/`, `perfbench/` or
`scripts/` outside its own definition, unless `KEEP` names it with a
reason.
Methods and fields are matched by attribute access (`.name`), so a
common word in a comment or in an unrelated identifier does not count
as a use.

Every parameter with a default on such a function or method, or on a
public class's `__init__`, is passed, by keyword or by position, by
some call in those directories, unless `KEEP` names it, as
"function(parameter)", with a reason: a knob that only tests turn is
test-only API.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hyperpd"
CALLER_DIRS = ("src", "perfbench", "scripts")

KEEP = {
    "replay_trace": "README shows how to replay a trace file",
    "from_jsonl": "README shows how to read a trace file back for replay",
}


def _definitions():
    """(name, is_member, path, first line, last line) per public
    function, class, method and class-level field."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                out.append((node.name, False, path, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign):
                        name = item.target.id
                    elif isinstance(item, ast.FunctionDef):
                        name = item.name
                    else:
                        continue
                    if not name.startswith("_"):
                        out.append((name, True, path, item.lineno, item.end_lineno))
    return out


def _caller_trees():
    """(path, syntax tree) per Python file in the caller directories,
    tests excluded."""
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" not in path.relative_to(ROOT).parts:
                yield path, ast.parse(path.read_text())


def _references():
    """(name, is_attribute, path, line) for every use of a name in the
    caller directories."""
    out = []
    for path, tree in _caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.append((node.id, False, path, node.lineno))
            elif isinstance(node, ast.alias):
                out.append((node.name, False, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, True, path, node.lineno))
    return out


def test_package_binds_no_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    body = tree.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    assert body == [], "import each name from its submodule, not from the package"


def test_every_public_name_has_a_caller():
    refs = _references()
    unused = []
    for name, is_member, path, first, last in _definitions():
        if name in KEEP:
            continue
        called = any(
            ref == name
            and (is_attr or not is_member)
            and not (ref_path == path and first <= line <= last)
            for ref, is_attr, ref_path, line in refs
        )
        if not called:
            unused.append(f"{path.name}: {name}")
    assert not unused, f"no caller outside tests/: {unused}"


def test_keep_list_names_exist():
    defined = {name for name, *_ in _definitions()}
    defined |= {f"{callee}({param})" for callee, param, *_ in _defaulted_parameters()}
    assert set(KEEP) <= defined


def _defaulted_parameters():
    """(callee, parameter, position, path, first line, last line) per
    parameter with a default. `callee` is the name a call uses: the
    function or method, or the class for `__init__`; `position` counts
    the call's positional arguments, None for a keyword-only one."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                functions = [(node.name, node, 0)]
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                functions = [
                    (node.name if item.name == "__init__" else item.name, item, 1)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and (item.name == "__init__" or not item.name.startswith("_"))
                ]
            else:
                continue
            for callee, fn, skip in functions:
                positional = fn.args.posonlyargs + fn.args.args
                first_default = len(positional) - len(fn.args.defaults)
                for i, arg in enumerate(positional[first_default:], start=first_default):
                    out.append((callee, arg.arg, i - skip, path, fn.lineno, fn.end_lineno))
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                    if default is not None:
                        out.append((callee, arg.arg, None, path, fn.lineno, fn.end_lineno))
    return out


def _calls():
    """(callee, positional count, keyword names, path, line) per call in
    the caller directories; a starred argument passes every position
    and a double-starred one every keyword."""
    out = []
    for path, tree in _caller_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            count = float("inf") if starred else len(node.args)
            keywords = {k.arg for k in node.keywords}
            out.append((name, count, keywords, path, node.lineno))
    return out


def test_every_defaulted_parameter_is_passed():
    calls = _calls()
    unpassed = []
    for callee, param, position, path, first, last in _defaulted_parameters():
        key = f"{callee}({param})"
        if key in KEEP:
            continue
        passed = any(
            name == callee
            and (param in keywords or None in keywords
                 or (position is not None and position < count))
            and not (call_path == path and first <= line <= last)
            for name, count, keywords, call_path, line in calls
        )
        if not passed:
            unpassed.append(f"{path.name}: {key}")
    assert not unpassed, f"passed only by tests, if at all: {unpassed}"
