"""The package's public surface.

Each name has one import path, its submodule: `hyperpd/__init__.py`
binds nothing. Every public function, class, method and class-level
field defined in `src/hyperpd` has a caller in `src/`, `perfbench/` or
`scripts/` outside its own definition, unless `KEEP` names it with a
reason.
Methods and fields are matched by attribute access (`.name`), so a
common word in a comment or in an unrelated identifier does not count
as a use.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hyperpd"
CALLER_DIRS = ("src", "perfbench", "scripts")

KEEP = {
    "colon_by_variable": "the bound engine of ROADMAP item 1 takes (I : x)",
    "add_variable_generator": "the bound engine of ROADMAP item 1 takes (x) + I",
    "pd_monotonicity_check": "acceptance criterion 7 runs it",
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


def _references():
    """(name, is_attribute, path, line) for every use of a name in the
    caller directories."""
    out = []
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
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
    assert set(KEEP) <= defined
