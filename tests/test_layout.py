"""The package holds what a command runs: every top-level definition in
`src/dickson_mrd` is reached from `cli.main`, from a name of the public API
(`EXPORTS`, which must be the package's `__all__`), or from a function the
benchmark harness wraps (`perfbench/layers.py`).  Test-only routes live in
`tests/reference.py`.

Reachability is read off the source alone (nothing is imported): a reached
definition reaches every module-level name its body refers to, a name
imported from a package module by `from .mod import name` resolves to that
module's definition, and `mod.name` resolves through `from . import mod`.
A reached class reaches everything its methods refer to, and each of its
methods but the dunder ones must be named as an attribute (`.name`)
somewhere in reached code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dickson_mrd"
PLAN_FILE = ROOT / "perfbench" / "layers.py"

# The public API: the field, words and Dickson matrices, the components and
# codes, and the distance and maximality checks.
EXPORTS = {
    "Component", "FieldCtx", "RankCode", "Word", "build_family", "build_gabidulin",
    "dickson", "distance_distribution", "linearity_witness", "make_field",
    "min_distance", "singleton_bound", "verify_mrd",
}


def _top_level_names(stmt):
    """The names a module-level def, class or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _parse_package():
    """Per module: its top-level definitions (name -> node), the names it
    imports from package modules (local name -> key) and the package
    modules it imports whole (local name -> module)."""
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs, names, mods = {}, {}, {}
        for stmt in tree.body:
            for name in _top_level_names(stmt):
                defs[name] = stmt
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        mods[local] = alias.name
                    else:
                        names[local] = (node.module, alias.name)
        modules[path.stem] = (defs, names, mods)
    return modules


def _resolve(modules, module, name):
    """The definition a name bound in `module` refers to, through any
    chain of package imports, or None."""
    while module in modules:
        defs, names, _ = modules[module]
        if name in defs:
            return module, name
        if name not in names:
            return None
        module, name = names[name]
    return None


def _references(modules, module, node):
    _, _, mods = modules[module]
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield _resolve(modules, module, sub.id)
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in mods):
            yield _resolve(modules, mods[sub.value.id], sub.attr)


def _plan_roots():
    """The (module, function) pairs of the harness's PLAN, read as text:
    literal entries, and the `cli.cmd_<command>` entries its comprehension
    builds from CLI_COMMANDS."""
    tree = ast.parse(PLAN_FILE.read_text(encoding="utf-8"))
    consts = {name: stmt.value for stmt in tree.body
              if isinstance(stmt, (ast.Assign, ast.AnnAssign)) for name in _top_level_names(stmt)}
    roots = []
    for node in ast.walk(consts["PLAN"]):
        if not isinstance(node, ast.Tuple) or len(node.elts) != 3:
            continue
        module, func = node.elts[:2]
        if not isinstance(module, ast.Constant):
            continue
        if isinstance(func, ast.Constant):
            roots.append((module.value, func.value))
        elif isinstance(func, ast.JoinedStr):
            prefix = "".join(v.value for v in func.values if isinstance(v, ast.Constant))
            roots += [(module.value, prefix + c) for c in ast.literal_eval(consts["CLI_COMMANDS"])]
    return roots


def _reached(modules):
    """The (module, name) keys of every definition a root reaches."""
    roots = [("cli", "main")] + [("__init__", name) for name in sorted(EXPORTS)] + _plan_roots()
    todo = [key for key in (_resolve(modules, *r) for r in roots) if key]
    assert len(todo) == len(roots), "a root names no definition in the package"
    seen = set()
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        module, name = key
        todo += [k for k in _references(modules, module, modules[module][0][name]) if k]
    return seen


def unreached():
    modules = _parse_package()
    seen = _reached(modules)
    return sorted((module, name) for module, (defs, _, _) in modules.items()
                  for name in defs if not name.startswith("__") and (module, name) not in seen)


def unnamed_methods():
    """Class.method of every non-dunder method of a reached package class
    that no reached code names as an attribute."""
    modules = _parse_package()
    seen = _reached(modules)
    nodes = [modules[module][0][name] for module, name in seen]
    named = {sub.attr for node in nodes for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
    return sorted(f"{node.name}.{item.name}" for node in nodes if isinstance(node, ast.ClassDef)
                  for item in node.body
                  if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not item.name.startswith("__") and item.name not in named)


def test_plan_roots_are_read():
    roots = _plan_roots()
    assert ("linalg", "mat_rank") in roots and ("cli", "cmd_splash") in roots


def test_every_package_definition_is_reached():
    dead = [f"{module}.{name}" for module, name in unreached()]
    assert not dead, "reached by no command, export or benchmark entry: " + ", ".join(dead)


def test_every_package_method_is_named():
    unnamed = unnamed_methods()
    assert not unnamed, "named by no reached code: " + ", ".join(unnamed)


def test_exports_are_the_public_api():
    all_node = _parse_package()["__init__"][0]["__all__"]
    names = set(ast.literal_eval(all_node.value))
    assert names == EXPORTS, f"added {sorted(names - EXPORTS)}, dropped {sorted(EXPORTS - names)}"
