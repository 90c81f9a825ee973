"""Source guards: the broadcast-or-shuffle decision, the fallback join
partition count, the per-window memory probe, the combiner → Sum
reduce and the prequential evaluators' feature gather each have one
rule in the package, no function takes an option that overrides one,
and no module imports a name it never uses."""

import ast
from pathlib import Path

import pystreamfs_ray

PKG = Path(pystreamfs_ray.__file__).parent
ENTRY = PKG.parent / "__ray_entry__.py"
DELETED_OPTIONS = {"broadcast_threshold", "driver_threshold", "mem_probe_every"}
SUMS = {"Sum", "_Sum"}


def _modules():
    for path in sorted(PKG.rglob("*.py")):
        yield path.relative_to(PKG).as_posix(), ast.parse(path.read_text())


def test_no_function_takes_a_deleted_option():
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
                found += [f"{name}:{node.lineno} {p}"
                          for p in sorted(params & DELETED_OPTIONS)]
    assert found == []


def test_cluster_resources_only_in_util():
    users = set()
    for name, tree in _modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr == "cluster_resources"
                    or isinstance(node, ast.Name)
                    and node.id == "cluster_resources"
                    or isinstance(node, ast.alias)
                    and node.name == "cluster_resources"):
                users.add(name)
    assert users == {"util.py"}


def _method_call(node, method):
    """The receiver of ``<receiver>.method(...)``, else None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == method):
        return node.func.value
    return None


def _is_sum(arg):
    if isinstance(arg, ast.Starred):
        comp = arg.value
        return (isinstance(comp, (ast.ListComp, ast.GeneratorExp))
                and _is_sum(comp.elt))
    return (isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
            and arg.func.id in SUMS)


def test_combiner_sum_chain_only_in_util():
    """``map_batches(arrow_combiner(...)).groupby(...).aggregate(Sum...)``
    with only ``Sum`` reduces is ``util.combine_sum``; write it nowhere
    else."""
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            grouped = _method_call(node, "aggregate")
            combined = _method_call(grouped, "groupby")
            if (_method_call(combined, "map_batches") is None
                    or not node.args or not all(map(_is_sum, node.args))):
                continue
            first = combined.args[0] if combined.args else None
            if (isinstance(first, ast.Call)
                    and isinstance(first.func, ast.Name)
                    and first.func.id == "arrow_combiner"):
                found.append(f"{name}:{node.lineno}")
    assert [f for f in found if not f.startswith("util.py:")] == []


def _names_used(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        # quoted annotations ("pd.DataFrame") reference names too
        notes = []
        if isinstance(node, ast.arg):
            notes.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
        for note in filter(None, notes):
            for c in ast.walk(note):
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    used |= _names_used(ast.parse(c.value, mode="eval"))
    return used


def _own_imports(scope):
    """Imports that bind in ``scope`` itself, not in a nested def."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def test_no_unused_imports():
    """An import is unused when nothing in its scope (the module for a
    top-level import, the function for a local one) reads the name it
    binds. ``# noqa`` on the import marks a deliberate re-export."""
    paths = sorted(PKG.rglob("*.py")) + [ENTRY]
    found = []
    for path in paths:
        src = path.read_text()
        lines = src.splitlines()
        tree = ast.parse(src)
        scopes = [tree] + [n for n in ast.walk(tree) if isinstance(
            n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for scope in scopes:
            used = _names_used(scope)
            for imp in _own_imports(scope):
                if (isinstance(imp, ast.ImportFrom)
                        and imp.module == "__future__"
                        or any("noqa" in line for line in
                               lines[imp.lineno - 1:imp.end_lineno])):
                    continue
                for alias in imp.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name != "*" and bound not in used:
                        found.append(f"{path.relative_to(PKG.parent)}:"
                                     f"{imp.lineno} {bound}")
    assert found == []


EVALUATORS = {"stages/selector.py", "oracle.py", "stages/evaluate.py"}


def _column_gather(node):
    """``<x>[:, <expr>]`` read with a computed column index."""
    if not (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
            and isinstance(node.slice, ast.Tuple)
            and len(node.slice.elts) == 2):
        return False
    rows, cols = node.slice.elts
    return (isinstance(rows, ast.Slice)
            and rows.lower is rows.upper is rows.step is None
            and not isinstance(cols, (ast.Slice, ast.Constant)))


def test_evaluators_gather_only_through_gather_selected():
    """The three prequential evaluators fit their models on
    ``models.gather_selected`` (ascending columns) and gather columns no
    other way, so they cannot drift apart on column order again."""
    found, callers = [], set()
    for name, tree in _modules():
        for node in ast.walk(tree):
            if name in EVALUATORS and _column_gather(node):
                found.append(f"{name}:{node.lineno}")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "gather_selected"):
                callers.add(name)
    assert found == []
    assert callers == EVALUATORS
