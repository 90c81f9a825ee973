"""Source guards: the broadcast-or-shuffle decision, the fallback join
partition count and the per-window memory probe each have one rule in
the package, and no function takes an option that overrides it."""

import ast
from pathlib import Path

import pystreamfs_ray

PKG = Path(pystreamfs_ray.__file__).parent
DELETED_OPTIONS = {"broadcast_threshold", "driver_threshold", "mem_probe_every"}


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
