"""The package's public surface and its module boundaries."""
import ast
from pathlib import Path

import chvd

SRC = Path(__file__).resolve().parent.parent / "src" / "chvd"
RENUMBERING = {"induced_subgraph", "delete_vertices", "Subgraph", "old_of",
               "to_parent", "to_sub"}


def test_every_export_resolves():
    missing = [name for name in chvd.__all__ if not hasattr(chvd, name)]
    assert not missing
    assert len(set(chvd.__all__)) == len(chvd.__all__)


def test_multicut_has_one_instance_type():
    """The multicut LP and the instance the engines cut are one class;
    MulticutProblem is a second name for it."""
    assert chvd.MulticutProblem is chvd.MulticutInstance
    assert chvd.lp.MulticutProblem is chvd.multicut.MulticutInstance


def test_only_kernel_events_renumber_vertices():
    """Renumbered copies and their id maps live in graphs.py, and only
    kernel.py, which applies reduction events, uses them; every other
    module works on the caller's graph restricted to a vertex set."""
    users = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:
                continue
            if names & RENUMBERING:
                users.add(path.name)
    assert users - {"graphs.py", "kernel.py"} == set()


def test_no_module_imports_another_modules_private_names():
    """A name with a leading underscore stays inside its own module."""
    borrowed = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").startswith("chvd")):
                borrowed += [(path.name, alias.name) for alias in node.names
                             if alias.name.startswith("_")]
    assert borrowed == []
