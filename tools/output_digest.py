"""Print one SHA-256 prefix per benchmark workload over its task outputs.

    python3 tools/output_digest.py --seed 601

Each workload's tasks are built by ``perfbench/workloads.py`` at the given
seed, exactly as the benchmark builds them, and each task is called once.
The digest covers, task by task, the task's label and its output in a
normal form: graphs as their vertex count and sorted edge (or arc) list,
sets sorted, dataclasses as their type name and field list, floats by
``repr``.  Two checkouts whose digests agree at a seed gave byte-identical
outputs on every task of that seed.  ``chvd`` is imported from the
``src`` directory of the checkout this file sits in.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import chvd  # noqa: E402
import workloads  # noqa: E402


def normal(value):
    """A repr-stable form of one output, independent of set order."""
    if isinstance(value, chvd.Graph):
        return ["Graph", value.n, sorted(value.edges())]
    if isinstance(value, chvd.DiGraph):
        return ["DiGraph", value.n, sorted(value.arcs())]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [type(value).__name__,
                [[f.name, normal(getattr(value, f.name))]
                 for f in dataclasses.fields(value)]]
    if isinstance(value, (set, frozenset)):
        return _sorted(normal(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [normal(v) for v in value]
    if isinstance(value, dict):
        return _sorted([normal(k), normal(v)] for k, v in value.items())
    if isinstance(value, (int, str)) or value is None:
        return value
    return repr(value)


def _sorted(items):
    """Items in ascending order, or by repr where they do not compare."""
    items = list(items)
    try:
        return sorted(items)
    except TypeError:
        return sorted(items, key=repr)


def digest(name: str, seed: int) -> str:
    """SHA-256 over each task's label and normalised output, in order."""
    h = hashlib.sha256()
    for task in workloads.build(name, seed).tasks:
        h.update(task.label.encode())
        h.update(b"\0")
        h.update(repr(normal(task.call())).encode())
        h.update(b"\n")
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    for name in workloads.WORKLOADS:
        print(f"{name} {digest(name, args.seed)[:16]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
