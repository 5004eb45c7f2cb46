"""Plain-text instance files.

DIMACS-adjacent, diffable format with 0-based vertex ids:

    c free-form comment
    p chvd <n> <m> <k>
    e <u> <v>
    m <v>
    f <x> <y>

Emission is canonical (comments, header, sorted edges, sorted modulator,
sorted forced pairs), so parse and emit are mutually inverse on canonical
structures.  Parsing is strict and reports line numbers.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph


class InstanceFormatError(ValueError):
    """Malformed instance file; message carries the offending line number."""


@dataclass(frozen=True)
class InstanceFile:
    """Parsed instance: header values plus ordered sections."""

    n: int
    k: int
    edges: tuple[tuple[int, int], ...]
    modulator: tuple[int, ...] = ()
    forced: tuple[tuple[int, int], ...] = ()
    comments: tuple[str, ...] = ()

    def graph(self) -> Graph:
        return Graph(self.n, self.edges)

    @staticmethod
    def from_graph(g: Graph, k: int, modulator=(), forced=(),
                   comments=()) -> "InstanceFile":
        return InstanceFile(
            n=g.n,
            k=k,
            edges=tuple(sorted((min(u, v), max(u, v)) for u, v in g.edges())),
            modulator=tuple(sorted(set(modulator))),
            forced=tuple(sorted({(min(x, y), max(x, y)) for x, y in forced})),
            comments=tuple(comments),
        )


def _fail(lineno: int, message: str):
    raise InstanceFormatError(f"line {lineno}: {message}")


def _ints(lineno: int, parts: list[str], count: int) -> list[int]:
    if len(parts) != count:
        _fail(lineno, f"expected {count} integer fields, got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        _fail(lineno, f"non-integer field in {parts!r}")


def parse(text: str) -> InstanceFile:
    header = None
    edges: list[tuple[int, int]] = []
    modulator: set[int] = set()
    forced: set[tuple[int, int]] = set()
    comments: list[str] = []
    seen_edges: set[tuple[int, int]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tag, *rest = line.split()
        if tag == "c":
            comments.append(line[2:] if len(line) > 2 else "")
        elif tag == "p":
            if header is not None:
                _fail(lineno, "duplicate header")
            if not rest or rest[0] != "chvd":
                _fail(lineno, "header must read 'p chvd <n> <m> <k>'")
            n, m, k = _ints(lineno, rest[1:], 3)
            if n < 0 or m < 0:
                _fail(lineno, "negative size in header")
            if k < 0:
                _fail(lineno, "negative budget in header")
            header = (n, m, k)
        elif tag == "e":
            if header is None:
                _fail(lineno, "edge before header")
            u, v = _ints(lineno, rest, 2)
            if not (0 <= u < header[0] and 0 <= v < header[0]):
                _fail(lineno, f"edge ({u},{v}) outside 0..{header[0] - 1}")
            if u == v:
                _fail(lineno, "self-loop")
            key = (min(u, v), max(u, v))
            if key in seen_edges:
                _fail(lineno, f"duplicate edge ({u},{v})")
            seen_edges.add(key)
            edges.append(key)
        elif tag == "m":
            if header is None:
                _fail(lineno, "modulator line before header")
            (v,) = _ints(lineno, rest, 1)
            if not 0 <= v < header[0]:
                _fail(lineno, f"modulator vertex {v} outside range")
            if v in modulator:
                _fail(lineno, f"duplicate modulator vertex {v}")
            modulator.add(v)
        elif tag == "f":
            if header is None:
                _fail(lineno, "forced pair before header")
            x, y = _ints(lineno, rest, 2)
            if not (0 <= x < header[0] and 0 <= y < header[0]) or x == y:
                _fail(lineno, f"bad forced pair ({x},{y})")
            key = (min(x, y), max(x, y))
            if key in forced:
                _fail(lineno, f"duplicate forced pair ({x},{y})")
            forced.add(key)
        else:
            _fail(lineno, f"unknown line tag {tag!r}")
    if header is None:
        raise InstanceFormatError("line 0: missing 'p chvd' header")
    n, m, k = header
    if len(edges) != m:
        raise InstanceFormatError(
            f"line 0: header promises {m} edges, file has {len(edges)}")
    return InstanceFile(
        n=n,
        k=k,
        edges=tuple(sorted(edges)),
        modulator=tuple(sorted(modulator)),
        forced=tuple(sorted(forced)),
        comments=tuple(comments),
    )


def emit(instance: InstanceFile) -> str:
    lines = [f"c {comment}".rstrip() for comment in instance.comments]
    lines.append(f"p chvd {instance.n} {len(instance.edges)} {instance.k}")
    lines += [f"e {u} {v}" for u, v in sorted(instance.edges)]
    lines += [f"m {v}" for v in sorted(instance.modulator)]
    lines += [f"f {x} {y}" for x, y in sorted(instance.forced)]
    return "\n".join(lines) + "\n"


def emit_solution(vertices, comment: str = "") -> str:
    lines = []
    if comment:
        lines.append(f"c {comment}")
    lines.append(f"s chvd {len(set(vertices))}")
    lines += [f"v {v}" for v in sorted(set(vertices))]
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> frozenset[int]:
    size = None
    vertices: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tag, *rest = line.split()
        if tag == "c":
            continue
        if tag == "s":
            if size is not None:
                _fail(lineno, "duplicate solution header")
            if len(rest) != 2 or rest[0] != "chvd":
                _fail(lineno, "bad solution header")
            (size,) = _ints(lineno, rest[1:], 1)
        elif tag == "v":
            if len(rest) != 1:
                _fail(lineno, "bad vertex line")
            vertices.update(_ints(lineno, rest, 1))
        else:
            _fail(lineno, f"unknown tag {tag!r}")
    if size is not None and size != len(vertices):
        raise InstanceFormatError(
            f"line 0: solution header promises {size} vertices, file has "
            f"{len(vertices)}")
    return frozenset(vertices)
