"""Print every statement of ``src/chvd`` that no tier-1 test executes.

    python3 tools/unexecuted_lines.py [pytest arguments]

Runs the tier-1 suite (``tests`` unless pytest arguments are given) in
this process under a ``sys.settrace`` line tracer that watches only the
files of ``src/chvd``, then prints ``file:line statement`` for each line
that holds code but produced no line event, file by file; pytest's
report and a count go to stderr.  The tracer is armed before ``chvd``
is first imported, so module level code counts, and armed again before
each test: a trace function that raises, as a RecursionError inside a
deep search does, is switched off by the interpreter for the rest of
the run.  Standard library and pytest only; the traced run takes
several times as long as a plain one.
Exits with pytest's status.
"""
from __future__ import annotations

import contextlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "chvd"


class LineTracer:
    """The lines executed in the files of one directory, per resolved
    path; also a pytest plugin that arms the tracer again before each
    test's setup."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.executed: dict[Path, set[int]] = {}
        # per id of a code object seen: the code itself, which keeps the
        # id from being reused, and its file's line tracer, or None
        self._seen: dict[int, tuple[object, object]] = {}

    def _lines(self, lines: set[int]):
        def local(frame, event, _arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def _trace(self, frame, _event, _arg):
        code = frame.f_code
        seen = self._seen.get(id(code))
        if seen is None:
            path = Path(code.co_filename).resolve()
            local = None
            if path.parent == self.directory:
                local = self._lines(self.executed.setdefault(path, set()))
            seen = self._seen[id(code)] = (code, local)
        return seen[1]

    def arm(self) -> None:
        sys.settrace(self._trace)

    def pytest_runtest_setup(self, item) -> None:
        self.arm()


def code_lines(path: Path) -> set[int]:
    """The lines of a source file that hold an instruction.  A function's
    or class's first line counts where its definition runs, not as the
    first line of its own code, which produces no line event."""
    lines: set[int] = set()
    stack = [(compile(path.read_text(), str(path), "exec"), True)]
    while stack:
        code, is_module = stack.pop()
        for _, _, line in code.co_lines():
            if line and (is_module or line != code.co_firstlineno):
                lines.add(line)
        stack += [(c, False) for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    tracer = LineTracer(SRC)
    tracer.arm()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(
                argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")],
                plugins=[tracer])
    finally:
        sys.settrace(None)
    total = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        hit = tracer.executed.get(path.resolve(), set())
        for line in sorted(code_lines(path) - hit):
            print(f"{path.relative_to(ROOT)}:{line} {source[line - 1].strip()}")
            total += 1
    print(f"{total} statements unexecuted", file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
