"""The reach of the command-line runs: the code in src/impulsetree that
tests/equivalence.py's invocations never run.

    python tests/reach.py

Runs, in this one process and under sys.settrace limited to frames of
impulsetree's source files, everything equivalence.invocations() runs:
the import of the package, the preparation of the inputs (the library
solves and the benchmark's prepare_* of perfbench/workloads.py) and every
CLI invocation through cli.main, with its stdout (dump's bytes) and
stderr captured; then one argparse usage error.  Prints each function
that no frame entered and each statement that never ran in a function
that one did (its file, line and source), and a summary line.  Exits 0.

A function is a def; a lambda or comprehension counts with the function
that makes it, its lines with that function's statements.  Module and
class bodies are not counted.  A line counts as run once a frame of its
code object runs it; a code object whose lines have all run is no longer
traced.  The trace must start before the package is imported (import
runs ``record``), so run this file as a script, not from a process that
has imported impulsetree.
"""

import contextlib
import dis
import importlib.util
import inspect
import io
import sys
import tempfile
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent

# Instructions a function runs on entry, before its first statement,
# carrying the def line: no line event reports them.
_PROLOGUE = {"RESUME", "RETURN_GENERATOR", "GEN_START", "POP_TOP", "COPY_FREE_VARS", "MAKE_CELL", "CACHE", "NOP"}
# Functions the compiler writes (from Python 3.14, one per annotated def,
# class and module), run only when something reads the annotations.
_GENERATED = {"__annotate__"}


def _code_objects(code, qualname="", owner=None):
    """(qualified name, code object, owner) of every function, lambda and
    comprehension nested in ``code``, named as __qualname__ names them;
    the owner is the name of the def a lambda or comprehension counts
    with (None for a def)."""
    for const in code.co_consts:
        if not inspect.iscode(const) or const.co_name in _GENERATED:
            continue
        name = f"{qualname}.{const.co_name}" if qualname else const.co_name
        if const.co_flags & inspect.CO_OPTIMIZED:  # a function body, not a class body
            is_def = not const.co_name.startswith("<")
            yield name, const, None if is_def else owner
            yield from _code_objects(const, f"{name}.<locals>", name if is_def else owner)
        else:
            yield from _code_objects(const, name, owner)


def _lines(code) -> "set[int]":
    """The lines of ``code``'s own instructions, less its prologue's."""
    ops = code.co_code
    return {
        line
        for start, end, line in code.co_lines()
        if line is not None and any(dis.opname[ops[i]] not in _PROLOGUE for i in range(start, end, 2))
    }


def package_code() -> "dict[tuple, tuple]":
    """Each code object of the package's functions by (file, first line,
    name): (qualified name with its module, its owner's qualified name or
    None, its lines).  Compiled from the sources, without an import."""
    package = Path(importlib.util.find_spec("impulsetree").origin).parent
    out = {}
    for path in sorted(package.glob("*.py")):
        module = f"impulsetree.{path.stem}"
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        for qualname, fn, owner in _code_objects(code):
            key = (fn.co_filename, fn.co_firstlineno, fn.co_name)
            out[key] = (f"{module}.{qualname}", owner and f"{module}.{owner}", _lines(fn))
    return out


class Tracer:
    """The code objects entered and the lines not yet run, per code object
    of ``code`` (as package_code returns it), while active."""

    def __init__(self, code):
        self.code = code
        self.files = {key[0] for key in code}
        self.todo = {key: set(lines) for key, (_, _, lines) in code.items()}
        self.entered = set()

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename not in self.files:
            return None
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        self.entered.add(key)
        todo = self.todo.get(key)
        if not todo:
            return None

        def line(frame, event, arg):
            if event == "line":
                todo.discard(frame.f_lineno)
            return line if todo else None

        return line

    @contextlib.contextmanager
    def active(self):
        sys.settrace(self._call)
        try:
            yield
        finally:
            sys.settrace(None)

    def unreached(self):
        """(the qualified names of the functions no frame entered, (file,
        line) of each statement that never ran in one that a frame did)."""
        names = {key: name for key, (name, _, _) in self.code.items()}
        entered = {names[key] for key in self.entered if key in names}
        functions = sorted(name for name, owner, _ in self.code.values() if owner is None and name not in entered)
        statements = sorted(
            {
                (key[0], line)
                for key, (name, owner, _) in self.code.items()
                if (owner or name) in entered
                for line in self.todo[key]
            }
        )
        return functions, statements


def _cli(args) -> int:
    """``python -m impulsetree.cli ARGS``'s cli.main(), its output captured."""
    from impulsetree import cli

    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with mock.patch.object(sys, "argv", ["impulsetree", *args]):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main()


def trace() -> Tracer:
    """The tracer of equivalence.invocations() run through cli.main, then
    of one usage error."""
    if "impulsetree" in sys.modules:
        raise RuntimeError("impulsetree is imported already: its import would not be traced")
    for path in (HERE.parent / "perfbench", HERE):
        sys.path.insert(0, str(path))
    tracer = Tracer(package_code())
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp, tracer.active():
        import equivalence  # imports the package inside invocations()

        inputs = Path(tmp) / "inputs"
        inputs.mkdir()
        for i, (_, args) in enumerate(equivalence.invocations(inputs)):
            _cli(args if args[0] == "dump" else [*args, "--out", str(Path(tmp) / str(i))])
        _cli(["no-such-command"])
    return tracer


def main() -> int:
    functions, statements = trace().unreached()
    for name in functions:
        print(f"function never entered: {name}")
    sources = {}
    for path, line in statements:
        text = sources.setdefault(path, Path(path).read_text(encoding="utf-8").splitlines())[line - 1].strip()
        print(f"statement never run: {Path(path).name}:{line}: {text}")
    print(f"{len(functions)} functions never entered, {len(statements)} statements never run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
