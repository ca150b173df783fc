"""Every function in src/impulsetree is run by the command-line batches of
tests/equivalence.py, but those declared here: a function that only
tests reach is a second, test-only way into the engine.  The trace is
tests/reach.py's, in a fresh interpreter so that it sees the import."""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# The functions no CLI run enters, each kept for its reason.
DECLARED = {
    "impulsetree.impulse.solve_y0": "perfbench/cli_child.py wraps it by name (TRACED): a traced run needs it",
    "impulsetree.impulse.iterate_value": "perfbench/cli_child.py wraps it by name (TRACED): a traced run needs it",
    "impulsetree.strategy.Strategy.decisions": "perfbench/cli_child.py's extract_strategy counter reads it (COUNTERS)",
    "impulsetree.record.record.<locals>.__repr__": "the record protocol: a record's repr, for tests and callers",
    "impulsetree.record.record.<locals>.__eq__": "the record protocol: equality (its hash is a lambda in record)",
    "impulsetree.record._refuse": "the record protocol: a frozen record refuses assignment and deletion",
}


def test_every_function_the_cli_never_enters_is_declared():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(HERE / "reach.py")], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    prefix = "function never entered: "
    unreached = {line[len(prefix) :] for line in proc.stdout.splitlines() if line.startswith(prefix)}
    extra, stale = sorted(unreached - DECLARED.keys()), sorted(DECLARED.keys() - unreached)
    assert not extra, f"only tests reach {extra}: port their tests to the engine's path and delete them"
    assert not stale, f"the CLI now enters {stale}: take them off DECLARED"
