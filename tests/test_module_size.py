from pathlib import Path

import pytest

import impulsetree

# Without a bytecode cache, a run's peak RSS follows the largest module it
# compiles, so the benchmark's peak_rss_mb moves with this cap.
MODULE_LINE_CAP = 393
MODULES = sorted(Path(impulsetree.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_exceeds_the_line_cap(path):
    lines = len(path.read_text(encoding="utf-8").splitlines())
    assert lines <= MODULE_LINE_CAP, (
        f"impulsetree/{path.name} has {lines} lines, over the {MODULE_LINE_CAP}-line cap. peak_rss_mb follows "
        "the largest module compiled without a bytecode cache: raising the cap needs a measured peak_rss_mb "
        "comparison, declared in CHANGES.md"
    )
