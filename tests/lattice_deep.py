"""The lattice checks of test_lattice.py at depth 16, where a tree solve
takes about a second, and the impulse and combined ones at depth 18, the
deepest the desk-scale solver aims at (about 7 s for all six on a 2-CPU
host).  The file name does not match pytest's default `test_*.py`
pattern, so the default test run does not collect it; run it with

    PYTHONPATH=src python -m pytest tests/lattice_deep.py
"""

from test_lattice import (
    BASELINE,
    GRID_5,
    RUNNING_MAX,
    check_against_lattice,
    combined_config,
    running_max_combined_config,
    running_max_lattice,
)


def test_impulse_tree_matches_the_lattice_at_depth_16():
    check_against_lattice({**BASELINE, "numerics": {**BASELINE["numerics"], "depth": 16}})


def test_combined_tree_matches_the_lattice_at_depth_16():
    check_against_lattice(combined_config(16, [-1.0, 0.0, 1.0]))


def test_impulse_tree_matches_the_running_max_lattice_at_depth_16():
    check_against_lattice({**RUNNING_MAX, "numerics": {**RUNNING_MAX["numerics"], "depth": 16}}, running_max_lattice)


def test_combined_tree_matches_the_running_max_lattice_at_depth_16():
    check_against_lattice(running_max_combined_config(16, GRID_5), running_max_lattice)


def test_impulse_tree_matches_the_lattice_at_depth_18():
    check_against_lattice({**BASELINE, "numerics": {**BASELINE["numerics"], "depth": 18}})


def test_combined_tree_matches_the_lattice_at_depth_18():
    check_against_lattice(combined_config(18, [-1.0, 0.0, 1.0]))
