"""Run one impulsetree CLI invocation and write, as JSON, the process's
peak RSS and, when traced, a span around every call of the library's
layer functions.

    python3 perfbench/cli_child.py REPORT.json 0 <impulsetree CLI arguments>   # untraced
    python3 perfbench/cli_child.py REPORT.json 1 <impulsetree CLI arguments>   # traced

The peak RSS is VmHWM of this process's own address space, read from
/proc/self/status at exit.  The parent's wait4 ru_maxrss cannot serve:
Linux carries the parent's high-water mark into the child across exec.

Traced, each function in TRACED is replaced by a timing wrapper in every
`impulsetree` module that binds it by name (`cli` and `combined` import
`build_tree`, `obstacle` and the others directly), so calls through any
import path are seen.  Spans stay in memory until the invocation ends.
The exit status is the CLI's.
"""

import functools
import json
import sys
import time

import impulsetree.cli

TRACED = {
    "impulsetree.cli": ["run"],
    "impulsetree.tree": ["build_tree"],
    "impulsetree.model": ["validate_model"],
    "impulsetree.expr": ["eval_expr"],
    "impulsetree.impulse": [
        "reward_tables",
        "solve_y0",
        "obstacle",
        "iterate_value",
        "value_iteration",
        "extract_strategy",
    ],
    "impulsetree.combined": ["driver_tables", "combined_value_iteration", "extract_pair"],
    "impulsetree.evaluate": [
        "walk_strategy_states",
        "evaluate_strategy_exact",
        "evaluate_pair",
        "impulse_count_distribution",
        "mc_evaluate_strategy",
    ],
    "impulsetree.snell": ["snell_envelope"],
}


def _value_iteration_counts(bound, result):
    return {
        "states": len(result.states),
        "iterations": len(result.fields) - 1,
        "cells": sum(v.size for f in result.fields for v in f.values),
    }


def _combined_counts(bound, result):
    # Candidate cells of the Hamiltonian max: every non-terminal node and
    # state, for each control, in each backward sweep.
    n_controls = len(bound.arguments["spec"].grid.controls)
    return {"hmax_cells": n_controls * sum(v.size for f in result.fields for v in f.values[:-1])}


COUNTERS = {
    "validate_model": lambda bound, report: {"states": report.states_checked},
    "value_iteration": _value_iteration_counts,
    "combined_value_iteration": _combined_counts,
    "extract_strategy": lambda bound, strategy: {"decisions": len(strategy.decisions)},
}


class Tracer:
    """In-memory spans: (function, parent span index or -1, start, end,
    counts or None), in the order the calls started."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        import inspect  # here, so that an untraced child does not import it

        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_spans.pop()
                spans[idx] = (name, parent, start, end, None)
            if counter is not None:
                spans[idx] = (name, parent, start, end, counter(signature.bind(*args, **kwargs), out))
            return out

        return traced

    def install(self):
        """Replace each traced function wherever an impulsetree module
        binds it."""
        modules = [m for n, m in sys.modules.items() if n == "impulsetree" or n.startswith("impulsetree.")]
        for module_name, names in TRACED.items():
            module = sys.modules[module_name]
            for name in names:
                original = getattr(module, name)
                wrapped = self.wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)


def peak_rss_bytes() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    report_path, traced, cli_args = argv[0], argv[1] == "1", argv[2:]
    tracer = Tracer()
    if traced:
        tracer.install()
    try:
        return impulsetree.cli.run(cli_args)
    finally:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump({"peak_rss_bytes": peak_rss_bytes(), "spans": tracer.spans if traced else None}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
