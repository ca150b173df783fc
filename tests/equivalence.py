"""Byte equivalence of two source trees' CLI on the standard batches.

    python tests/equivalence.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the `src` directories of two checkouts.  Every
invocation runs as `python -m impulsetree.cli` once against each tree, in
a fresh directory of its own with the same relative --out.  The script
compares the exit status, stdout, stderr, whether --out exists, and the
sha256 of every output file but timings.json (wall-clock by design).  It
prints each difference and a summary line, and exits 1 if any differ.

The batches: `solve` of impulse seeds 300-324, `solve-combined` of
combined seeds 400-404, with_impulse_chains seeds 300-304 in both modes,
the pinned instance, a single zero impulse (U = [0.0]), the
signed-zero tie configs and combined seeds 400-401 with the u-dependent
exp, min, max and abs of conftest.U_FUNCTIONS, each with and without
`--budget 1`; `eval` of the
strategy the library solves each impulse seed, each with_impulse_chains
impulse seed and the pinned instance to, exactly and by Monte Carlo with
1 and STACK_CELLS + 1 samples; `oracle` with at most 0, 1 and 2
impulses of the pinned instance and impulse seeds 300-304, at depth 4
where theirs is deeper; `dump` of every level of impulse seed 300 and
combined seed 400; `solve` of the pinned instance with a process.sigma
that breaks one parse rule each (ERROR_SIGMAS), and of configs whose
coefficients fail to evaluate in the tree build, the impulse audit and
the combined audit; `snell` of
payoffs whose envelope ties the payoff as zeros of opposite sign, and of
a depth-0 payoff; `eval` and `snell` of corrupted copies of a depth-11
Baseline strategy and drawdown payoff (CORRUPTIONS: a duplicated, a
dropped and an off-path row, a quoted field past the first 32 kB, a
non-finite value and a row more than a full tree holds); then the
benchmark's invocations
(perfbench/workloads.py) for seeds 1 and 2.  Their inputs are made once,
by the library of NEW_SRC.

The file name does not match pytest's default `test_*.py` pattern, so
the default test run does not collect it.
"""

import copy
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _configs():
    """(label, config) of every solve batch."""
    from conftest import PINNED_CONFIG, SIGNED_ZERO_TIES, random_combined_config, random_impulse_config
    from conftest import U_FUNCTIONS, with_impulse_chains, with_u_functions

    zero = copy.deepcopy(PINNED_CONFIG)
    zero["process"]["sigma"] = "0.3"
    zero["impulse"].update(U=[0.0], psi={"0.0": 0.3})
    zero["numerics"]["depth"] = 3
    yield from ((f"impulse-{s}", random_impulse_config(s)) for s in range(300, 325))
    yield from ((f"combined-{s}", random_combined_config(s)) for s in range(400, 405))
    yield from ((f"impulse-chains-{s}", with_impulse_chains(random_impulse_config(s), s)) for s in range(300, 305))
    yield from ((f"combined-chains-{s}", with_impulse_chains(random_combined_config(s), s)) for s in range(300, 305))
    yield "pinned", PINNED_CONFIG
    yield "zero-impulse", zero
    yield from ((f"signed-zero-{name}", config) for name, config in SIGNED_ZERO_TIES.items())
    for name in U_FUNCTIONS:
        yield from ((f"combined-{name}-{s}", with_u_functions(random_combined_config(s), name)) for s in (400, 401))


# Sources that break one rule of the expression parser each.
ERROR_SIGMAS = ["0.3 $ x", "(x", "x )", "foo(x)", "min(x)", "exp", "y", "x +"]


def _error_configs():
    """(label, config) of configs that fail to parse or evaluate: sigma in
    the tree build (exit 1), the reward in the audit and the controlled
    drift in a combined audit (exit 2)."""
    from conftest import PINNED_CONFIG, random_combined_config

    process, impulse = PINNED_CONFIG["process"], PINNED_CONFIG["impulse"]
    for i, sigma in enumerate(ERROR_SIGMAS):
        yield f"parse-error-{i}", {**PINNED_CONFIG, "process": {**process, "sigma": sigma}}
    yield "sigma-fails", {**PINNED_CONFIG, "process": {**process, "sigma": "1/(x - x)"}}
    yield "reward-fails", {**PINNED_CONFIG, "impulse": {**impulse, "h": "1/(x - x)"}}
    combined = random_combined_config(400)
    yield "drift-fails", {**combined, "control": {**combined["control"], "f": "1/(u - u)"}}


# Payoff levels for `snell`: signed-zero ties between payoff and
# continuation, at the root and on every level, and a lone root.
SNELL_PAYOFFS = {
    "tie-negative-payoff": [[-0.0], [0.0, 0.0]],
    "tie-negative-continuation": [[0.0], [-0.0, -0.0]],
    "tie-zeros-3": [[0.0 if (i * 5 + k) % 3 == 0 else -0.0 for i in range(2**k)] for k in range(4)],
    "depth-0": [[-0.0]],
}


def _strategy_csv(path: Path, config: dict) -> Path:
    """The strategy the library solves ``config`` to, as a CSV at ``path``."""
    from impulsetree import build_tree, extract_strategy, load_config, value_iteration
    from impulsetree.csvio import write_strategy_csv

    loaded = load_config(config)
    tree = build_tree(loaded.process, loaded.numerics.depth)
    result = value_iteration(tree, loaded.impulse, tol=loaded.numerics.tol)
    write_strategy_csv(path, extract_strategy(result.fields, tree, loaded.impulse, tol=loaded.numerics.tol))
    return path


def _quote(line: str) -> str:
    """A CSV line with its third field quoted (the same value to the csv module)."""
    fields = line.split(",")
    return ",".join([*fields[:2], f'"{fields[2]}"', *fields[3:]])


def _shift(line: str) -> str:
    """A strategy line with its state_cum moved off the strategy's path."""
    fields = line.split(",")
    return ",".join([*fields[:2], repr(float(fields[2]) + 0.5), *fields[3:]])


# Row AT of a CSV lies past its first 32 kB (the readers' first chunk).
AT = 2000
# Corruptions of a CSV's lines, each for the files it is named for.
CORRUPTIONS = {
    "duplicate": (("strategy", "payoff"), lambda lines: lines[: AT + 1] + lines[AT:]),
    "drop": (("strategy", "payoff"), lambda lines: lines[:AT] + lines[AT + 1 :]),
    "quoted": (("strategy", "payoff"), lambda lines: lines[:AT] + [_quote(lines[AT])] + lines[AT + 1 :]),
    "off-path": (("strategy",), lambda lines: lines[:AT] + [_shift(lines[AT])] + lines[AT + 1 :]),
    "non-finite": (("payoff",), lambda lines: lines[:AT] + [lines[AT].rsplit(",", 1)[0] + ",inf"] + lines[AT + 1 :]),
    "extra-row": (("payoff",), lambda lines: lines + ["12,0,0.5"]),
}


def _corrupted(inputs: Path):
    """(label, arguments) of `eval` and `snell` on each of CORRUPTIONS of a
    depth-11 Baseline strategy and drawdown payoff."""
    import numpy as np

    from impulsetree import build_tree, load_config
    from memory_deep import BASELINE

    raw = {**BASELINE, "numerics": {**BASELINE["numerics"], "depth": 11}}
    config = inputs / "baseline-11.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    tree = build_tree(load_config(raw).process, 11)
    payoff = [np.maximum(tree.running_max[k] - tree.state[k] - 0.1 * tree.times[k], 0.0).tolist() for k in range(12)]
    files = {
        "strategy": _strategy_csv(inputs / "baseline-11-strategy.csv", raw).read_text(encoding="utf-8").splitlines(),
        "payoff": ["level,index,value"] + [f"{k},{i},{v!r}" for k, vs in enumerate(payoff) for i, v in enumerate(vs)],
    }
    for name, (kinds, corrupt) in CORRUPTIONS.items():
        for kind in kinds:
            path = inputs / f"{kind}-{name}.csv"
            path.write_text("\r\n".join(corrupt(files[kind])) + "\r\n", encoding="utf-8")
            if kind == "strategy":
                yield f"eval-{name}", ["eval", "--config", str(config), "--strategy", str(path)]
            else:
                yield f"snell-{name}", ["snell", "--payoff", str(path)]


def invocations(inputs: Path):
    """(label, CLI arguments without --out) of every invocation."""
    from impulsetree.tree import STACK_CELLS

    for label, config in _configs():
        path = inputs / f"{label}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        command = "solve" if config["control"] is None else "solve-combined"
        yield label, [command, "--config", str(path)]
        yield f"{label}-budget-1", [command, "--config", str(path), "--budget", "1"]
        if label.startswith("impulse-") or label == "pinned":
            strategy = _strategy_csv(inputs / f"{label}-strategy.csv", config)
            eval_args = ["eval", "--config", str(path), "--strategy", str(strategy)]
            yield f"{label}-eval", eval_args
            for samples in (1, STACK_CELLS + 1):
                yield f"{label}-eval-mc-{samples}", eval_args + ["--mc-samples", str(samples), "--seed", "7"]
        if label in ("pinned", *(f"impulse-{s}" for s in range(300, 305))):
            depth = str(min(config["numerics"]["depth"], 4))
            for most in (0, 1, 2):
                yield f"{label}-oracle-{most}", ["oracle", "--config", str(path), "--depth", depth, "--max-impulses", str(most)]
        if label in ("impulse-300", "combined-400"):
            for level in range(config["numerics"]["depth"] + 1):
                yield f"{label}-dump-{level}", ["dump", "--config", str(path), "--level", str(level)]

    for label, config in _error_configs():
        path = inputs / f"{label}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        yield label, ["solve" if config["control"] is None else "solve-combined", "--config", str(path)]

    for label, levels in SNELL_PAYOFFS.items():
        path = inputs / f"snell-{label}.csv"
        rows = (f"{k},{i},{v!r}\n" for k, level in enumerate(levels) for i, v in enumerate(level))
        path.write_text("level,index,value\n" + "".join(rows), encoding="utf-8")
        yield f"snell-{label}", ["snell", "--payoff", str(path)]

    yield from _corrupted(inputs)

    sys.path.insert(0, str(HERE.parent / "perfbench"))
    import workloads

    for seed in (1, 2):
        for name, prepare in workloads.PREPARE.items():
            seed_dir = inputs / f"{name}-{seed}"
            seed_dir.mkdir()
            for inv in prepare(seed_dir, workloads.seed_params(seed), workloads.FULL).invocations:
                yield f"{name}-{seed}-{inv.label}", inv.args


def run_cli(src: Path, args, cwd: Path) -> dict:
    """One invocation with ``src`` on PYTHONPATH; what the comparison reads."""
    cwd.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    out_args = [] if args[0] == "dump" else ["--out", "out"]  # dump writes its level to stdout
    proc = subprocess.run(
        [sys.executable, "-m", "impulsetree.cli", *args, *out_args],
        cwd=cwd, env=env, capture_output=True, timeout=600,
    )
    out = cwd / "out"
    files = {}
    if out.is_dir():
        for path in sorted(out.iterdir()):
            if path.name != "timings.json":
                files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {
        "exit status": proc.returncode,
        "stdout": proc.stdout,
        "stderr": proc.stderr,
        "--out exists": out.exists(),
        "outputs": files,
    }


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old_src, new_src = (Path(a).resolve() for a in argv)
    sys.path[:0] = [str(new_src), str(HERE)]
    differing = total = 0
    with tempfile.TemporaryDirectory(prefix="equivalence-") as tmp:
        inputs = Path(tmp) / "inputs"
        inputs.mkdir()
        for i, (label, args) in enumerate(invocations(inputs)):
            old = run_cli(old_src, args, Path(tmp) / "old" / str(i))
            new = run_cli(new_src, args, Path(tmp) / "new" / str(i))
            total += 1
            diffs = [key for key in old if old[key] != new[key]]
            if diffs:
                differing += 1
                print(f"DIFFERS {label}: {', '.join(diffs)}")
                for key in diffs:
                    print(f"  old {key}: {old[key]!r}\n  new {key}: {new[key]!r}")
    print(f"{differing} of {total} invocations differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
