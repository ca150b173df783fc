"""Time each CSV writer and reader of two source trees, and the import of
their CLI, one fresh process per run.

    python tests/writer_timing.py OLD_SRC NEW_SRC [RUNS]

OLD_SRC and NEW_SRC are the `src` directories of two checkouts.  The
writers and what they write, all from the benchmark's seed-1 inputs
(perfbench/workloads.py at its full sizes, made once by the library of
NEW_SRC, as tests/equivalence.py makes them):

- values:   write_values_csv of the solve-d11 config (depth 11);
- strategy: write_strategy_csv of its extracted strategy;
- controls: write_controls_csv of combined-wide's pair (depth 11, 9 controls);
- envelope: write_envelope_csv of the replay payoff's Snell envelope (depth 16);
- dump:     write_dump of the solve-d11 tree's deepest level;
- read-strategy: read_strategy_csv of the replay strategy.csv (depth 14);
- read-payoff:   read_payoff_csv of the replay payoff.csv (depth 16);
- import:   `import impulsetree.cli`, after numpy (a run's fixed start-up
            cost); its output is build_parser().format_help().

Each run is one fresh `python` process with one tree's `src` on
PYTHONPATH.  It builds the writer's input untimed, then times the one
writer (or reader) call.  The trees alternate which runs first.  For every
entry the script prints each tree's median and quartiles (in ms) and the
ratio of the medians; it exits 1 if the sha256 of any output (of a
reader: of the arrays it returns; of the import: of the help text)
differs between the trees or between runs.  RUNS (default 11) is the number of runs per tree and entry.

The file name does not match pytest's default `test_*.py` pattern, so
the default test run does not collect it.
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WRITERS = ("values", "strategy", "controls", "envelope", "dump", "read-strategy", "read-payoff", "import")


def _prepare(inputs: Path):
    """The seed-1 config and input files of the benchmark's workloads."""
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    import workloads

    params = workloads.seed_params(1)
    for name, prepare in workloads.PREPARE.items():
        (inputs / name).mkdir()
        prepare(inputs / name, params, workloads.FULL)


def _child(writer: str, inputs: Path, out: Path):
    """Build ``writer``'s input from ``inputs``, time the writer into
    ``out`` and print (seconds, sha256) as JSON."""
    import numpy as np

    if writer == "import":  # the first import of the package in this process
        t0 = time.perf_counter()
        import impulsetree.cli

        seconds = time.perf_counter() - t0
        digest = hashlib.sha256(impulsetree.cli.build_parser().format_help().encode()).hexdigest()
        print(json.dumps([seconds, digest]))
        return

    from impulsetree import PayoffProcess, build_tree, extract_strategy, load_config, snell_envelope, value_iteration
    from impulsetree import csvio

    if writer.startswith("read-"):
        from impulsetree import csvread

        replay = inputs / "replay"
        if writer == "read-strategy":
            impulses = load_config(json.loads((replay / "replay.json").read_text())).impulse.impulses
            read, args = csvread.read_strategy_csv, (replay / "strategy.csv", impulses)
        else:
            read, args = csvread.read_payoff_csv, (replay / "payoff.csv",)
        t0 = time.perf_counter()
        result = read(*args)
        seconds = time.perf_counter() - t0
        arrays = result.chains if writer == "read-strategy" else result.values
        digest = hashlib.sha256(b"".join(repr(a.shape).encode() + a.tobytes() for a in arrays)).hexdigest()
        print(json.dumps([seconds, digest]))
        return
    if writer == "envelope":
        # payoff.csv lists its levels in order, each in index order
        values = np.loadtxt(inputs / "replay" / "payoff.csv", delimiter=",", skiprows=1)[:, 2]
        payoff = PayoffProcess.from_arrays(np.split(values, 2 ** np.arange(1, values.size.bit_length()) - 1))
        args = (out, payoff, snell_envelope(payoff, tol=1e-12))
        write = csvio.write_envelope_csv
    elif writer == "controls":
        from impulsetree import HamiltonianSpec, combined_value_iteration, walk_strategy_states
        from impulsetree.combined import extract_pair

        loaded = load_config(json.loads((inputs / "combined-wide" / "combined.json").read_text()))
        tree = build_tree(loaded.process, loaded.numerics.depth)
        spec = HamiltonianSpec(grid=loaded.grid, sigma=loaded.process.sigma, reward=loaded.impulse.reward)
        result = combined_value_iteration(tree, loaded.impulse, spec, tol=loaded.numerics.tol)
        strategy, controls = extract_pair(result.fields, tree, loaded.impulse, spec, tol=loaded.numerics.tol)
        args = (out, controls, walk_strategy_states(loaded.impulse, strategy))
        write = csvio.write_controls_csv
    else:
        loaded = load_config(json.loads((inputs / "solve-d11" / "solve.json").read_text()))
        tree = build_tree(loaded.process, loaded.numerics.depth)
        if writer == "dump":

            def write(path, tree, level):
                with path.open("wb") as fh:
                    csvio.write_dump(fh, tree, level)

            args = (out, tree, tree.depth)
        else:
            result = value_iteration(tree, loaded.impulse, tol=loaded.numerics.tol)
            if writer == "values":
                args, write = (out, result, tree), csvio.write_values_csv
            else:
                args = (out, extract_strategy(result.fields, tree, loaded.impulse, tol=loaded.numerics.tol))
                write = csvio.write_strategy_csv
    out.unlink(missing_ok=True)  # truncating the last run's file is not the writer's cost
    t0 = time.perf_counter()
    write(*args)
    seconds = time.perf_counter() - t0
    print(json.dumps([seconds, hashlib.sha256(out.read_bytes()).hexdigest()]))


def _run(src: Path, writer: str, inputs: Path, out: Path):
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, __file__, "--child", writer, str(inputs), str(out)],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _quartiles(ms):
    if len(ms) < 2:
        return ms[0], ms[0], ms[0]
    q1, med, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return q1, med, q3


def main(argv) -> int:
    if argv[:1] == ["--child"]:
        _child(argv[1], Path(argv[2]), Path(argv[3]))
        return 0
    if len(argv) not in (2, 3):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = {"old": Path(argv[0]).resolve(), "new": Path(argv[1]).resolve()}
    runs = int(argv[2]) if len(argv) == 3 else 11
    sys.path[:0] = [str(trees["new"]), str(HERE)]
    differing = 0
    summary = {}
    with tempfile.TemporaryDirectory(prefix="writer-timing-") as tmp:
        inputs = Path(tmp) / "inputs"
        inputs.mkdir()
        _prepare(inputs)
        for writer in WRITERS:
            times, digests = {"old": [], "new": []}, {"old": set(), "new": set()}
            for i in range(runs):
                for side in ("old", "new") if i % 2 == 0 else ("new", "old"):
                    seconds, digest = _run(trees[side], writer, inputs, Path(tmp) / f"{side}.csv")
                    times[side].append(seconds * 1e3)
                    digests[side].add(digest)
            same = len(digests["old"] | digests["new"]) == 1
            differing += not same
            row = {side: _quartiles(times[side]) for side in trees}
            summary[writer] = {side: [round(v, 3) for v in row[side]] for side in trees}
            print(
                f"{writer:13s} old {row['old'][1]:8.2f} ms [{row['old'][0]:.2f}, {row['old'][2]:.2f}]"
                f"  new {row['new'][1]:8.2f} ms [{row['new'][0]:.2f}, {row['new'][2]:.2f}]"
                f"  new/old {row['new'][1] / row['old'][1]:.3f}  sha256 {'same' if same else 'DIFFERS'}"
            )
    print(json.dumps({"runs": runs, "ms_q1_median_q3": summary, "differing": differing}))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
