"""A fixed piece of work that measures how fast the host runs right now.

The benchmark runs it, in a fresh interpreter, before and after the
set-up samples and after every cycle, and scales its timings by
``REFERENCE_S / c``, where ``c`` is the median of the run's calibration
times: a timing then reads what it would on a host running the
calibration in REFERENCE_S.
It uses no impulsetree code, so a change to the program never moves it.
Its mix follows the CLI's: interpreted arithmetic, and rows of floats
from numpy arrays written to a file through the csv module.

    python3 perfbench/calibrate.py FILE      # prints one calibration time; writes FILE
"""

import csv
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# Median calibration time on the host the benchmark was tuned on (2-CPU
# KVM guest, Intel Xeon, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.38

_ROWS = np.random.default_rng(0).random((3, 40_000))


def _csv_rows():
    for i in range(_ROWS.shape[1]):
        yield (1, i, float(_ROWS[0, i]), i % 5, float(_ROWS[1, i]), float(_ROWS[2, i]))


def calibration_work(path: Path) -> int:
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    # Rows of floats from numpy arrays written through csv.writer to a
    # file, as the CLI's CSV writers do.  Numpy array passes were tried
    # too and tracked the workloads' speed poorly.
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in _csv_rows():
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    return acc + path.stat().st_size


def calibrate(path: Path) -> float:
    """Seconds of one run of ``calibration_work``, which writes ``path``.
    It runs in a fresh interpreter, as each CLI invocation does, so the
    state of the caller's own heap does not enter the time."""
    proc = subprocess.run([sys.executable, __file__, str(path)], capture_output=True, text=True, check=True)
    return float(proc.stdout)


if __name__ == "__main__":
    start = time.perf_counter()
    calibration_work(Path(sys.argv[1]))
    print(repr(time.perf_counter() - start))
