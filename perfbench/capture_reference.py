"""Capture the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/capture_reference.py

Runs every workload once at the reference seed and writes
``reference/<workload>.csv`` (and ``.fits`` for the suite workloads).
Run it only at a commit whose outputs are known to be right: the
benchmark then treats any later difference beyond the stated
tolerances as a wrong output.
"""

import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main():
    os.makedirs(workloads.REFERENCE, exist_ok=True)
    for name, run in workloads.WORKLOADS.items():
        os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench_out")) as tmp:
            outcome = run(workloads.REFERENCE_SEED, tmp)
        if outcome.status != 0 or outcome.errors or not all(ok for _, ok in outcome.fits):
            raise SystemExit(f"{name}: the program fails at this commit; no reference written")
        with open(workloads.reference_path(name), "w") as fh:
            fh.write(outcome.csv)
        if outcome.fits:
            with open(os.path.join(workloads.REFERENCE, f"{name}.fits"), "w") as fh:
                fh.write("".join(f"{q}\n" for q, _ in outcome.fits))
        print(f"{name}: {outcome.csv.count(chr(10)) - 1} rows")


if __name__ == "__main__":
    main()
