"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py --workload <name> --seed <n> --out <dir> [--trace]
    python3 perfbench/worker.py --import-only

Times ``import coorbit`` (setup), then the workload call (wall), reads
the process's peak RSS, checks the outputs, and prints one JSON object.
While the import and an untraced workload run, a speed probe times a
fixed pure-Python loop every few milliseconds from a SIGALRM handler;
``run.py`` uses its median to scale both times to a reference speed.
With ``--trace`` the public functions of every coorbit module are
wrapped while the workload runs, and the spans are written to
``<out>/spans.jsonl``.  Only the standard library is imported before
``coorbit``, so setup time includes numpy and scipy.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


PROBE_INTERVAL_S = 0.005


def _probe_body():
    """The probe's fixed work: about 40 us of interpreter time on an idle
    core of the two-core Xeon VM the benchmark was tuned on."""
    acc = 0.0
    table = {}
    for i in range(300):
        acc += (i * 0.618) % 1.7
        table[i & 31] = acc
    return acc


class SpeedProbe:
    """Samples how fast this process's core runs while a block executes.

    The shared host this benchmark was tuned on changes the speed a core
    gives one process by up to 2x within seconds and by 15-25% over
    minutes (other tenants on the same physical cores), so raw times of
    identical code spread past any useful bound.  Every PROBE_INTERVAL_S
    a SIGALRM handler times :func:`_probe_body`; the median of those
    samples measures the speed during the block, and ``spent_s`` is the
    time the handler itself took, to subtract from the block's time.
    """

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _probe_body()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent_s += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def report(self, prefix, elapsed_s):
        """Raw time, time net of the probe, and the probe's median sample."""
        return {f"{prefix}_raw_s": elapsed_s, f"{prefix}_net_s": elapsed_s - self.spent_s,
                f"{prefix}_probe_s": statistics.median(self.samples),
                f"{prefix}_probe_samples": len(self.samples)}


def _import_coorbit():
    sys.path.insert(0, SRC)
    with SpeedProbe() as probe:
        start = time.perf_counter()
        import coorbit
        setup_s = time.perf_counter() - start
    origin = os.path.realpath(coorbit.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"coorbit was imported from {origin}, not from {SRC}")
    return probe.report("setup", setup_s)


def _blas():
    """BLAS name, version and thread count, as far as numpy reveals them."""
    import ctypes
    import glob
    import numpy as np
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, AttributeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                info["threads"] = int(getattr(lib, symbol)())
                return info
    info["threads"] = None
    return info


def metadata():
    import coorbit
    import numpy
    import scipy
    return {"coorbit": coorbit.__version__, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas": _blas()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args(argv)

    setup = _import_coorbit()
    if args.import_only:
        print(json.dumps(setup))
        return 0

    import workloads
    from tracer import Tracer

    run = workloads.WORKLOADS[args.workload]
    os.makedirs(args.out, exist_ok=True)
    tracer = Tracer() if args.trace else None
    if tracer is None:
        with SpeedProbe() as probe:
            start = time.perf_counter()
            outcome = run(args.seed, args.out)
            wall_s = time.perf_counter() - start
        wall = probe.report("wall", wall_s)
    else:
        with tracer:
            start = time.perf_counter()
            outcome = tracer.run(run, args.seed, args.out)
            wall_s = time.perf_counter() - start
        wall = {"wall_raw_s": wall_s}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, problems = workloads.check(args.workload, args.seed, outcome)
    result = {
        "workload": args.workload, "seed": args.seed, "traced": args.trace,
        **setup, **wall, "peak_rss_mb": peak_rss_mb,
        "attempted": attempted, "failed": failed, "problems": problems[:20],
        "csv_sha256": hashlib.sha256(outcome.csv.encode()).hexdigest(),
        "meta": metadata(), "sizes": workloads.SIZES[args.workload],
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        if args.workload == "deep-k":
            result["ksweep"] = tracer.ksweep()
        tracer.write_spans(os.path.join(args.out, "spans.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
