"""coorbit benchmark driver.

    python3 perfbench/run.py --workload <suite-all|deep-k|kernel-scan|all> \\
        --seed <n> --seconds <s> --trace <0|1>

Runs one pass of the workload at a time, each in a fresh worker process
(``worker.py``), starting passes until ``--seconds`` have passed (and at
least MIN_PASSES of them), then import-only processes until there are MIN_SETUP_SAMPLES
set-up times.  The gated times are scaled to a reference speed with the
workers' speed probe (see ``scaled``), since the shared host's speed
drifts.  Prints every metric named in ``BENCHMARK.json`` with its
unit and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics and the tracing overhead.  A full
record (metadata, every pass, the k-sweep table of deep-k) goes to
``.perfbench_out/result-<workload>-seed<n>-trace<t>.json``.

Exit status: 0 when every output check passed, 1 when one failed,
2 when the checkout holds no coorbit source to benchmark.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("suite-all", "deep-k", "kernel-scan")

MIN_PASSES = 3           # untraced passes in a --trace 0 run
MIN_TRACED = 2           # traced passes in a --trace 1 run (plus one untraced)
MIN_SETUP_SAMPLES = 7
# The probe median at which a scaled time equals the raw time: about the
# idle-core speed of the probe on the box the benchmark was tuned on.
PROBE_REF_S = 40e-6
DEADLINE_S = 140.0       # start no pass after this; a run must end within 180 s
PASS_TIMEOUT_S = 170.0


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _env():
    # One BLAS thread: on the two shared cores this benchmark was tuned on,
    # two threads burned about 20% more CPU on deep-k for no shorter wall
    # time, and the extra thread only adds contention with other tenants.
    env = dict(os.environ)
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _worker(args, timeout):
    """Run one worker process to completion; (result dict or None, error text)."""
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}"
    return json.loads(lines[-1]), ""


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def measure(workload, seed, seconds, trace):
    """All passes of one run, and the set-up samples."""
    start = time.monotonic()
    passes, errors = [], []
    work_dir = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    while True:
        traced = trace and len(passes) % 2 == 1
        pass_dir = os.path.join(work_dir, f"pass{len(passes)}")
        shutil.rmtree(pass_dir, ignore_errors=True)
        args = ["--workload", workload, "--seed", str(seed), "--out", pass_dir]
        timeout = max(10.0, PASS_TIMEOUT_S - (time.monotonic() - start))
        result, error = _worker(args + (["--trace"] if traced else []), timeout)
        if result is None:
            errors.append(error)
            result = {"traced": traced, "attempted": 1, "failed": 1, "problems": [error]}
        elif traced:
            shutil.copyfile(os.path.join(pass_dir, "spans.jsonl"), spans_path)
        shutil.rmtree(pass_dir, ignore_errors=True)
        passes.append(result)

        elapsed = time.monotonic() - start
        n_traced = sum(1 for p in passes if p["traced"])
        enough = (n_traced >= MIN_TRACED) if trace else len(passes) >= MIN_PASSES
        if errors or elapsed * (len(passes) + 1) / len(passes) > DEADLINE_S \
                or (enough and elapsed >= seconds):
            break
    shutil.rmtree(work_dir, ignore_errors=True)

    setup = [p for p in passes if "setup_raw_s" in p]
    while not errors and len(setup) < MIN_SETUP_SAMPLES and time.monotonic() - start < DEADLINE_S:
        result, error = _worker(["--import-only"], 60.0)
        if result is None:
            errors.append(error)
        else:
            setup.append(result)
    return passes, setup, errors


def scaled(sample, prefix):
    """A time of a worker ``sample`` net of the speed probe, scaled to the
    probe's reference speed: ``net * PROBE_REF_S / probe median``."""
    return sample[f"{prefix}_net_s"] * PROBE_REF_S / sample[f"{prefix}_probe_s"]


def _median(values):
    return statistics.median(values) if values else float("nan")


def _q3(values):
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def _verdict(passes, errors):
    """(correct, attempted, failed, problems) over all passes of a run."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = list(errors)
    digests = [p["csv_sha256"] for p in passes if "csv_sha256" in p]
    for p in passes:
        problems += p.get("problems", [])
        # the same seed must give byte-identical output, traced or not
        if "csv_sha256" in p and p["csv_sha256"] != digests[0]:
            failed += p["attempted"] - p["failed"]
            problems.append("output bytes differ between passes of the same seed")
    counts = [{name: {k: v for k, v in row.items() if not k.endswith("_s")}
               for name, row in p["layers"].items()} for p in passes if "layers" in p]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced passes of the same seed")
    return not problems and failed == 0, attempted, failed, problems


def _untraced(passes):
    return [p for p in passes if "wall_raw_s" in p and not p["traced"]]


def end_to_end(passes, setup):
    walls = [scaled(p, "wall") for p in _untraced(passes)]
    return {"wall_s": _median(walls), "setup_s": _median([scaled(s, "setup") for s in setup]),
            "peak_rss_mb": _median([p["peak_rss_mb"] for p in passes
                                    if "peak_rss_mb" in p and not p["traced"]])}


def per_layer(passes, names):
    """Each per-layer metric ``<module>.<function>.<key>``: the median over
    traced passes for seconds, the first traced pass for counts (they
    repeat exactly), 0 for a function the workload never called."""
    traced = [p["layers"] for p in passes if "layers" in p]
    out = {}
    for name in names:
        func, key = name.rsplit(".", 1)
        values = [layers.get(func, {}).get(key, 0) for layers in traced]
        out[name] = _median(values) if key.endswith("_s") else (values[0] if values else 0)
    return out


def layer_shares(passes):
    """Self time per module (and the benchmark's own root span) as a share
    of the median traced wall time."""
    traced = [p for p in passes if "layers" in p]
    if not traced:
        return {}
    wall = _median([p["wall_raw_s"] for p in traced])
    shares = {}
    for func in traced[0]["layers"]:
        module = func.split(".")[0]
        self_s = _median([p["layers"].get(func, {}).get("self_s", 0.0) for p in traced])
        shares[module] = shares.get(module, 0.0) + self_s / wall
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def run_workload(workload, seed, seconds, trace, spec):
    passes, setup, errors = measure(workload, seed, seconds, trace)
    correct, attempted, failed, problems = _verdict(passes, errors)
    if trace:
        metrics = per_layer(passes, [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end(passes, setup)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    first = next((p for p in passes if "meta" in p), {})
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "meta": dict(first.get("meta", {}), git_commit=_git_commit(), seed=seed,
                     sizes=first.get("sizes")),
        "correct": correct, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "wall_s_q3": _q3([scaled(p, "wall") for p in _untraced(passes)]),
        "wall_raw_s": _median([p["wall_raw_s"] for p in _untraced(passes)]),
        "setup_raw_s": _median([s["setup_raw_s"] for s in setup]),
        "wall_probe_s": _median([p["wall_probe_s"] for p in _untraced(passes)]),
        "setup_probe_s": _median([s["setup_probe_s"] for s in setup]),
        "problems": problems[:50],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "setup_samples": setup,
        "passes": [{k: v for k, v in p.items() if k not in ("meta", "sizes")} for p in passes],
    }
    if trace:
        untraced = [p["wall_raw_s"] for p in _untraced(passes)]
        traced = [p["wall_raw_s"] for p in passes if "wall_raw_s" in p and p["traced"]]
        record["trace_overhead_s"] = _median(traced) - _median(untraced)
        record["self_time_share"] = layer_shares(passes)
        last = next((p for p in reversed(passes) if "ksweep" in p), None)
        if last is not None:
            record["ksweep"] = last["ksweep"]
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return record


def _report(record, prefix=""):
    n = sum(1 for p in record["passes"] if not p["traced"])
    for name, metric in record["metrics"].items():
        print(f"{record['workload']:<12} {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{record['workload']:<12} {'wall_s_q3 (upper quartile, not gated)':<48} "
          f"{record['wall_s_q3']:>14.6g} s ({n} untraced passes)")
    for name in ("wall_raw_s", "setup_raw_s"):
        print(f"{record['workload']:<12} {name + ' (unscaled, not gated)':<48} "
              f"{record[name]:>14.6g} s")
    for name in ("wall_probe_s", "setup_probe_s"):
        print(f"{record['workload']:<12} {name + ' (probe median)':<48} "
              f"{record[name] * 1e6:>14.6g} us")
    print(f"{record['workload']:<12} {'fail_ratio':<48} {record['fail_ratio']:>14.6g} "
          f"({record['failed']} of {record['attempted']} operations)")
    if record["trace"]:
        print(f"{record['workload']:<12} {'trace_overhead_s':<48} "
              f"{record['trace_overhead_s']:>14.6g} s")
        for module, share in record["self_time_share"].items():
            print(f"{record['workload']:<12} self-time share {module:<32} {share:>14.3f}")
    if "ksweep" in record:
        print("k-sweep: model, k, isotypic dim, isotypic_dim s, isotypic_basis s, "
              "basis bytes (computed)")
        for row in record["ksweep"]:
            print(f"  {row['model']:<12} {row['k']:>5} {row['isotypic_dim']:>9} "
                  f"{row['isotypic_dim_s']:>10.4f} {row['isotypic_basis_s']:>10.4f} "
                  f"{row['basis_bytes_computed']:>11}")
    for problem in record["problems"][:10]:
        print(f"{record['workload']:<12} CHECK FAILED: {problem}")
    return {prefix + name: {"value": m["value"], "unit": m["unit"]}
            for name, m in record["metrics"].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "coorbit", "__init__.py")):
        print(f"no coorbit source under {os.path.join(ROOT, 'src')}; nothing to benchmark",
              file=sys.stderr)
        return 2
    spec = _spec()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(w, args.seed, args.seconds, bool(args.trace), spec) for w in names]
    metrics = {}
    for record in records:
        metrics.update(_report(record, prefix=f"{record['workload']}/" if len(records) > 1 else ""))
    correct = all(r["correct"] for r in records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
