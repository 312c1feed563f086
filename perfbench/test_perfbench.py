"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench

Tracing must not change what the program computes: a traced and an
untraced pass of the same seed give byte-identical output and the same
operation counts, two traced passes give the same per-layer counts, and
the tracer puts every wrapped function back.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from tracer import FUNCTIONS, METHODS, Tracer  # noqa: E402

SEED = 5  # not the reference seed, so only the seed-independent checks apply


def _pass(workload, out, traced):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(SEED), "--out", str(out)] + (["--trace"] if traced else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _counts(layers):
    return {name: {k: v for k, v in row.items() if not k.endswith("_s")}
            for name, row in layers.items()}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tracing_changes_no_result(workload, tmp_path):
    plain = _pass(workload, tmp_path / "plain", traced=False)
    first = _pass(workload, tmp_path / "traced1", traced=True)
    second = _pass(workload, tmp_path / "traced2", traced=True)
    assert plain["failed"] == 0, plain["problems"]
    for traced in (first, second):
        assert traced["csv_sha256"] == plain["csv_sha256"]
        assert (traced["attempted"], traced["failed"]) == (plain["attempted"], 0)
    assert _counts(first["layers"]) == _counts(second["layers"])
    assert (tmp_path / "traced1" / "spans.jsonl").stat().st_size > 0


def _bindings():
    """Every (namespace, attribute) -> object for the traced callables."""
    out = {}
    for name, module in sys.modules.items():
        if name == "coorbit" or name.startswith("coorbit."):
            for qual in FUNCTIONS:
                attr = qual.split(".")[1]
                if attr in module.__dict__:
                    out[(name, attr)] = module.__dict__[attr]
            for value in list(vars(module).values()):
                if isinstance(value, type):
                    for qual in METHODS:
                        attr = qual.split(".")[1]
                        if attr in value.__dict__:
                            out[(value.__qualname__, attr)] = value.__dict__[attr]
    return out


def test_tracer_wraps_every_binding_and_restores_it():
    from coorbit import cli, harness, hardy, models
    before = _bindings()
    suites = dict(harness.SUITES)
    with Tracer():
        during = _bindings()
        # the from-imports in harness and cli, and the suite table, are wrapped too
        assert harness.build_model is models.build_model is not before[("coorbit.models",
                                                                         "build_model")]
        assert cli.equivariant_kernel is hardy.equivariant_kernel
        assert harness.SUITES["diag"] is harness.run_diag_convergence is not suites["diag"]
    assert all(during[key] is not before[key] for key in before)
    assert _bindings() == before
    assert harness.SUITES == suites


def test_check_rejects_a_changed_exact_row():
    with open(workloads.reference_path("deep-k")) as fh:
        reference = fh.read()
    assert workloads.check_suite_csv(reference, reference) == []
    lines = reference.splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if ",dim-growth," in line)
    parts = lines[row].split(",")
    parts[4] = str(int(parts[4]) + 1)
    lines[row] = ",".join(parts)
    assert workloads.check_suite_csv("".join(lines), reference)


def test_benchmark_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "suite-all",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
