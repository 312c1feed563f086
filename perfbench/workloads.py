"""The three benchmark workloads and their output checks.

Each workload is a function ``run(seed, out_dir)`` returning an
:class:`Outcome`; only that call is timed.  :func:`check` then compares
the outcome with the reference captured in ``reference/`` and with the
invariants that hold for any seed, and counts failed operations.

The program is reached through module attributes (``harness.run_suite``,
``hardy.equivariant_kernel_log``) so that the tracer's wrappers, when
installed, see every call.
"""

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from coorbit import cli, hardy, harness, models

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")
REFERENCE_SEED = 0

# Tolerances for non-integer CSV values against the reference:
# |a - b| <= RTOL * max(|a|, |b|) + ATOL.  ATOL admits rounding-level
# error rows (all below 4e-14 at the reference commit) for any seed.
RTOL, ATOL = 1e-9, 1e-12
# Rows holding exact integers; these must equal the reference exactly.
INTEGER_QUANTITIES = ("dim-growth", "weight-mismatch-dim")

DEEP_K = {"suites": ("diag", "dims"), "models": models.MODEL_IDS,
          "k_min": 512, "k_max": 8192, "k_factor": 2}

# (model, k, points, off-diagonal pairs).  A quarter of the points lie
# far off the locus; pairs that reach them underflow double precision on
# t2-cp2, u2-cp2 and su2-cp1 (|log value| > 745).
KERNEL_SCAN = (
    ("s1-cp2-w123", 2048, 12, 48),
    ("t2-cp2", 8192, 32, 368),
    ("u2-cp2", 8193, 32, 368),
    ("su2-cp1", 8192, 40, 360),
)
FAR_SHARE = 4  # every FAR_SHARE-th point is far off the locus
# Kernel-scan reference tolerances (seed 0): log|Pi| within
# LOG_RTOL * max(1, |log|Pi||), unit phase within PHASE_ATOL.
LOG_RTOL, PHASE_ATOL = 1e-9, 1e-7
# Slack on the Cauchy-Schwarz check 2 log|Pi(x,y)| <= log Pi(x,x) + log Pi(y,y).
CS_SLACK = 1e-9

SIZES = {
    "suite-all": {"command": "coorbit suite all --seed <seed> --out <tmp>",
                  "k": [64, 128, 256, 512], "models": list(models.MODEL_IDS)},
    "deep-k": {"suites": list(DEEP_K["suites"]), "models": list(DEEP_K["models"]),
               "k": [512, 1024, 2048, 4096, 8192]},
    "kernel-scan": {"models": [{"model": m, "k": k, "points": n, "pairs": p,
                                "evaluations": n + p} for m, k, n, p in KERNEL_SCAN]},
}


@dataclass
class Outcome:
    status: int = 0                 # exit status of the program call(s)
    csv: str = ""                   # the output whose bytes must repeat
    fits: list = field(default_factory=list)   # (quantity, passed) per verdict
    values: list = field(default_factory=list)  # kernel-scan evaluation records
    errors: list = field(default_factory=list)


# -- workloads ---------------------------------------------------------------


def suite_all(seed, out_dir):
    """``coorbit suite all`` at its default schedule."""
    status = cli.main(["suite", "all", "--seed", str(seed), "--out", out_dir])
    out = Outcome(status=status)
    with open(os.path.join(out_dir, "suite_all.csv")) as fh:
        out.csv = fh.read()
    with open(os.path.join(out_dir, "suite_all.json")) as fh:
        out.fits = [(f["quantity"], bool(f["passed"])) for f in json.load(fh)["fits"]]
    return out


def deep_k(seed, out_dir):
    """diag, then dims, for every catalog model at k = 512 ... 8192."""
    out = Outcome()
    parts = []
    for suite in DEEP_K["suites"]:
        for mid in DEEP_K["models"]:
            config = harness.ExperimentConfig(
                model_id=mid, k_min=DEEP_K["k_min"], k_max=DEEP_K["k_max"],
                k_factor=DEEP_K["k_factor"], seed=seed,
                out_dir=os.path.join(out_dir, f"{suite}-{mid}"))
            _, fits, passed = harness.run_suite(suite, config)
            out.status = out.status or (0 if passed else 2)
            out.fits += [(f"{mid}:{f.quantity}", bool(f.passed)) for f in fits]
            with open(os.path.join(config.out_dir, f"suite_{suite}.csv")) as fh:
                header, body = fh.read().split("\n", 1)
            parts.append(body if parts else f"{header}\n{body}")
    out.csv = "".join(parts)
    return out


def scan_inputs(model, k, n_points, n_pairs, rng):
    """Seeded points around the default locus point, and the pairs to evaluate.

    Near points are Heisenberg-chart displacements (b/k, v/sqrt(k)) with
    |v| <= 2.5; far points move the moduli by 0.2 ... 0.7 along a real
    horizontal direction (all coordinates stay positive).  One random
    fiber phase per model is shared by all points, so pairs carry no
    relative fiber rotation beyond the O(1/k) chart offsets.
    """
    x0 = model.default_locus_point()
    phase = rng.uniform(0.0, 2 * np.pi)
    dim = model.ambient_dim
    points = []
    for i in range(n_points):
        if i % FAR_SHARE == FAR_SHARE - 1:
            while True:
                v = _horizontal(x0, rng.standard_normal(dim))
                p = model.displace(x0, 0.0, rng.uniform(0.2, 0.7) * v)
                if np.all(p.real > 0.05):
                    break
            points.append(np.exp(1j * phase) * p)
        else:
            v = _horizontal(x0, rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
            points.append(model.displace(x0, phase + rng.uniform(-2.0, 2.0) / k,
                                         rng.uniform(0.0, 2.5) / np.sqrt(k) * v))
    if n_pairs > n_points * (n_points - 1) // 2:
        raise ValueError(f"{n_pairs} pairs need more than {n_points} points")
    pairs = set()
    while len(pairs) < n_pairs:
        i, j = (int(t) for t in rng.choice(n_points, size=2, replace=False))
        pairs.add((min(i, j), max(i, j)))
    return points, sorted(pairs)


def _horizontal(x, z):
    z = z - np.vdot(x, z) * x
    return z / np.linalg.norm(z)


def kernel_scan(seed, out_dir):
    """Many equivariant-kernel evaluations per model, basis built once."""
    out = Outcome()
    for index, (mid, k, n_points, n_pairs) in enumerate(KERNEL_SCAN):
        model = models.build_model(mid)
        nu = model.default_nu
        rng = np.random.default_rng([seed, index])
        points, pairs = scan_inputs(model, k, n_points, n_pairs, rng)
        for i, j in [(i, i) for i in range(n_points)] + pairs:
            try:
                log_abs, phase = hardy.equivariant_kernel_log(model, nu, k, points[i], points[j])
                out.values.append((mid, k, i, j, float(log_abs), complex(phase)))
            except Exception as exc:  # counted as a failed evaluation
                out.values.append((mid, k, i, j, math.nan, complex(math.nan)))
                out.errors.append(f"{mid} ({i},{j}): {exc!r}")
    out.csv = "model,k,i,j,log_abs,phase_re,phase_im\n" + "".join(
        f"{m},{k},{i},{j},{lv!r},{ph.real!r},{ph.imag!r}\n" for m, k, i, j, lv, ph in out.values)
    return out


WORKLOADS = {"suite-all": suite_all, "deep-k": deep_k, "kernel-scan": kernel_scan}


# -- output checks -------------------------------------------------------------


def reference_path(workload):
    return os.path.join(REFERENCE, f"{workload}.csv")


def _number(text):
    """Parse a CSV value as written by the harness (repr, maybe np.float64(...))."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def _close(a, b, rtol, atol):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def check_suite_csv(text, reference):
    """Messages for every row that differs from the reference."""
    got, ref = _rows(text), _rows(reference)
    if len(got) != len(ref):
        return [f"{len(got)} CSV lines, reference has {len(ref)}"]
    if got[0] != ref[0]:
        return [f"CSV header {got[0]} differs from {ref[0]}"]
    problems = []
    for g, r in zip(got[1:], ref[1:]):
        if g[:4] != r[:4]:
            problems.append(f"row key {g[:4]} differs from reference {r[:4]}")
            continue
        vals, refs = [_number(t) for t in g[4:]], [_number(t) for t in r[4:]]
        if g[3] in INTEGER_QUANTITIES:
            if vals[0] != refs[0]:
                problems.append(f"{g[:4]}: exact value {vals[0]!r} != {refs[0]!r}")
        elif not all(_close(a, b, RTOL, ATOL) for a, b in zip(vals, refs)):
            problems.append(f"{g[:4]}: {vals} not within tolerance of {refs}")
    return problems


def check(workload, seed, outcome):
    """(attempted, failed, messages) for one pass."""
    if workload == "kernel-scan":
        return _check_kernel_scan(seed, outcome)
    with open(reference_path(workload)) as fh:
        reference = fh.read()
    with open(os.path.join(REFERENCE, f"{workload}.fits")) as fh:
        ref_fits = fh.read().split()
    attempted = max(len(outcome.fits), len(ref_fits))
    problems = list(outcome.errors)
    if outcome.status != 0:
        problems.append(f"exit status {outcome.status}")
    if [q for q, _ in outcome.fits] != ref_fits:
        problems.append("fit verdicts differ from the reference list")
    problems += check_suite_csv(outcome.csv, reference)
    failed_fits = [q for q, ok in outcome.fits if not ok]
    # a wrong output or a bad exit status fails every verdict of the pass
    failed = attempted if problems else len(failed_fits)
    return attempted, failed, problems + [f"fit failed: {q}" for q in failed_fits]


def _check_kernel_scan(seed, outcome):
    expected = sum(n + p for _, _, n, p in KERNEL_SCAN)
    attempted = max(expected, len(outcome.values))
    bad = {}
    diag = {}
    for idx, (m, k, i, j, lv, ph) in enumerate(outcome.values):
        if not (math.isfinite(lv) and np.isfinite(ph)):
            bad[idx] = f"{m} ({i},{j}): non-finite value {lv!r}, {ph!r}"
        elif i == j:
            diag[(m, i)] = lv
            if not (ph.real > 0 and abs(ph.imag) <= 1e-9):
                bad[idx] = f"{m} ({i},{i}): diagonal value not positive (phase {ph!r})"
    for idx, (m, k, i, j, lv, ph) in enumerate(outcome.values):
        if i != j and idx not in bad and (m, i) in diag and (m, j) in diag:
            bound = diag[(m, i)] + diag[(m, j)]
            if 2 * lv > bound + CS_SLACK * max(1.0, abs(bound)):
                bad[idx] = f"{m} ({i},{j}): |Pi(x,y)|^2 exceeds Pi(x,x) Pi(y,y)"
    if seed == REFERENCE_SEED:
        with open(reference_path("kernel-scan")) as fh:
            ref = _rows(fh.read())[1:]
        if len(ref) != len(outcome.values):
            return attempted, attempted, [f"{len(outcome.values)} evaluations, "
                                          f"reference has {len(ref)}"]
        for idx, ((m, k, i, j, lv, ph), r) in enumerate(zip(outcome.values, ref)):
            rlv, rph = float(r[4]), complex(float(r[5]), float(r[6]))
            if [m, str(k), str(i), str(j)] != r[:4]:
                bad[idx] = f"evaluation {idx} is {(m, k, i, j)}, reference {r[:4]}"
            elif not (abs(lv - rlv) <= LOG_RTOL * max(1.0, abs(rlv))
                      and abs(ph - rph) <= PHASE_ATOL):
                bad.setdefault(idx, f"{m} ({i},{j}): {lv!r}, {ph!r} differs from "
                                    f"reference {rlv!r}, {rph!r}")
    missing = attempted - len(outcome.values)
    problems = outcome.errors + [bad[i] for i in sorted(bad)]
    return attempted, len(bad) + missing, problems
