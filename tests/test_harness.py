import copy
import gc
import importlib.util
import io
import json
import os
import subprocess
import sys
import types
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import coorbit
from coorbit import harness
from coorbit.cli import _parse_point, main
from coorbit.hardy import equivariant_kernel_log
from coorbit.harness import (
    ALL_MODELS,
    ExperimentConfig,
    fit_power,
    rows_to_csv,
    run_decay_suite,
    run_diag_convergence,
    run_dim_growth,
    run_gaussian_profile,
    run_suite,
    summary_json,
)
from coorbit.models import MODEL_IDS, build_model, unit_point

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src"


def test_config_validation():
    cfg = ExperimentConfig(k_min=8, k_max=64, k_factor=2)
    assert cfg.k_schedule == (8, 16, 32, 64)
    with pytest.raises(ValueError):
        ExperimentConfig(k_factor=1)
    with pytest.raises(ValueError):
        ExperimentConfig(k_min=64, k_max=8)
    with pytest.raises(ValueError):
        ExperimentConfig(fmt="xml")
    # a rate fit needs two k values: k_max below k_min * k_factor leaves one
    for k_max in (64, 127):
        with pytest.raises(ValueError, match="at least two k values"):
            ExperimentConfig(k_min=64, k_max=k_max)


def test_cli_single_k_schedule_is_a_config_error(capsys):
    assert main(["suite", "decay", "--model", "t2-cp2", "--kmin", "64",
                 "--kmax", "64"]) == 4
    assert "at least two k values" in capsys.readouterr().err


def test_config_rejects_unknown_model_id(capsys):
    with pytest.raises(ValueError, match="unknown model id 'nope'"):
        ExperimentConfig(model_id="nope")
    assert ExperimentConfig(model_id="T2-CP2").model_id == "T2-CP2"   # ids are case-blind
    assert main(["suite", "dims", "--model", "s1-cp9"]) == 4
    assert "unknown model id 's1-cp9'" in capsys.readouterr().err


def test_fit_power_recovers_slope():
    ks = np.array([16, 32, 64, 128, 256])
    errs = 3.0 / ks
    slope, intercept, resid = fit_power(ks, errs)
    assert abs(slope + 1.0) < 1e-12
    assert resid < 1e-12


def test_diag_suite_small_run():
    cfg = ExperimentConfig(model_id="s1-cp1-w12", k_min=32, k_max=256)
    rows, fits = run_diag_convergence(cfg, build_model(cfg.model_id))
    assert len(rows) == 4
    assert fits[0].passed
    assert -1.2 <= fits[0].exponent <= -0.8


def test_diag_suite_predicts_its_schedule_in_one_call(monkeypatch):
    # one prediction call and one leading coefficient per model for the
    # whole k schedule, no w space (all displacements are zero), and the
    # predicted column has the bits of one prediction per k
    from coorbit import predictor
    from coorbit.models import ProjectiveModel

    counts = {}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return real

    predict = counted(harness, "predict_near_diagonal")
    counted(predictor, "leading_coefficient")
    monkeypatch.setattr(ProjectiveModel, "w_space", lambda *args: pytest.fail("w_space built"))
    for mid in MODEL_IDS:
        counts.clear()
        cfg = ExperimentConfig(model_id=mid, k_min=16, k_max=128)
        rows, _, _ = run_suite("diag", cfg)
        assert counts == {"predict_near_diagonal": 1, "leading_coefficient": 1}, mid
        model = build_model(mid)
        nu = model.default_nu
        sample = model.locus_decompose(nu, model.default_locus_point(nu))
        assert [r.k for r in rows] == [model.valid_k(k) for k in cfg.k_schedule], mid
        for row in rows:
            want = predict(model, nu, sample, row.k).value.real
            assert repr(row.predicted) == repr(want), (mid, row.k)


def test_dim_suite_exit_on_empty_locus():
    from coorbit.groups import AssumptionViolation
    cfg = ExperimentConfig(model_id="t2-cp2", nu=(2.0, -1.0), k_min=8, k_max=32)
    with pytest.raises(AssumptionViolation):
        run_dim_growth(cfg, build_model(cfg.model_id))


def test_decay_suite_su2_records_zero_separation():
    cfg = ExperimentConfig(model_id="su2-cp1", k_min=32, k_max=128)
    rows, fits = run_decay_suite(cfg, build_model(cfg.model_id))
    assert any("separation-zero" in r.quantity for r in rows)
    assert all(f.passed for f in fits)


def test_a_dimension_off_by_one_fails_its_three_verdicts(monkeypatch):
    # d_nu + 1 from the product formula: the orbit's value at zero, its
    # volume and the exact scaling law each see it, and the suite reports
    # three failed verdicts per group instead of raising
    from coorbit import characters
    exact = characters._exact_dimension
    monkeypatch.setattr(characters, "_exact_dimension",
                        lambda group, coords, k=1: exact(group, coords, k) + 1)
    _, fits, passed = run_suite("characters", ExperimentConfig(seed=0))
    assert not passed
    assert {f.quantity for f in fits if not f.passed} == {
        f"{kind}-{name}" for kind in ("su2", "u2")
        for name in ("dimension-at-zero", "orbit-volume", "dimension-scaling")}


def test_csv_determinism_and_schema(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        cfg = ExperimentConfig(model_id="s1-cp1-w12", k_min=16, k_max=64,
                               out_dir=str(out), seed=3)
        run_suite("diag", cfg)
    csv1 = (out1 / "suite_diag.csv").read_bytes()
    csv2 = (out2 / "suite_diag.csv").read_bytes()
    assert csv1 == csv2
    header = csv1.decode().splitlines()[0]
    assert header == "model,nu,k,quantity,value,predicted,err"
    summary = json.loads((out1 / "suite_diag.json").read_text())
    assert set(summary) == {"suite", "rows", "fits", "pass"}
    assert summary["suite"] == "diag"
    assert all(set(r) == {"model", "nu", "k", "quantity", "value",
                          "predicted", "err"} for r in summary["rows"])


def test_fit_robust_to_schedule_change():
    # doubling vs tripling schedules fit the same error law
    cfg2 = ExperimentConfig(model_id="s1-cp1-w12", k_min=64, k_max=512, k_factor=2)
    cfg3 = ExperimentConfig(model_id="s1-cp1-w12", k_min=19, k_max=513, k_factor=3)
    _, fits2 = run_diag_convergence(cfg2, build_model(cfg2.model_id))
    _, fits3 = run_diag_convergence(cfg3, build_model(cfg3.model_id))
    assert abs(fits2[0].exponent - fits3[0].exponent) <= 0.05


def test_gaussian_suite_t2():
    cfg = ExperimentConfig(model_id="t2-cp2", k_min=64, k_max=256)
    rows, fits = run_gaussian_profile(cfg, build_model(cfg.model_id))
    names = [f.quantity for f in fits]
    assert "v-gaussian-slope" in names
    assert all(f.passed for f in fits)


# -- CLI ------------------------------------------------------------------------

def test_cli_group_info(capsys):
    assert main(["group-info", "--group", "su2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dim"] == 3 and out["weyl_order"] == 2


def test_cli_dim_and_character(capsys):
    assert main(["dim", "--group", "u2", "--nu", "3/2,-3/2", "--k", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["d_nu"] == 3 and out["d_k_nu"] == 12
    # above 2^53 a float product would round d_nu to a wrong integer
    assert main(["dim", "--group", "su3", "--nu", "2000001,1000000"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["d_nu"] == out["d_k_nu"] == 3000002500000500000
    assert main(["character", "--group", "su2", "--nu", "4",
                 "--theta", "0.7", "--kirillov"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["weyl"][0] - np.sin(2.8) / np.sin(0.7)) < 1e-9
    assert out["difference"] < 1e-9


def test_cli_orbit_volume(capsys):
    assert main(["orbit-volume", "--group", "su2", "--nu", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["closed_form"] - 4 * np.pi) < 1e-12
    assert abs(out["quadrature_weight_sum"] - 4 * np.pi) < 1e-9


def test_cli_orbit_integral_refuses_su3(capsys):
    # no orbit quadrature for SU(n)/U(n), n >= 3: a config error (exit 4);
    # the Weyl character alone still runs there
    assert main(["orbit-volume", "--group", "su3", "--nu", "2,1"]) == 4
    assert "no orbit quadrature for SU(3)" in capsys.readouterr().err
    character = ["character", "--group", "su3", "--nu", "2,1", "--theta", "0.2,0.3"]
    assert main(character + ["--kirillov"]) == 4
    assert "no orbit quadrature for SU(3)" in capsys.readouterr().err
    assert main(character) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"weyl"}


def test_cli_character_on_walls_prints_strict_json():
    # SU(4) at (2 pi, 0, 0) is the identity, where all six roots vanish
    # modulo 2 pi; at (0.3, 0.5, 0.7) its eigen-angles 0.2 and 0.2 meet.
    # The defining representation's character is the trace, under -W error
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    for theta, trace in (("6.283185307179586,0,0", 4.0),
                         ("0.3,0.5,0.7", np.exp(1j * np.array([0.3, 0.2, 0.2, -0.7])).sum())):
        out = subprocess.run(
            [sys.executable, "-W", "error", "-m", "coorbit.cli", "character", "--group", "su4",
             "--nu", "2,1,1", "--theta", theta], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])})
        assert out.returncode == 0 and not out.stderr, out.stderr
        re, im = json.loads(out.stdout, parse_constant=refuse)["weyl"]
        assert abs(complex(re, im) - trace) < 1e-12, theta


@pytest.mark.parametrize("mid", ["su2-cp1", "s1-cp1-w12"])
def test_a_suite_with_no_verdict_is_refused(mid, capsys):
    # neither locus has a normal or a flat direction to profile, so the
    # gaussian suite has nothing to check there, and a run with no fit
    # must not pass
    with pytest.raises(ValueError, match=f"suite gaussian gives no verdict on {mid}"):
        run_suite("gaussian", ExperimentConfig(model_id=mid))
    assert main(["suite", "gaussian", "--model", mid, "--format", "json"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and f"suite gaussian gives no verdict on {mid}" in err


def test_cli_psi_nu_and_kernel_eval(capsys):
    assert main(["psi-nu", "--model", "su2-cp1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["leading_coefficient"] - 1.0) < 1e-12
    assert main(["kernel-eval", "--model", "su2-cp1", "--k", "8",
                 "--x", "1,0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"][0] - 8 / np.pi) < 1e-12
    assert out["isotypic_dim"] == 8
    assert out["log_abs_terms"] is None          # the closed level form sums no terms


# a stored and a windowed key of each listing model
@pytest.mark.parametrize("mid, k", [("s1-cp1-w12", 20000), ("s1-cp1-w12", 200000),
                                    ("s1-cp2-w123", 512), ("s1-cp2-w123", 2048),
                                    ("t2-cp2", 8192), ("t2-cp2", 100000),
                                    ("u2-cp2", 8193), ("u2-cp2", 100001)])
def test_cli_kernel_eval_reports_the_log_of_the_sum_of_term_moduli(mid, k, capsys):
    # log_abs_terms is the kernel at the coordinate moduli, bit for bit,
    # and bounds log_abs: log_abs - log_abs_terms is the log of the
    # cancellation ratio |sum terms| / sum |terms|
    model = build_model(mid)
    rng = np.random.default_rng(k)

    def point(z):
        return ",".join(repr(complex(c)) for c in z)

    x, n = model.default_locus_point(), model.ambient_dim
    near = unit_point(x + 0.03 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    far = [unit_point(rng.standard_normal(n) + 1j * rng.standard_normal(n)) for _ in range(2)]
    for p, q in ((x, x), (x, near), far):
        argv = ["--x", point(p), "--y", point(q)]
        assert main(["kernel-eval", "--model", mid, "--k", str(k)] + argv) == 0
        out = json.loads(capsys.readouterr().out)
        p, q = _parse_point(argv[1], model), _parse_point(argv[3], model)
        terms = equivariant_kernel_log(model, model.default_nu, k, np.abs(p), np.abs(q))[0]
        assert out["log_abs_terms"] == terms, (mid, k)
        assert out["log_abs"] <= out["log_abs_terms"] + 1e-12, (mid, k)


_KERNEL_EVAL = ["kernel-eval", "--model", "s1-cp1-w12", "--k", "8"]


_BAD_POINT = "a point of {} takes {} finite coordinates, not all zero; got '{}'"


@pytest.mark.parametrize("argv, message", [
    (_KERNEL_EVAL + ["--x", "0,0"], _BAD_POINT.format("s1-cp1-w12", 2, "0,0")),
    (_KERNEL_EVAL + ["--x", "1,nan"], "got '1,nan'"),
    (_KERNEL_EVAL + ["--x", "1e308,1e308"], "got '1e308,1e308'"),   # its norm overflows
    (_KERNEL_EVAL + ["--x", "1,0", "--y", "1,inf"], "got '1,inf'"),
    (_KERNEL_EVAL + ["--x", "1,0,0"], _BAD_POINT.format("s1-cp1-w12", 2, "1,0,0")),
    (["kernel-eval", "--model", "s1-cp1-w12", "--k", "0", "--x", "1,0"],
     "k must be a positive integer"),
    (["psi-nu", "--model", "t2-cp2", "--point", "0,0,0"], "got '0,0,0'"),
    (["psi-nu", "--model", "t2-cp2", "--point", "1,0"], _BAD_POINT.format("t2-cp2", 3, "1,0")),
    (["psi-nu", "--model", "t2-cp2", "--k", "-5"], "k must be a positive integer"),
    # not numpy's "deg must be a positive integer" from the quadrature
    (["orbit-volume", "--group", "su2", "--nu", "2", "--level", "0"],
     "argument --level: level must be a positive integer; got '0'"),
    (["orbit-volume", "--group", "su2", "--nu", "2", "--level", "-3"],
     "argument --level: level must be a positive integer; got '-3'"),
    # each k schedule refusal names the bound it failed and the value
    (["suite", "dims", "--kmin", "0"], "k schedule needs k_min >= 1; got 0"),
    (["suite", "dims", "--kmin", "-4"], "k schedule needs k_min >= 1; got -4"),
    (["suite", "dims", "--kmin", "5", "--kmax", "3"], "k schedule needs k_max >= k_min = 5; got 3"),
    (["suite", "dims", "--kfactor", "1"], "k schedule needs k_factor >= 2; got 1"),
    (["dim", "--group", "su3", "--nu", "1,1", "--k", "0"],
     "argument --k: k must be a positive integer; got '0'"),
])
def test_cli_refuses_bad_points_and_k(argv, message, capsys):
    assert main(argv) == 4
    assert message in capsys.readouterr().err


def test_cli_exit_codes(tmp_path, capsys):
    # config error: unknown model
    assert main(["suite", "diag", "--model", "nope"]) == 4
    capsys.readouterr()
    # precondition failure: empty locus
    assert main(["suite", "dims", "--model", "t2-cp2", "--nu", "2,-1",
                 "--kmin", "8", "--kmax", "32"]) == 3
    capsys.readouterr()
    # a small passing run
    code = main(["suite", "diag", "--model", "s1-cp1-w12", "--kmin", "32",
                 "--kmax", "128", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "suite_diag.csv").exists()


def test_cli_suite_json_stdout(capsys):
    code = main(["suite", "diag", "--model", "su2-cp1", "--kmin", "16",
                 "--kmax", "64", "--format", "json"])
    assert code == 0
    out = capsys.readouterr().out
    summary = json.loads(out)
    assert summary["pass"] is True


def test_rows_to_csv_and_summary_roundtrip():
    cfg = ExperimentConfig(model_id="su2-cp1", k_min=16, k_max=64)
    rows, fits = run_diag_convergence(cfg, build_model(cfg.model_id))
    csv = rows_to_csv(rows)
    assert csv.count("\n") == len(rows) + 1
    summary = json.loads(summary_json("diag", rows, fits, True))
    assert summary["pass"] is True


def test_csv_numbers_are_plain_floats():
    cfg = ExperimentConfig(model_id="s1-cp1-w12", k_min=16, k_max=64)
    rows, _, _ = run_suite("diag", cfg)
    csv = rows_to_csv(rows)
    assert "np." not in csv
    for line in csv.splitlines()[1:]:
        for field in line.split(",")[4:]:
            float(field)


# -- suite all and the benchmark's view of the package ----------------------------

@pytest.fixture(scope="module")
def suite_all(tmp_path_factory):
    """`suite all --seed 0` written with --out, and the JSON summary it
    prints with --format json."""
    out = tmp_path_factory.mktemp("suite_all")
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        assert main(["suite", "all", "--seed", "0", "--out", str(out)]) == 0
        assert main(["suite", "all", "--seed", "0", "--format", "json"]) == 0
    return out, stdout.getvalue()


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_suite_all_composition(suite_all):
    """`suite all` runs each suite on its models in the order the
    benchmark reference froze: the same fit names, the same row keys, and
    values within the benchmark's own tolerances."""
    out, _ = suite_all
    fits = json.loads((out / "suite_all.json").read_text())["fits"]
    reference_fits = (PERFBENCH / "reference" / "suite-all.fits").read_text().split()
    assert [f["quantity"] for f in fits] == reference_fits
    workloads = _load_perfbench("workloads")
    assert workloads.check_suite_csv((out / "suite_all.csv").read_text(),
                                     (PERFBENCH / "reference" / "suite-all.csv").read_text()) == []


def test_suite_all_json_is_strict(suite_all):
    """The summary file and the --format json stdout parse as strict JSON
    (no NaN or Infinity tokens) and agree."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    out, stdout = suite_all
    from_file = json.loads((out / "suite_all.json").read_text(), parse_constant=refuse)
    assert json.loads(stdout, parse_constant=refuse) == from_file
    decay = next(f for f in from_file["fits"] if f["quantity"] == "t2-cp2:off-orbit-decay")
    assert decay["band"] == [None, -5.0] and decay["intercept"] is None


def test_decay_fit_residual_is_the_largest_slope_rise(suite_all):
    """A decay fit's residual is the largest rise from one local slope of
    its log rows to the next, the quantity its monotonicity check bounds
    by 1e-6; a sweep of one slope records 0."""
    out, _ = suite_all
    summary = json.loads((out / "suite_all.json").read_text())
    decays = [f for f in summary["fits"]
              if f["quantity"].endswith("-decay") and f["exponent"] is not None]
    assert len(decays) == 6
    for fit in decays:
        mid, name = fit["quantity"].split(":")
        label = "off-orbit-log-abs-sep=" if name == "off-orbit-decay" else "off-locus-log-abs"
        rows = [r for r in summary["rows"] if r["model"] == mid and r["quantity"].startswith(label)]
        slopes = np.diff([r["value"] for r in rows]) / np.diff(np.log([r["k"] for r in rows]))
        assert fit["residual"] == np.max(np.diff(slopes)) <= 1e-6, fit["quantity"]
    cfg = ExperimentConfig(model_id="t2-cp2", k_min=64, k_max=128)
    _, fits = run_decay_suite(cfg, build_model(cfg.model_id))
    assert [f.residual for f in fits if f.quantity.endswith("-decay")] == [0.0, 0.0]


def test_cli_suites_on_fixed_models_refuse_model_and_nu(capsys):
    # suite characters runs on its own groups and suite all on the models
    # of ALL_MODELS: a --model or --nu would be ignored, so it is refused
    for name in ("characters", "all"):
        for flags in (["--model", "t2-cp2"], ["--nu", "7,3"], ["--model", "t2-cp2", "--nu", "7,3"]):
            assert main(["suite", name, *flags]) == 4, (name, flags)
            assert f"suite {name} takes no --model or --nu" in capsys.readouterr().err


def test_suite_all_builds_each_catalog_model_once(monkeypatch):
    """One `suite all` builds every catalog model once, shares it across
    its suites and drops it on return; the JSON summary read from each
    record's attribute dict equals the one read from a deep copy."""
    built = []

    def counted_build_model(model_id):
        model = build_model(model_id)
        built.append((model_id, weakref.ref(model)))
        return model

    monkeypatch.setattr(harness, "build_model", counted_build_model)
    rows, fits, passed = run_suite("all", ExperimentConfig(seed=0))
    assert sorted(mid for mid, _ in built) == sorted(MODEL_IDS)
    gc.collect()
    assert all(ref() is None for _, ref in built)
    reference = harness._plain({"suite": "all", "rows": [copy.deepcopy(vars(r)) for r in rows],
                                "fits": [copy.deepcopy(vars(f)) for f in fits],
                                "pass": passed})
    assert harness._summary("all", rows, fits, passed) == reference


def test_suite_all_equals_its_suites_run_alone(suite_all):
    """Each suite's rows and fits inside `suite all` are those of the suite
    run alone on a model of its own."""
    out, _ = suite_all
    config = ExperimentConfig(seed=0)
    rows, fits = [], []
    for name, model_ids in ALL_MODELS.items():
        for mid in model_ids:
            r, f, _ = run_suite(name, config if mid is None
                                else ExperimentConfig(model_id=mid, seed=0))
            if mid is not None:
                for fit in f:
                    fit.quantity = f"{mid}:{fit.quantity}"
            rows.extend(r)
            fits.extend(f)
    alone = json.loads(summary_json("all", rows, fits, True))
    together = json.loads((out / "suite_all.json").read_text())
    assert together["rows"] == alone["rows"]
    assert together["fits"] == alone["fits"]
    assert (out / "suite_all.csv").read_text() == rows_to_csv(rows)


def test_benchmark_tracer_names_resolve():
    """Every function and method the benchmark tracer wraps exists, so an
    API removal cannot silently break traced benchmark runs."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for qual in tracer.FUNCTIONS:
        mod_name, attr = qual.split(".")
        module = importlib.import_module(f"coorbit.{mod_name}")
        assert callable(getattr(module, attr, None)), qual
    for qual in tracer.METHODS:
        mod_name, attr = qual.split(".")
        module = importlib.import_module(f"coorbit.{mod_name}")
        assert any(isinstance(cls, type) and cls.__module__ == module.__name__
                   and attr in cls.__dict__ for cls in vars(module).values()), qual


def test_public_names_are_frozen():
    """The names ``import coorbit`` exports, so that adding or removing
    one is a deliberate edit of this list."""
    public = sorted(name for name, value in vars(coorbit).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == [
        "AssumptionViolation", "CompactGroup", "ConeDistance", "ExperimentConfig",
        "FitResult", "HalfWeight", "InvariantMetric", "IsotypicBasis", "LocusSample",
        "MODEL_IDS", "OrbitQuadrature", "Prediction", "ProjectiveModel",
        "QuadratureDisagreement", "Row", "UnsupportedGroupError",
        "ad_on_cartan_complement", "adjoint_action", "build_group", "build_model",
        "dimension_coefficient", "equivariant_kernel", "equivariant_kernel_log",
        "exp_jacobian", "gaussian_pair_exponent", "group_volumes", "haar_quadrature",
        "half_weight", "isotypic_basis", "isotypic_dim", "kirillov_character",
        "leading_coefficient", "orbit_quadrature", "orbit_separation", "orbit_volume",
        "peter_weyl_projector_weight", "predict_near_diagonal",
        "run_suite", "scaled_dimension", "trace_metric", "unit_point",
        "weyl_character", "weyl_dimension",
    ]


def test_the_runtime_never_imports_dataclasses_or_numpy_polynomial(tmp_path):
    """`import coorbit` and a whole `suite all` load neither dataclasses
    nor numpy.polynomial, whose imports took about 10 ms of every
    process; numpy.random and json, which runs read, stay."""
    script = f"""
import sys
import coorbit
from coorbit.cli import main
assert main(["suite", "all", "--seed", "0", "--out", {str(tmp_path)!r}]) == 0
print(sorted(m for m in ("dataclasses", "numpy.polynomial", "numpy.random", "json")
             if m in sys.modules))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "['json', 'numpy.random']"


@pytest.mark.parametrize("suite", ["diag", "dims", "gaussian", "decay"])
def test_t2_suites_pass_at_nu_1_below_nu_2(suite, tmp_path, capsys):
    # the t2-cp2 locus at (1, 3) is the mirror of the (3, 1) one, not a
    # segment leaving the simplex, so every suite runs and passes there
    assert main(["suite", suite, "--model", "t2-cp2", "--nu", "1,3",
                 "--out", str(tmp_path)]) == 0
    assert "FAIL" not in capsys.readouterr().err
