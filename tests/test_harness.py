import importlib.util
import io
import json
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import coorbit
from coorbit.cli import main
from coorbit.harness import (
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

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
    rows, fits = run_diag_convergence(cfg)
    assert len(rows) == 4
    assert fits[0].passed
    assert -1.2 <= fits[0].exponent <= -0.8


def test_dim_suite_exit_on_empty_locus():
    from coorbit.groups import AssumptionViolation
    cfg = ExperimentConfig(model_id="t2-cp2", nu=(2.0, -1.0), k_min=8, k_max=32)
    with pytest.raises(AssumptionViolation):
        run_dim_growth(cfg)


def test_decay_suite_su2_records_zero_separation():
    cfg = ExperimentConfig(model_id="su2-cp1", k_min=32, k_max=128)
    rows, fits = run_decay_suite(cfg)
    assert any("separation-zero" in r.quantity for r in rows)
    assert all(f.passed for f in fits)


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
    _, fits2 = run_diag_convergence(cfg2)
    _, fits3 = run_diag_convergence(cfg3)
    assert abs(fits2[0].exponent - fits3[0].exponent) <= 0.05


def test_gaussian_suite_t2():
    cfg = ExperimentConfig(model_id="t2-cp2", k_min=64, k_max=256)
    rows, fits = run_gaussian_profile(cfg)
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


def test_cli_psi_nu_and_kernel_eval(capsys):
    assert main(["psi-nu", "--model", "su2-cp1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["leading_coefficient"] - 1.0) < 1e-12
    assert main(["kernel-eval", "--model", "su2-cp1", "--k", "8",
                 "--x", "1,0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"][0] - 8 / np.pi) < 1e-12
    assert out["isotypic_dim"] == 8


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
    rows, fits = run_diag_convergence(cfg)
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
        "peter_weyl_projector_weight", "phase_hessian", "predict_near_diagonal",
        "run_suite", "scaled_dimension", "trace_metric", "unit_point",
        "weyl_character", "weyl_dimension",
    ]
