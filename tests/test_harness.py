import json

import numpy as np
import pytest

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


def test_config_validation():
    cfg = ExperimentConfig(k_min=8, k_max=64, k_factor=2)
    assert cfg.k_schedule == (8, 16, 32, 64)
    with pytest.raises(ValueError):
        ExperimentConfig(k_factor=1)
    with pytest.raises(ValueError):
        ExperimentConfig(k_min=64, k_max=8)
    with pytest.raises(ValueError):
        ExperimentConfig(fmt="xml")


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


def test_svg_emission(tmp_path):
    cfg = ExperimentConfig(model_id="s1-cp1-w12", k_min=16, k_max=64,
                           out_dir=str(tmp_path), emit_svg=True)
    run_suite("diag", cfg)
    svg = (tmp_path / "suite_diag.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


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


def test_cli_psi_nu_and_kernel_eval(capsys):
    assert main(["psi-nu", "--model", "su2-cp1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["leading_coefficient"] - 1.0) < 1e-12
    assert main(["kernel-eval", "--model", "su2-cp1", "--k", "8",
                 "--x", "1,0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"][0] - 8 / np.pi) < 1e-12
    assert out["isotypic_dim"] == 8


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
