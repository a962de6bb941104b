import json
import struct
import subprocess
import sys

import numpy as np
import pytest

import nlsqlab as nl
from nlsqlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# nlsq command
# ---------------------------------------------------------------------------

def test_nlsq_vacuum(capsys):
    code, out, _ = run_cli(capsys, "nlsq", "--vacuum")
    assert code == 0
    blob = json.loads(out)
    assert blob["db"] == pytest.approx(0.0, abs=1e-9)


def test_nlsq_single_photon(capsys):
    code, out, _ = run_cli(capsys, "nlsq", "--fock", "1")
    assert code == 0
    assert json.loads(out)["db"] == pytest.approx(4.771, abs=1e-3)


def test_nlsq_generated_point(capsys):
    code, out, _ = run_cli(capsys, "nlsq", "--theta", "1.09", "--phi", "4.712",
                           "--loss", "0.25")
    assert code == 0
    assert json.loads(out)["db"] == pytest.approx(-0.65, abs=0.02)


def test_nlsq_deg_switch(capsys):
    _, out_rad, _ = run_cli(capsys, "nlsq", "--theta", "1.09", "--phi", "4.712",
                            "--loss", "0.25")
    _, out_deg, _ = run_cli(capsys, "--deg", "nlsq",
                            "--theta", str(np.degrees(1.09)),
                            "--phi", str(np.degrees(4.712)), "--loss", "0.25")
    assert json.loads(out_deg)["db"] == pytest.approx(
        json.loads(out_rad)["db"], abs=1e-9)


def test_nlsq_coeffs(capsys):
    code, out, _ = run_cli(capsys, "nlsq", "--coeffs", "0.79", "0-0.61j")
    assert code == 0
    assert json.loads(out)["ratio"] == pytest.approx(0.7168, abs=5e-4)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_error_without_state(capsys):
    code, _, err = run_cli(capsys, "nlsq")
    assert code == 2
    assert "state" in err


def test_usage_error_bad_subcommand(capsys):
    assert main(["definitely-not-a-command"]) == 2


def test_usage_error_bad_loss(capsys):
    code, _, _ = run_cli(capsys, "nlsq", "--vacuum", "--loss", "1.5")
    assert code == 2


@pytest.mark.parametrize("kappa", ["0", "nan", "inf", "-inf"])
def test_usage_error_bad_kappa(capsys, kappa):
    code, out, err = run_cli(capsys, "nlsq", "--fock", "1", f"--kappa={kappa}")
    assert code == 2
    assert out == ""
    assert "kappa" in err


def test_negative_kappa_accepted(capsys):
    code, out, _ = run_cli(capsys, "nlsq", "--fock", "1", "--kappa=-2")
    assert code == 0
    assert json.loads(out)["ratio"] == pytest.approx(3.0, rel=1e-12)


def test_usage_error_malformed_literals(capsys):
    code, _, _ = run_cli(capsys, "nlsq", "--coeffs", "0.5", "notanumber")
    assert code == 2
    code, _, _ = run_cli(capsys, "sweep", "--losses", "0,oops", "--theta-steps", "3")
    assert code == 2
    code, _, _ = run_cli(capsys, "gate-noise", "--input", "mystery:1")
    assert code == 2


def test_io_error_missing_input(capsys):
    code, _, _ = run_cli(capsys, "reconstruct", "--in", "/nonexistent/data.csv")
    assert code == 4


def test_numerical_error_from_ambiguous_pca(tmp_path, capsys):
    traces = tmp_path / "vac.bin"
    code, _, _ = run_cli(capsys, "traces", "--vacuum", "--events", "1200",
                         "--seed", "0", "--out", str(traces))
    assert code == 0
    code, _, err = run_cli(capsys, "pca", "--in", str(traces),
                           "--window-ns=-30,0")
    assert code == 3
    assert "numerical error" in err


def test_usage_error_from_malformed_trace_file(tmp_path, capsys):
    traces = tmp_path / "photon.bin"
    code, _, _ = run_cli(capsys, "traces", "--fock", "1", "--events", "1000",
                         "--seed", "0", "--out", str(traces))
    assert code == 0
    pca = ("pca", "--in", str(traces), "--window-ns=-30,0")
    assert run_cli(capsys, *pca)[0] == 0
    with open(traces, "ab") as fh:
        fh.write(b"\0")
    code, _, err = run_cli(capsys, *pca)
    assert code == 2
    assert "trailing bytes" in err


def test_usage_error_from_oversized_trace_header(tmp_path, capsys):
    traces = tmp_path / "header.bin"
    traces.write_bytes(struct.pack("<IId", 2**32 - 1, 2**32 - 1, 0.2))
    code, _, err = run_cli(capsys, "pca", "--in", str(traces))
    assert code == 2
    assert "trace header declares" in err


# ---------------------------------------------------------------------------
# artifacts and determinism
# ---------------------------------------------------------------------------

def test_sweep_writes_loadable_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--theta-steps", "7",
                         "--losses", "0,0.25", "--out", str(out))
    assert code == 0
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert data.shape == (14,)
    assert set(data.dtype.names) == {"theta_rad", "phi_rad", "loss", "ratio",
                                     "db", "lambda_opt"}


def test_sweep_unwritable_path(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--theta-steps", "3",
                         "--out", "/nonexistent-dir/sweep.csv")
    assert code == 4


def test_sample_deterministic_files(tmp_path, capsys):
    contents = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code, _, err = run_cli(capsys, "sample", "--vacuum", "--n-per-phase",
                               "50", "--seed", "11", "--out", str(path))
        assert code == 0
        assert "seed: 11" in err
        contents.append(path.read_bytes())
    assert contents[0] == contents[1]


def test_sample_reconstruct_chain(tmp_path, capsys):
    data = tmp_path / "data.csv"
    rho_out = tmp_path / "rho.json"
    code, _, _ = run_cli(capsys, "sample", "--theta", "1.09", "--phi", "4.712",
                         "--loss", "0.25", "--n-per-phase", "4000",
                         "--seed", "3", "--out", str(data))
    assert code == 0
    code, out, _ = run_cli(capsys, "reconstruct", "--in", str(data),
                           "--dim", "5", "--out", str(rho_out))
    assert code == 0
    report = json.loads(out)
    assert report["converged"] is True
    assert report["nlsq_db"] == pytest.approx(-0.65, abs=0.25)
    state = nl.state_from_json(json.loads(rho_out.read_text()))
    truth = nl.rho_theta_phi_L(
        nl.GenerationParams(theta=1.09, phi=4.712, loss=0.25), 5)
    assert nl.fidelity(state, truth) > 0.98


def test_herald_outputs_state_json(capsys):
    code, out, _ = run_cli(capsys, "herald", "--q=-0.061j", "--alpha", "0.079")
    assert code == 0
    state = nl.state_from_json(json.loads(out))
    target = nl.make_superposition([0.79, -0.61j], state.dim)
    assert np.abs(state.matrix - target.matrix).max() < 1e-12


def test_mode_and_filter_design(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "mode", "--out", "-")
    assert code == 0
    assert out.splitlines()[0] == "t_ns,amplitude"
    code, out, _ = run_cli(capsys, "filter-design", "--seed", "0")
    assert code == 0
    blob = json.loads(out)
    assert blob["overlap"] >= 0.97
    assert len(blob["poles_rad_s"]) == 3


def test_traces_pca_chain(tmp_path, capsys):
    traces = tmp_path / "photon.bin"
    code, _, _ = run_cli(capsys, "traces", "--fock", "1", "--events", "2000",
                         "--seed", "4", "--out", str(traces))
    assert code == 0
    mode_csv = tmp_path / "mode.csv"
    code, _, err = run_cli(capsys, "pca", "--in", str(traces),
                           "--window-ns=-30,0", "--compare",
                           "--out", str(mode_csv))
    assert code == 0
    assert "overlap with analytic mode" in err
    overlap = float(err.split("overlap with analytic mode:")[1].split()[0])
    assert overlap > 0.9
    rows = mode_csv.read_text().splitlines()
    assert rows[0] == "t_ns,amplitude"


def test_gate_noise_specs(capsys):
    code, out, _ = run_cli(capsys, "gate-noise", "--input", "vacuum",
                           "--ancilla", "coeffs:0.79,-0.61j", "--sqz-var", "0.1")
    assert code == 0
    blob = json.loads(out)
    assert blob["ancilla_excess"] == pytest.approx(
        nl.nonlinear_variance(nl.make_superposition([0.79, -0.61j], 6), 1.0),
        abs=1e-9)
    code, out, _ = run_cli(capsys, "gate-noise", "--input", "rho:1.0,4.0,0.2",
                           "--ancilla", "fock:1", "--sqz-var", "0")
    assert code == 0


def test_optimize_command(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--max-photon", "1",
                           "--seed", "0", "--starts", "6")
    assert code == 0
    blob = json.loads(out)
    assert blob["result"]["ratio"] == pytest.approx(0.717, abs=0.002)
    c1 = complex(*blob["coefficients"][1])
    c0 = complex(*blob["coefficients"][0])
    assert abs(c1 / c0) == pytest.approx(0.772, abs=0.02)


def test_pipeline_small_deterministic(tmp_path, capsys):
    reports = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        code, _, _ = run_cli(capsys, "pipeline", "--n-per-phase", "500",
                             "--trace-events", "200", "--seed", "21",
                             "--out", str(path))
        assert code == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1]
    blob = json.loads(reports[0])
    assert set(blob) == {"params", "model", "reconstruction", "fit", "realtime"}
    assert blob["model"]["db"] == pytest.approx(-0.6494, abs=1e-3)
    for r in blob["realtime"]["correlations_by_phase_deg"].values():
        assert r >= 0.98


def test_pipeline_default_scale_accuracy(tmp_path, capsys):
    path = tmp_path / "full.json"
    code, _, _ = run_cli(capsys, "pipeline", "--seed", "5", "--trace-events",
                         "500", "--out", str(path))
    assert code == 0
    blob = json.loads(path.read_text())
    assert blob["params"]["n_per_phase"] == 21000
    assert abs(blob["reconstruction"]["db_minus_model"]) <= 0.1
    assert blob["reconstruction"]["fidelity_to_model"] >= 0.99
    for r in blob["realtime"]["correlations_by_phase_deg"].values():
        assert r >= 0.98


def test_pipeline_no_traces(capsys):
    code, out, _ = run_cli(capsys, "pipeline", "--n-per-phase", "300",
                           "--seed", "2", "--no-traces")
    assert code == 0
    assert "realtime" not in json.loads(out)


def test_pipeline_rejects_zero_samples(capsys):
    code, _, _ = run_cli(capsys, "pipeline", "--n-per-phase", "0")
    assert code == 2


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_per_phase": 7, "seed": 5}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "sample", "--vacuum")
    assert code == 0
    assert len(out.splitlines()) == 1 + 6 * 7
    code, out, _ = run_cli(capsys, "--config", str(cfg), "sample", "--vacuum",
                           "--n-per-phase", "2")
    assert len(out.splitlines()) == 1 + 6 * 2


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "nlsqlab", "nlsq", "--vacuum"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ratio"] == pytest.approx(1.0, abs=1e-9)
