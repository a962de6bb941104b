import argparse
import ast
import json
import os
import pathlib
import struct
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import nlsqlab as nl
from nlsqlab.cli import build_parser, cmd_gate_noise, main


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


def test_nlsq_coeffs_near_overflow(capsys):
    # The norm of (1e308, 1) overflows unless the coefficients are scaled
    # first; the state is |0> to double precision.
    code, out, err = run_cli(capsys, "nlsq", "--coeffs", "1e308", "1")
    assert code == 0
    assert err.startswith("ratio=")
    assert json.loads(out)["ratio"] == pytest.approx(1.0, abs=1e-12)


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


@pytest.mark.parametrize("flag", ["--kappa=nan", "--kappa=inf", "--kappa=-inf",
                                  "--sqz-var=nan"])
def test_gate_noise_rejects_nonfinite(capsys, flag):
    code, out, err = run_cli(capsys, "gate-noise", "--ancilla", "fock:1", flag)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--kappa=1e160", "--sqz-var=1e200"])
def test_gate_noise_overflow_is_a_numerical_error(capsys, flag):
    code, out, err = run_cli(capsys, "gate-noise", flag)
    assert code == 3
    assert out == ""
    assert err.startswith("numerical error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


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
    for cutoff in ("0", "1"):
        for state in (["--vacuum"], ["--theta", "1.09"]):
            code, _, _ = run_cli(capsys, "nlsq", *state, "--dim", cutoff)
            assert code == 2
    # an explicit cutoff below the state's levels exits 2; without --dim it grows to fit
    for state, cutoff in ((["--fock", "1"], "0"), (["--coeffs", "1", "0"], "1")):
        code, out, err = run_cli(capsys, "nlsq", *state, "--dim", cutoff)
        assert code == 2 and out == ""
        assert "dim" in err.splitlines()[-1]
    code, out, _ = run_cli(capsys, "nlsq", "--fock", "7")
    assert code == 0 and out


@pytest.mark.parametrize("dt_ns", ["0", "nan", "1e-6"])
@pytest.mark.parametrize("command", ["mode", "filter-design", "traces", "pca"])
def test_usage_error_bad_grid(tmp_path, capsys, command, dt_ns):
    traces = tmp_path / "photon.bin"
    extra = {"traces": ["--fock", "1", "--out", str(traces)],
             "pca": ["--in", str(traces), "--compare"]}.get(command, [])
    if command == "pca":
        assert run_cli(capsys, "traces", "--fock", "1", "--events", "1000",
                       "--frame-ns", "40", "--dt-ns", "0.4",
                       "--out", str(traces))[0] == 0
    # a 1e12 ns frame at a 1e-6 ns step would be 1e18 points
    frame = ["--frame-ns=1e12"] if dt_ns == "1e-6" else []
    code, out, err = run_cli(capsys, command, *extra, f"--dt-ns={dt_ns}", *frame)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("error:")
    assert ("grid points" if frame else "positive") in err


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


@pytest.mark.parametrize("window", ["0,0", "-0.1,0.1", "1,-1"])
def test_usage_error_from_pca_window_below_two_points(tmp_path, capsys, window):
    traces = tmp_path / "photon.bin"
    assert run_cli(capsys, "traces", "--fock", "1", "--events", "1000",
                   "--out", str(traces))[0] == 0
    code, out, err = run_cli(capsys, "pca", "--in", str(traces),
                             f"--window-ns={window}")
    assert code == 2
    assert out == ""
    assert "PCA needs at least 2" in err


@pytest.mark.parametrize("command", ["sample", "traces"])
def test_usage_error_from_sampler_truncation(tmp_path, capsys, command):
    out_file = tmp_path / "out.bin"
    code, out, err = run_cli(capsys, command, "--fock", "30", "--out", str(out_file))
    assert code == 2
    assert "holds only" in err


@pytest.mark.parametrize("phases, message", [
    ("", "need at least one LO phase"), ("0,nan", "LO phase nan is not finite"),
    ("inf", "LO phase inf is not finite")], ids=["empty", "nan", "inf"])
@pytest.mark.parametrize("command", ["sample", "traces"])
def test_usage_error_from_bad_phases(tmp_path, capsys, command, phases, message):
    out_file = tmp_path / "out.bin"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, command, "--fock", "1", f"--phases-deg={phases}",
                                 "--out", str(out_file))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"error: {message}"
    assert not out_file.exists()


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


@pytest.mark.parametrize("flags, flag", [(["--theta-steps", "0"], "--theta-steps"),
                                         (["--theta-steps=-3"], "--theta-steps"),
                                         (["--losses", ","], "--losses"),
                                         (["--losses="], "--losses")],
                         ids=["zero-steps", "negative-steps", "comma-losses", "empty-losses"])
def test_empty_sweep_is_a_usage_error(tmp_path, capsys, flags, flag):
    out_file = tmp_path / "sweep.csv"
    code, out, err = run_cli(capsys, "sweep", *flags, "--out", str(out_file))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith(f"error: {flag}")
    assert not out_file.exists()


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


@pytest.mark.parametrize("body, line", [
    ("", None), ("0.0\n", 2), ("0.0,1.0,2.0\n", 2), ("0.0,1.0\n30.0\n", 3),
    ("zero,1.0\n", 2), ("0.0,\n", 2), ("nan,1.0\n", 2), ("0.0,inf\n", 2),
    ("1_0,1.0\n", 2), ("0.0,1.0\n\nzero,1.0\n", 4), ("0.0,1.0\r\n \r\n30.0,\r\n", 4),
], ids=["header-only", "one-field", "three-fields", "short-row", "text", "empty-field",
        "nan", "inf", "digit-separator", "text-after-blank", "crlf-empty-field"])
def test_reconstruct_rejects_malformed_dataset(tmp_path, capsys, body, line):
    data = tmp_path / "data.csv"
    data.write_text("phase_deg,quadrature\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "reconstruct", "--in", str(data))
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith("error:")
    assert "usecols" not in err
    if line is not None:  # the file line, counting the header as line 1
        assert err.splitlines()[-1] == (
            f"error: dataset line {line}: rows need two numeric fields")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_reconstruct_rejects_impossible_tolerance(tmp_path, capsys, tol):
    data = tmp_path / "data.csv"
    assert run_cli(capsys, "sample", "--fock", "1", "--n-per-phase", "200",
                   "--out", str(data))[0] == 0
    code, out, err = run_cli(capsys, "reconstruct", "--in", str(data), f"--tol={tol}")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        f"error: MLE tolerance must be finite and >= 0, got {float(tol)}")


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
    code, out, _ = run_cli(capsys, "filter-design")
    assert code == 0
    blob = json.loads(out)
    assert blob["overlap"] >= 1.0 - 1e-12
    assert blob["poles_rad_s"] == sorted(g / 2 for g in nl.default_gammas())
    assert run_cli(capsys, "filter-design", "--seed", "0")[0] == 2


@pytest.mark.parametrize("argv", [["mode", "--gamma", "inf"],
                                  ["mode", "--gammas", "inf,2e8,3e8"],
                                  ["filter-design", "--gammas", "1e308,2e308,3e8"]],
                         ids=["mode-gamma", "mode-gammas", "filter-design"])
def test_nonfinite_decay_rates_are_usage_errors(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith("error: decay rate")
    assert "finite" in err


def test_one_rate_list_is_the_single_rate_packet(capsys):
    by_gamma = run_cli(capsys, "mode", "--gamma", "4e8")
    assert by_gamma[0] == 0
    assert run_cli(capsys, "mode", "--gammas", "4e8") == by_gamma
    for rates in ("4e8,9e8", "2e8,4e8,9e8,1.3e9"):  # any number of distinct rates
        code, out, _ = run_cli(capsys, "mode", "--gammas", rates)
        assert code == 0
        assert len(out.splitlines()) == 1 + nl.default_grid().size


def test_underflowing_rate_differences_are_usage_errors(capsys):
    # Finite, positive and distinct, but (g2 - g1)(g3 - g1) underflows to 0.
    code, out, err = run_cli(capsys, "mode", "--gammas", "1e-200,2e-200,3e-200",
                             "--frame-ns", "1e300", "--dt-ns", "1e299")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith("error: decay rates")
    assert "underflows" in err


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


@pytest.mark.parametrize("flag, spec", [
    ("--input", "rho:1,2"), ("--input", "rho:1,2,3,4"), ("--input", "fock:"),
    ("--input", "vacuum:3"), ("--ancilla", "coeffs:"), ("--ancilla", "fock:x"),
    ("--ancilla", "mystery:1")])
def test_gate_noise_names_a_malformed_spec(capsys, flag, spec):
    code, out, err = run_cli(capsys, "gate-noise", flag, spec)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith(f"error: {flag} {spec!r}: expected vacuum")


@pytest.mark.parametrize("window", ["5", "1,2,3", "a,b", ","])
def test_pca_names_a_malformed_window(tmp_path, capsys, window):
    traces = tmp_path / "tiny.bin"
    with open(traces, "wb") as fh:
        nl.save_traces(nl.TraceSet(np.zeros((2, 3)), 1e-9, np.zeros(2), np.zeros(3)), fh)
    code, out, err = run_cli(capsys, "pca", "--in", str(traces), f"--window-ns={window}")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (f"error: --window-ns {window!r}: "
                                    "expected two numbers LO,HI")


def test_pca_of_a_zero_event_file_is_a_usage_error(tmp_path, capsys):
    traces = tmp_path / "empty.bin"
    traces.write_bytes(struct.pack("<IId", 0, 1001, 0.2))
    code, out, err = run_cli(capsys, "pca", "--in", str(traces))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "error: need at least 1000 traces"


@pytest.mark.parametrize("argv", [["nlsq", "--vacuum"], ["gate-noise", "--ancilla", "vacuum"]],
                         ids=["nlsq", "gate-noise"])
def test_one_level_cutoff_is_a_usage_error(capsys, argv):
    # both commands take their moments from nlsq.noise_moments
    code, out, err = run_cli(capsys, *argv, "--dim", "1")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "error: state cutoff 1 too small; need at least 2"


def test_optimize_command(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--max-photon", "1",
                           "--seed", "0", "--starts", "6")
    assert code == 0
    blob = json.loads(out)
    assert blob["result"]["ratio"] == pytest.approx(0.717, abs=0.002)
    c1 = complex(*blob["coefficients"][1])
    c0 = complex(*blob["coefficients"][0])
    assert abs(c1 / c0) == pytest.approx(0.772, abs=0.02)


@pytest.mark.parametrize("order", ["118", "140", "160"])
def test_high_gate_orders_run_without_overflow(capsys, order):
    # Only the kept corner of each moment product is formed.  The full
    # products overflowed, with a warning, from order 118 with one OpenBLAS
    # thread (126 with two), and the vacuum moment's integer-to-float cast
    # raised OverflowError from order 157.
    code, out, _ = run_cli(capsys, "nlsq", "--vacuum", "--order", order)
    assert code == 0
    assert json.loads(out)["ratio"] == pytest.approx(1.0, abs=1e-12)
    code, out, _ = run_cli(capsys, "optimize", "--order", order)
    assert code == 0
    blob = json.loads(out)
    assert blob["result"]["order"] == int(order)
    assert 0 < blob["result"]["ratio"] < 1
    coeffs = [str(complex(*c)) for c in blob["coefficients"]]
    code, out, _ = run_cli(capsys, "nlsq", "--coeffs", *coeffs, "--order", order)
    assert code == 0
    assert json.loads(out)["ratio"] == pytest.approx(blob["result"]["ratio"], rel=1e-12)


@pytest.mark.parametrize("order", ["170", "400", "1000"])
@pytest.mark.parametrize("argv", [["nlsq", "--vacuum"], ["optimize"],
                                  ["sweep", "--theta-steps", "3"]],
                         ids=["nlsq", "optimize", "sweep"])
def test_overflowing_gate_order_is_a_numerical_error(capsys, argv, order):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--order", order)
    # an order past the float range fails before any moment matrix is built
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("numerical error:") and len(err.splitlines()) == 1
    assert f"gate order {order}" in err


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


def test_pipeline_simulates_no_traces(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("pipeline built or projected a trace set")

    monkeypatch.setattr(nl.temporal, "simulate_traces", refuse)
    monkeypatch.setattr(nl.temporal, "mode_quadratures", refuse)
    code, out, _ = run_cli(capsys, "pipeline", "--n-per-phase", "300",
                           "--trace-events", "200")
    assert code == 0
    assert len(json.loads(out)["realtime"]["correlations_by_phase_deg"]) == 6


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


@pytest.mark.parametrize("events", ["0", "1", "-2"])
def test_pipeline_needs_two_trace_events_per_phase(capsys, events):
    code, out, err = run_cli(capsys, "pipeline", "--n-per-phase", "30",
                             f"--trace-events={events}")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert f"--trace-events must be at least 2, got {events}" in err


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # "events" belongs to another subcommand and null means "not set"
    cfg.write_text(json.dumps({"n_per_phase": 7, "seed": 5, "events": "x",
                               "phases_deg": None}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "sample", "--vacuum")
    assert code == 0
    assert len(out.splitlines()) == 1 + 6 * 7
    code, out, _ = run_cli(capsys, "--config", str(cfg), "sample", "--vacuum",
                           "--n-per-phase", "2")
    assert len(out.splitlines()) == 1 + 6 * 2


@pytest.mark.parametrize("with_traces,flags,realtime", [
    (False, (), False),
    (False, ("--with-traces",), True),
    (True, ("--no-traces",), False),
])
def test_config_switch_and_flag_override(tmp_path, capsys, with_traces, flags, realtime):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"with_traces": with_traces, "n_per_phase": 100,
                               "trace_events": 50}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "pipeline", *flags)
    assert code == 0
    assert ("realtime" in json.loads(out)) is realtime


@pytest.mark.parametrize("config", [{"order": 3.7}, {"kappa": "x"}, [1, 2],
                                    {"vacuum": "yes"}])
def test_config_values_checked_like_flags(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "--config", str(cfg), "nlsq", "--fock", "1")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert f"--config {cfg}:" in err


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "nlsqlab", "nlsq", "--vacuum"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ratio"] == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# start-up cost and help text
# ---------------------------------------------------------------------------

#: Runs in a fresh interpreter: every subcommand, the searched filter
#: designs included, runs on numpy and the standard library alone.
IMPORT_GUARD = """
import sys
from nlsqlab import cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert loaded() == [], loaded()
for argv in (["pipeline", "--n-per-phase", "300"],
             ["sample", "--fock", "1", "--n-per-phase", "300", "--out", "data.csv"],
             ["reconstruct", "--in", "data.csv"],
             ["traces", "--fock", "1", "--events", "1000", "--out", "t.bin"],
             ["traces", "--fock", "1", "--events", "1000", "--frame-ns", "40",
              "--dt-ns", "0.4", "--out", "short.bin"],
             ["pca", "--in", "short.bin"], ["pca", "--in", "t.bin", "--window-ns=-30,0"],
             ["nlsq", "--fock", "1"], ["nlsq", "--fock", "1", "--loss", "0.1"],
             ["sweep", "--theta-steps", "3"], ["gate-noise"], ["mode"],
             ["herald", "--q=0.1", "--alpha=-0.1j"],
             ["optimize", "--max-photon", "1"],
             ["optimize", "--max-photon", "2", "--loss", "0.25"],
             ["optimize", "--max-photon", "1", "--order", "4"],
             ["filter-design"], ["filter-design", "--hwhm-mhz", "50"]):
    assert cli.main(argv) == 0, argv
    assert loaded() == [], (argv, loaded())
# a searched filter design runs its own Nelder-Mead simplex
assert cli.main(["filter-design", "--gamma", "1e9"]) == 0
assert loaded() == [], loaded()
"""


def test_cli_reads_no_private_module_name():
    modules = {"fock", "gate", "genmodel", "nlsq", "temporal", "tomo"}
    tree = ast.parse(pathlib.Path(nl.cli.__file__).read_text())
    private = sorted(f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in modules and node.attr.startswith("_"))
    assert private == []


def test_no_subcommand_loads_scipy(tmp_path):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


SUBCOMMANDS = ["nlsq", "optimize", "sweep", "herald", "mode", "filter-design", "traces",
               "pca", "sample", "reconstruct", "pipeline", "gate-noise"]


@pytest.mark.parametrize("argv", [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS],
                         ids=["top", *SUBCOMMANDS])
@pytest.mark.parametrize("columns", ["60", "200"])
def test_help_text_follows_terminal_width(monkeypatch, capsys, argv, columns):
    monkeypatch.setenv("COLUMNS", columns)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    # the same parsers with argparse's own formatter, which looks the width up
    parser = build_parser(argv)
    sub = next(a for a in parser._actions if a.dest == "command")
    for p in (parser, *sub.choices.values()):
        p.formatter_class = argparse.HelpFormatter
    assert out == (sub.choices[argv[0]] if len(argv) == 2 else parser).format_help()


def test_parsing_adds_only_the_chosen_subcommands_options():
    def with_options(parser):
        sub = next(a for a in parser._actions if a.dest == "command")
        assert list(sub.choices) == SUBCOMMANDS
        return {name for name, sp in sub.choices.items()
                if [a.dest for a in sp._actions] != ["help"]}

    argv = ["gate-noise", "--ancilla", "fock:1", "--kappa", "2"]
    parser = build_parser(argv)
    assert with_options(parser) == {"gate-noise"}
    args = parser.parse_args(argv)
    assert (args.func, args.ancilla, args.kappa) == (cmd_gate_noise, "fock:1", 2.0)
    assert with_options(build_parser(["--help"])) == set()
    # a value that names another subcommand builds its options too, harmlessly
    assert with_options(build_parser(["sample", "--out", "pipeline"])) == {"sample", "pipeline"}


def test_value_naming_a_subcommand_is_a_value(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "sample", "--vacuum", "--n-per-phase", "3",
                           "--out", "pipeline")
    assert (code, out) == (0, "")
    lines = (tmp_path / "pipeline").read_text().splitlines()
    assert lines[0] == "phase_deg,quadrature"
    assert len(lines) == 1 + 3 * len(nl.tomo.DEFAULT_PHASES)
