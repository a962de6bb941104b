import argparse
import ast
import contextlib
import io
import json
import math
import os
import pathlib
import re
import struct
import subprocess
import sys
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nlsqlab as nl
from nlsqlab.cli import _SUBCOMMANDS, build_parser, cmd_gate_noise, main
from nlsqlab.errors import InvalidInputError
from nlsqlab.nlsq import variance_from_moments


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


def option_tokens(options):
    """Command-line tokens of a `--config` option dict: `True` is a bare
    switch and a list a run of values."""
    tokens = []
    for key, value in options.items():
        tokens.append("--" + key.replace("_", "-"))
        if value is not True:
            tokens += value if isinstance(value, list) else [str(value)]
    return tokens


@pytest.mark.parametrize("options, message", [
    ({"coeffs": ["0.79", "0-0.61j"], "theta": 1.09, "loss": 0.25},
     "conflicting state selectors --coeffs --theta"),
    ({"fock": 1, "theta": 1.09, "loss": 0.25}, "conflicting state selectors --fock --theta"),
    ({"fock": 0, "vacuum": True}, "conflicting state selectors --fock --vacuum"),
    ({"coeffs": ["1"], "fock": 2, "vacuum": True},
     "conflicting state selectors --coeffs --fock --vacuum"),
    ({"fock": 1, "phi": 1.0}, "--phi needs --theta"),
], ids=["coeffs-theta", "fock-theta", "fock0-vacuum", "three", "phi-without-theta"])
@pytest.mark.parametrize("via", ["flags", "config", "both"])
@pytest.mark.parametrize("command", ["nlsq", "traces", "sample"])
def test_conflicting_state_selectors_are_usage_errors(tmp_path, capsys, command, via,
                                                      options, message):
    first = dict(list(options.items())[:1])
    in_file = {"flags": {}, "config": options, "both": first}[via]
    flags = option_tokens({k: v for k, v in options.items() if k not in in_file})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(in_file))
    out_file = tmp_path / "out"
    if command != "nlsq":
        flags += ["--out", str(out_file)]
    code, out, err = run_cli(capsys, "--config", str(cfg), command, *flags)
    assert (code, out) == (2, "")
    assert f"error: {message}" in err
    assert not out_file.exists()


def test_usage_error_bad_subcommand(capsys):
    assert main(["definitely-not-a-command"]) == 2


def test_usage_error_bad_loss(capsys):
    code, _, _ = run_cli(capsys, "nlsq", "--vacuum", "--loss", "1.5")
    assert code == 2


@pytest.mark.parametrize("argv, value", [
    (["nlsq", "--theta", "1", "--phi", "nan"], "nan"),
    (["pipeline", "--phi", "inf"], "inf"),
    (["pipeline", "--phi=-inf", "--n-per-phase", "300"], "-inf"),
])
def test_nonfinite_phi_is_a_usage_error_that_names_it(capsys, argv, value):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"error: phi must be finite, got {value}" in err


@pytest.mark.parametrize("builder, argv", [
    ("vacuum", ["nlsq", "--vacuum", "--dim", "200000"]),
    ("fock_state", ["sample", "--fock", "1", "--dim", "200000"]),
])
def test_unallocatable_dim_exits_3_without_a_traceback(tmp_path, monkeypatch, capsys,
                                                        builder, argv):
    # No real allocation is asked for: with overcommit on, it could succeed
    # lazily and be killed later.
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 596. GiB for an array")

    monkeypatch.setattr(nl.fock, builder, refuse)
    out_file = tmp_path / "out"
    if argv[0] == "sample":
        argv = [*argv, "--out", str(out_file)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert [line for line in err.splitlines() if "error" in line] == [
        "error: out of memory: Unable to allocate 596. GiB for an array"]
    assert "Traceback" not in err
    assert not out_file.exists()


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


BLOCK_ROWS = nl.temporal._BLOCK_ROWS
SMALL_GRID = ["--frame-ns", "40", "--dt-ns", "0.4"]


def _trace_blob(n_events, dt_ns=0.4):
    """The bytes of a well-formed trace file of uniform samples on 8 bins."""
    samples = np.random.default_rng(1).uniform(-1.0, 1.0, (n_events, 8))
    return (struct.pack("<IId", n_events, 8, dt_ns) + samples.astype("<f4").tobytes()
            + np.zeros(n_events).tobytes())


def _nan_in_last_block(blob):
    """The file of BLOCK_ROWS + 3 events with its last sample NaN."""
    phases = 8 * (BLOCK_ROWS + 3)
    return blob[:-phases - 4] + struct.pack("<f", np.nan) + blob[-phases:]


#: Each malformed file, and the error that load_traces and `pca --in` name.
MALFORMED_TRACE_FILES = {
    "nan-in-last-block": (_nan_in_last_block, "traces contain non-finite values"),
    "cut-mid-block": (lambda blob: blob[:16 + 4 * 8 * (BLOCK_ROWS + 1) + 2],
                      f"trace header declares {BLOCK_ROWS + 3} x 8 samples "
                      f"({40 * (BLOCK_ROWS + 3)} bytes), but only "
                      f"{4 * 8 * (BLOCK_ROWS + 1) + 2} bytes follow it"),
    "oversized-header": (lambda blob: struct.pack("<I", 2**20) + blob[4:],
                         f"trace header declares {2**20} x 8 samples ({40 * 2**20} bytes), "
                         f"but only {40 * (BLOCK_ROWS + 3)} bytes follow it"),
    "one-trailing-byte": (lambda blob: blob + b"\0", "trailing bytes after the phase block"),
    "zero-dt": (lambda blob: blob[:8] + struct.pack("<d", 5e-324) + blob[16:],
                "trace file bin width must be positive, got 5e-324 ns"),
}


@pytest.mark.parametrize("case", MALFORMED_TRACE_FILES)
def test_block_reader_names_each_fault_for_load_and_pca(tmp_path, capsys, case):
    # The file spans more than one reader block, so the reader meets each
    # fault in the payload part way through the file.
    path = tmp_path / "traces.bin"
    spoil, message = MALFORMED_TRACE_FILES[case]
    path.write_bytes(spoil(_trace_blob(BLOCK_ROWS + 3)))
    with open(path, "rb") as fh, pytest.raises(InvalidInputError) as info:
        nl.load_traces(fh)
    assert str(info.value) == message
    for window in ([], ["--window-ns=-1,0"]):
        code, out, err = run_cli(capsys, "pca", "--in", str(path), *window)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {message}"]


def test_block_reader_keeps_a_subnormal_dt_for_pca_to_reject(tmp_path, capsys):
    path = tmp_path / "traces.bin"
    path.write_bytes(_trace_blob(BLOCK_ROWS + 3, dt_ns=1e-310))
    with open(path, "rb") as fh:
        assert nl.load_traces(fh).dt == 1e-319
    code, out, err = run_cli(capsys, "pca", "--in", str(path))
    assert (code, out) == (3, "")
    assert err.splitlines() == ["numerical error: vacuum floor 1/(2 dt) is not finite "
                                "at dt = 1e-319 s"]


def _traces_argv(path, n_events):
    return ["traces", "--fock", "1", *SMALL_GRID, "--events", str(n_events),
            "--seed", "3", "--out", str(path)]


@pytest.fixture(scope="module")
def two_block_trace_file(tmp_path_factory):
    """A directory and the bytes of a `traces` file of BLOCK_ROWS + 3
    events on SMALL_GRID's 101 bins: two reader blocks."""
    folder = tmp_path_factory.mktemp("fuzz")
    path = folder / "traces.bin"
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(_traces_argv(path, BLOCK_ROWS + 3)) == 0
    return folder, path.read_bytes()


@st.composite
def spoiled_trace_files(draw, blob):
    """`blob` cut at any offset, with any byte flipped, or with 1-16 bytes
    appended.  Cuts and flips land in the header, the samples or the
    phases with equal odds, so the 16-byte header is not left to chance."""
    phases = len(blob) - 8 * (BLOCK_ROWS + 3)
    region = draw(st.sampled_from([(0, 15), (16, phases - 1), (phases, len(blob) - 1)]))
    how = draw(st.sampled_from(["cut", "flip", "append"]))
    if how == "append":
        return blob + draw(st.binary(min_size=1, max_size=16))
    at = draw(st.integers(*region))
    if how == "cut":
        return blob[:at]
    spoiled = bytearray(blob)
    spoiled[at] ^= draw(st.integers(1, 255))
    return bytes(spoiled)


def _exit_code_of_load_traces(path):
    """The exit code `main` gives the error that load_traces raises."""
    try:
        with open(path, "rb") as fh:
            nl.load_traces(fh)
    except ValueError:
        return 2
    except nl.NumericalError:
        return 3
    return 0


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_block_reader_fuzz_exits_cleanly(two_block_trace_file, data):
    folder, blob = two_block_trace_file
    path = folder / "spoiled.bin"
    path.write_bytes(data.draw(spoiled_trace_files(blob)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _exit_code_of_load_traces(path) in (0, 2, 3)
        for window in ([], ["--window-ns=-30,0"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["pca", "--in", str(path), *window])
            assert code in (0, 2, 3)
            assert "Traceback" not in err.getvalue()
            assert code == 0 or out.getvalue() == ""


def test_pca_of_a_pipe_is_an_io_error(tmp_path):
    # TraceFile seeks to the end of the file to check the header against its size.
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(nl.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "nlsqlab", "pca", "--in", "/dev/stdin"],
                          input=_trace_blob(8), capture_output=True, env=env)
    assert (proc.returncode, proc.stdout) == (4, b"")
    assert proc.stderr.decode().splitlines() == ["i/o error: [Errno 29] Illegal seek"]


@pytest.mark.parametrize("n_events", [1, nl.temporal._CHUNK + 3, BLOCK_ROWS + 1])
def test_streamed_trace_file_is_the_saved_simulated_set(tmp_path, capsys, n_events):
    path = tmp_path / "traces.bin"
    argv = _traces_argv(path, n_events)
    assert run_cli(capsys, *argv)[0] == 0
    args = build_parser(argv).parse_args(argv)
    phases = [math.radians(p) for p in nl.cli._floats(args.phases_deg)]
    ts = nl.simulate_traces(nl.cli._state_from_options(vars(args), args.deg),
                            nl.cli._mode_from_options(args), n_events, phases, seed=3)
    buf = io.BytesIO()
    nl.save_traces(ts, buf)
    assert path.read_bytes() == buf.getvalue()


@pytest.mark.parametrize("window", [[], ["--window-ns=-30,0"]], ids=["full", "30ns"])
def test_streamed_pca_is_the_estimate_of_the_loaded_set(tmp_path, capsys, window):
    path = tmp_path / "traces.bin"
    assert run_cli(capsys, *_traces_argv(path, 2 * BLOCK_ROWS + 5))[0] == 0
    code, out, _ = run_cli(capsys, "pca", "--in", str(path), *window)
    assert code == 0
    with open(path, "rb") as fh:
        ts = nl.load_traces(fh)
    buf = io.StringIO()
    nl.mode_to_csv(nl.pca_mode_estimate(ts, window=(-30e-9, 0.0) if window else None), buf)
    assert out == buf.getvalue()


def test_trace_file_commands_hold_no_trace_set(tmp_path, capsys):
    # A held set of 101 float32 bins would add 404 bytes per event; the
    # per-event arrays (phases, quadratures) add far less than 32.
    peaks = []
    for n_events in (2000, 8000):
        path = tmp_path / f"traces_{n_events}.bin"
        peaks.append([])
        for argv in (_traces_argv(path, n_events), ["pca", "--in", str(path)],
                     ["pca", "--in", str(path), "--window-ns=-30,0"]):
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks[-1].append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    capsys.readouterr()
    for small, large in zip(*peaks):
        assert large <= small + 32 * 6000


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


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--theta-steps", "0"], "--theta-steps"),
    (["sweep", "--theta-steps=-3"], "--theta-steps"),
    (["sweep", "--losses", ","], "--losses"),
    (["sweep", "--losses="], "--losses"),
    # an infinite bound used to reach np.linspace and warn before failing
    (["sweep", "--theta-min=inf"], "--theta-min must lie in [0, pi rad]"),
    (["sweep", "--theta-max=-inf"], "--theta-max must lie in [0, pi rad]"),
    (["sweep", "--theta-min=nan"], "--theta-min"),
    (["sweep", "--theta-max", "3.2"], "--theta-max"),
    (["--deg", "sweep", "--theta-min=-1"], "--theta-min must lie in [0, 180 deg]"),
    (["--deg", "sweep", "--theta-max", "180.5"], "--theta-max"),
], ids=["zero-steps", "negative-steps", "comma-losses", "empty-losses", "inf-theta-min",
        "minus-inf-theta-max", "nan-theta-min", "theta-max-past-pi", "deg-negative-theta-min",
        "deg-theta-max-past-180"])
def test_empty_sweep_is_a_usage_error(tmp_path, capsys, argv, flag):
    out_file = tmp_path / "sweep.csv"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_file))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith(f"error: {flag}")
    assert not out_file.exists()


def test_sweep_theta_bounds_at_zero_and_pi_are_accepted(capsys):
    for argv in (["sweep", "--theta-min", "0", "--theta-max", repr(math.pi)],
                 ["--deg", "sweep", "--theta-min", "180", "--theta-max", "0"]):
        code, out, _ = run_cli(capsys, *argv, "--theta-steps", "2", "--losses", "0")
        assert code == 0
        thetas = [float(row.split(",")[0]) for row in out.splitlines()[1:]]
        assert sorted(thetas) == [0.0, math.pi]


@pytest.mark.parametrize("argv, angles", [
    (["sweep"], {"theta_max": 180, "phi": 270}),
    (["pipeline", "--no-traces", "--n-per-phase", "300"], {"theta": 62.45, "phi": 270}),
], ids=["sweep", "pipeline"])
def test_deg_keeps_the_default_angles(tmp_path, capsys, argv, angles):
    code, radians, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, "--deg", *argv)[:2] == (0, radians)
    # an angle from --config is in the unit of --deg, as a flag is
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(angles))
    code, flagged, _ = run_cli(capsys, "--deg", *argv, *option_tokens(angles))
    assert code == 0
    assert run_cli(capsys, "--config", str(cfg), "--deg", *argv)[:2] == (0, flagged)


def test_deg_pipeline_model_matches_radians(capsys):
    def model_db(*argv):
        code, out, _ = run_cli(capsys, *argv, "--no-traces", "--n-per-phase", "300")
        assert code == 0
        return json.loads(out)["model"]["db"]

    assert model_db("--deg", "pipeline", "--theta", "62.45") == pytest.approx(
        model_db("pipeline", "--theta", "1.08996"), abs=1e-3)


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


# ---------------------------------------------------------------------------
# rerunning onto an existing artifact
# ---------------------------------------------------------------------------

#: argv and output flag of a small run of each way the CLI writes a file.
REWRITES = {
    "traces": (["traces", "--fock", "1", "--events", "12", "--seed", "2"], "--out"),
    "sample": (["sample", "--fock", "1", "--n-per-phase", "50", "--seed", "3"], "--out"),
    "reconstruct": (["reconstruct", "--dim", "3"], "--out"),
    "pipeline": (["pipeline", "--n-per-phase", "200", "--trace-events", "20", "--seed", "4"],
                 "--out"),
    "mode": (["mode"], "--out"),
    "filter-design": (["filter-design"], "--response-out"),
}


def rewrite_argv(tmp_path, command):
    argv, flag = REWRITES[command]
    if command == "reconstruct":
        data = tmp_path / "in.csv"
        assert main(["sample", "--fock", "1", "--n-per-phase", "200", "--seed", "1",
                     "--out", str(data)]) == 0
        argv = [*argv, "--in", str(data)]
    return argv, flag


def write(capsys, argv, flag, path):
    code, _, err = run_cli(capsys, *argv, flag, str(path))
    assert code == 0, err
    return path.read_bytes()


@pytest.mark.parametrize("command", list(REWRITES))
def test_rerun_replaces_the_file_with_fresh_bytes(tmp_path, capsys, command):
    argv, flag = rewrite_argv(tmp_path, command)
    fresh = write(capsys, argv, flag, tmp_path / "fresh")
    out = tmp_path / "out"
    old = b"old bytes\n" * 50_000  # longer than any of the artifacts
    out.write_bytes(old)
    out.chmod(0o600)
    with open(out, "rb") as held:
        assert write(capsys, argv, flag, out) == fresh
        # a truncated file would read the new bytes here
        assert held.read() == old
    assert out.stat().st_mode & 0o777 == 0o600


def test_rerun_writes_through_links(tmp_path, capsys):
    argv, flag = REWRITES["sample"]
    fresh = write(capsys, argv, flag, tmp_path / "fresh.csv")
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target)
    assert write(capsys, argv, flag, link) == fresh
    assert link.is_symlink() and target.read_bytes() == fresh
    out, twin = tmp_path / "out.csv", tmp_path / "twin.csv"
    out.write_text("old\n")
    os.link(out, twin)
    assert write(capsys, argv, flag, out) == fresh
    assert twin.read_bytes() == fresh and out.samefile(twin)


def test_rerun_onto_a_device_writes_through(monkeypatch, capsys):
    def refuse(path, *args, **kwargs):
        raise AssertionError(f"unlinked {path}")

    monkeypatch.setattr(os, "unlink", refuse)
    argv, flag = REWRITES["sample"]
    code, out, err = run_cli(capsys, *argv, flag, os.devnull)
    assert (code, out) == (0, ""), err


@pytest.mark.parametrize("patch", ["unlink", "access"])
def test_rerun_truncates_a_file_it_cannot_replace(tmp_path, monkeypatch, capsys, patch):
    """A failed unlink (say, in a read-only directory) and a file the process
    may not write fall back to truncating the file, as a plain open does."""
    def refuse(path, *args, **kwargs):
        if patch == "access":
            return False
        raise PermissionError(13, "Permission denied", path)

    argv, flag = REWRITES["sample"]
    fresh = write(capsys, argv, flag, tmp_path / "fresh.csv")
    out = tmp_path / "out.csv"
    out.write_bytes(b"old bytes\n" * 50_000)
    monkeypatch.setattr(os, patch, refuse)
    with open(out, "rb") as held:
        assert write(capsys, argv, flag, out) == fresh
        assert held.read() == fresh


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


@pytest.mark.parametrize("text, line", [
    (b"phase_deg,quadrature\n" + b"0.0,1.0\n" * 8 + b"0.0,1.0\xff\n" + b"0.0,1.0\n" * 20, 10),
    (b"phase_deg,quadrature\r\n0.0,1.0\r\n\r\n30.0,\xe2\x82\r\n", 4),
    (b"phase_deg,quadrature\r0.0,1.0\r\xc3\x28,1.0\r", 3),
    (b"phase_deg\xff,quadrature\n0.0,1.0\n", 1),
    (b"phase_deg,quadrature\n0.0,1.0\n30.0,2.0\xe2", 3),
], ids=["lf", "crlf", "cr", "header", "cut-at-end"])
def test_reconstruct_names_a_line_that_is_not_text(tmp_path, capsys, text, line):
    # the decoder fails on a whole read-ahead block; the message names the
    # line as text mode counts lines, the header being line 1
    data = tmp_path / "data.csv"
    data.write_bytes(text)
    with open(data) as fh:
        encoding = fh.encoding
    code, out, err = run_cli(capsys, "reconstruct", "--in", str(data))
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: dataset line {line}: not {encoding} text"]


@pytest.fixture(scope="module")
def small_dataset_file(tmp_path_factory):
    """A directory and the bytes of a `sample` CSV of 6 x 4 rows."""
    folder = tmp_path_factory.mktemp("csv_fuzz")
    path = folder / "data.csv"
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["sample", "--fock", "1", "--n-per-phase", "4", "--seed", "2",
                     "--out", str(path)]) == 0
    return folder, path.read_bytes()


# Appended bytes: any, or a byte-order mark, a NUL, a three-field row and
# non-finite fields.
HOSTILE_TAILS = [b"\xef\xbb\xbf", b"\x00", b"\xff", b"0.0,1.0,2.0\n", b"nan,1.0\n",
                 b"0.0,1e999\n", b"1e308,-1e308\n", b"\r\n\r\n30.0,\r\n"]


@st.composite
def spoiled_files(draw, blob):
    """`blob` cut at any offset, with any byte flipped, or with bytes appended."""
    how = draw(st.sampled_from(["cut", "flip", "append"]))
    if how == "append":
        return blob + draw(st.one_of(st.binary(min_size=1, max_size=16),
                                     st.sampled_from(HOSTILE_TAILS)))
    at = draw(st.integers(0, len(blob) - 1))
    if how == "cut":
        return blob[:at]
    spoiled = bytearray(blob)
    spoiled[at] ^= draw(st.integers(1, 255))
    return bytes(spoiled)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_dataset_reader_fuzz_exits_cleanly(small_dataset_file, data):
    folder, blob = small_dataset_file
    path = folder / "spoiled.csv"
    path.write_bytes(data.draw(spoiled_files(blob)))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["reconstruct", "--in", str(path)])
    # A file can survive its damage, say a flipped digit or a cut at a row's end.
    assert code in (0, 2, 4)
    assert "Traceback" not in err.getvalue()
    assert code == 0 or out.getvalue() == ""


#: A `--config` file for `nlsq` that sets a list, a switch, numbers, a key of
#: another subcommand and a null; one flipped byte leaves every number small.
CONFIG_BLOB = json.dumps({"coeffs": ["0.79", "0-0.61j"], "vacuum": False, "loss": 0.25,
                          "dim": 6, "kappa": 1.0, "order": 3, "events": 9,
                          "phases_deg": None}).encode()


@settings(max_examples=150, deadline=None)
@given(spoiled=spoiled_files(CONFIG_BLOB))
def test_config_reader_fuzz_exits_cleanly(tmp_path_factory, spoiled):
    path = tmp_path_factory.mktemp("config_fuzz") / "cfg.json"
    path.write_bytes(spoiled)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--config", str(path), "nlsq"])
    assert code in (0, 2, 4)
    assert "Traceback" not in err.getvalue()
    assert code == 0 or out.getvalue() == ""


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
    ancilla = nl.noise_moments(nl.make_superposition([0.79, -0.61j], 6))
    assert blob["ancilla_excess"] == pytest.approx(
        variance_from_moments(ancilla, 1.0, 1.0, 3), abs=1e-9)
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
        nl.save_traces(nl.TraceSet(np.zeros((2, 3)), 1e-9, np.zeros(2), np.arange(3) * 1e-9), fh)
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


def _floor_is_not_separated(floor):
    return (f"leading covariance eigenvalue -{floor} is not separated from "
            f"the next one -{floor}; no preferred temporal mode")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dt_ns, sample, cause", [
    (1e-300, 1.0, "vacuum floor 1/(2 dt) is not finite at dt = 1e-309 s"),
    (0.2, 3e38, "trace covariance is not finite: the samples' float32 squares overflow"),
    (1e-165, 1.0, _floor_is_not_separated("5.000e+173")),
    (3.5e-300, 1.0, _floor_is_not_separated("1.429e+308")),
], ids=["subnormal-dt", "huge-samples", "huge-floor", "near-max-floor"])
def test_pca_of_a_hostile_file_is_a_numerical_error(tmp_path, capsys, dt_ns, sample, cause):
    # The first two files used to reach the eigensolver as NaN: a
    # RuntimeWarning from matmul, then "did not converge ... residuals nan".
    # The last two have a finite floor whose square (or twice it) overflowed
    # in the eigensolver: a RuntimeWarning, then "residuals inf".
    n_events, n_bins = 1000, 4
    traces = tmp_path / "hostile.bin"
    values = np.random.default_rng(0).uniform(-1.0, 1.0, (n_events, n_bins)) * sample
    traces.write_bytes(struct.pack("<IId", n_events, n_bins, dt_ns)
                       + values.astype("<f4").tobytes() + np.zeros(n_events).tobytes())
    code, out, err = run_cli(capsys, "pca", "--in", str(traces))
    assert (code, out) == (3, "")
    assert err.splitlines() == [f"numerical error: {cause}"]


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
    code, out, err = run_cli(capsys, "pipeline", "--n-per-phase", "0")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "error: n_per_phase must be at least 1"


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


def test_cli_writes_files_only_through_create():
    """Every write-mode `open` in cli.py is the one in `_create`, so no
    artifact is written by truncating an existing file."""
    tree = ast.parse(pathlib.Path(nl.cli.__file__).read_text())
    create = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_create")
    inside = {id(node) for node in ast.walk(create)}
    writers = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open") or id(node) in inside:
            continue
        modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
        if not all(isinstance(m, ast.Constant) and set(m.value) <= set("rbt") for m in modes):
            writers.append(node.lineno)
    assert writers == []


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
    def built(parser):
        """(name, whether its options were added) of each subparser built."""
        sub = next(a for a in parser._actions if a.dest == "command")
        return [(name, [a.dest for a in sp._actions] != ["help"])
                for name, sp in sub.choices.items()]

    # a leading subcommand name builds only that subparser
    argv = ["gate-noise", "--ancilla", "fock:1", "--kappa", "2"]
    parser = build_parser(argv)
    assert built(parser) == [("gate-noise", True)]
    args = parser.parse_args(argv)
    assert (args.func, args.ancilla, args.kappa) == (cmd_gate_noise, "fock:1", 2.0)
    # any other argv builds all twelve, with the options of those it names
    for argv in (["--help"], [], ["bogus"]):
        assert built(build_parser(argv)) == [(name, False) for name in SUBCOMMANDS]
    # a value that names another subcommand builds its options too, harmlessly
    assert built(build_parser(["--deg", "sample", "--out", "pipeline"])) == [
        (name, name in ("sample", "pipeline")) for name in SUBCOMMANDS]


def _parse(parser, argv):
    """(exit code, stdout, stderr, namespace) of `parser.parse_args(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    code = args = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            # values by repr, so that a parsed nan equals itself
            args = {k: repr(v) for k, v in vars(parser.parse_args(argv)).items()}
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), args


HOSTILE_VALUES = ["nan", "inf", "-0", "1e308", ",", "", "x"]


@st.composite
def cli_argvs(draw):
    """An argv that starts with a subcommand name, a top-level option, help
    or junk, followed by one subcommand's option strings, subcommand names
    and hostile values."""
    name = draw(st.sampled_from(SUBCOMMANDS))
    first = draw(st.sampled_from(SUBCOMMANDS + ["--deg", "--de", "--config", "--co", "-h",
                                                "--help", "--", "bogus", ""]))
    sub = next(a for a in build_parser([name])._actions if a.dest == "command")
    options = sorted(sub.choices[name]._option_string_actions)
    rest = st.sampled_from(options + SUBCOMMANDS + HOSTILE_VALUES)
    return [first, *draw(st.lists(rest, max_size=6))]


@settings(max_examples=300, deadline=None)
@given(cli_argvs())
@example(["optimize", "--bogus"])
@example(["gate-noise", "--deg"])
@example(["pipeline", "1"])
@example(["mode", "--dt-ns", "nan"])
def test_one_subparser_parses_like_all_twelve(argv):
    # "" is no subcommand, so the reference builds all twelve subparsers
    with mock.patch.dict(os.environ, {"COLUMNS": "100"}):
        assert _parse(build_parser(argv), argv) == _parse(build_parser(["", *argv]), argv)


BRACED_NAMES = "{" + ",".join(SUBCOMMANDS) + "}"


@pytest.mark.parametrize("argv", [["--help"], ["--help", "optimize"], ["-h", "sample"]],
                         ids=["help", "help-optimize", "h-sample"])
def test_help_lists_every_subcommand(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "100")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert BRACED_NAMES in out
    assert [name for name, *_ in _SUBCOMMANDS] == SUBCOMMANDS
    for name, help_text, *_ in _SUBCOMMANDS:
        assert re.search(rf"^ +{re.escape(name)} +{re.escape(help_text)}$", out, re.MULTILINE)


@pytest.mark.parametrize("argv,error", [
    ([], "the following arguments are required: command\n"),
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from "),
    (["bogus", "optimize"], "argument command: invalid choice: 'bogus' (choose from "),
    (["optimize", "--bogus"], "unrecognized arguments: --bogus\n"),
], ids=["none", "bogus", "bogus-optimize", "optimize-bogus"])
def test_usage_errors_name_every_subcommand(monkeypatch, capsys, argv, error):
    monkeypatch.setenv("COLUMNS", "100")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    usage, _, message = err.partition("nlsqlab: error: ")
    assert usage.startswith("usage: nlsqlab ") and BRACED_NAMES in usage
    assert message.startswith(error)
    # some Python versions quote the choices and some do not
    listed = re.findall(r"[\w-]+", message[len(error):])
    assert listed == (SUBCOMMANDS if error.endswith("(choose from ") else [])


def test_value_naming_a_subcommand_is_a_value(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "sample", "--vacuum", "--n-per-phase", "3",
                           "--out", "pipeline")
    assert (code, out) == (0, "")
    lines = (tmp_path / "pipeline").read_text().splitlines()
    assert lines[0] == "phase_deg,quadrature"
    assert len(lines) == 1 + 3 * len(nl.tomo.DEFAULT_PHASES)
