"""Smoke test of the benchmark: every workload at tiny size, in both modes,
emits every declared metric; the self-time arithmetic holds on synthetic
nested spans; speed normalisation scales each segment by the kernel runs
around it; a counter that no longer fits the program fails instead of
reading 0; the pipeline's run gate catches a shift no single pass shows; and
the benchmark refuses to run without the program.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s", "throughput", "latency_p50_s", "peak_rss_mb"}
PER_LAYER = {
    "fock.state_new.count", "fock.state_new.self_s", "fock.apply_loss.self_s",
    "fock.wigner.self_s", "nlsq.optimal_nonlinear_variance.count",
    "nlsq.optimal_nonlinear_variance.self_s", "nlsq.noise_moments.self_s",
    "nlsq.evals_per_opt", "nlsq.lambda_at_bound.count",
    "genmodel.rho_theta_phi_L.self_s", "genmodel.fit_phi_L.self_s",
    "temporal.design_matched_filter.self_s", "temporal.composite_mode.count",
    "temporal.mode_overlap.count", "temporal.simulate_traces.self_s",
    "temporal.pca_mode_estimate.self_s", "temporal.save_traces.self_s",
    "temporal.load_traces.self_s", "temporal.save_traces.bytes_computed",
    "temporal.load_traces.bytes_computed", "temporal.simulate_traces.bytes_computed",
    "temporal.pca.cov_bytes_computed", "temporal.realtime_vs_postprocess.self_s",
    "tomo.sample.self_s", "tomo.mle_reconstruct.self_s", "tomo.mle.iters",
    "tomo.mle.s_per_iter", "tomo.mle.converged_ratio", "tomo.mle.ops_per_iter_computed",
    "tomo.mle.bytes_per_iter_computed", "tomo.bootstrap_error.self_s",
    "tomo.dataset_csv.write_s", "tomo.dataset_csv.read_s", "gate.propagate.self_s",
    "gate.required_ancilla_db.self_s", "cli.main.self_s", "trace.overhead_s",
} | {f"{layer}.errors" for layer in spans.LAYERS}


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_declares_every_metric():
    bench = _declared()
    assert {m["name"] for m in bench["end_to_end"]} >= END_TO_END
    assert {m["name"] for m in bench["per_layer"]} >= PER_LAYER
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOAD_NAMES)


def test_self_time_arithmetic_on_nested_spans():
    # pass 0: root [0, 10] with children a [1, 4], b [4, 6] and c [7, 9];
    # a has a child g [2, 3].
    S = [(0, 0, None, "bench.pass", 0.0, 10.0, False, None),
         (0, 1, 0, "x.a", 1.0, 4.0, False, None),
         (0, 2, 0, "x.b", 4.0, 6.0, True, None),
         (0, 3, 0, "y.c", 7.0, 9.0, False, None),
         (0, 4, 1, "x.g", 2.0, 3.0, False, None)]
    got = spans.self_times(S)
    assert got == {0: 10.0 - 7.0, 1: 2.0, 2: 2.0, 3: 2.0, 4: 1.0}
    layers = spans.layer_metrics(S, n_passes=2)
    assert layers["x.a.count"] == 0.5 and layers["x.a.self_s"] == 1.0
    assert layers["bench.pass.self_s"] == 1.5
    # Layer x: a, b and g give (2 + 2 + 1) / 10 of the pass; y gives 2 / 10.
    assert spans.worst_layer_share(S, "bench.pass") == pytest.approx(0.5)


def test_segments_are_scaled_by_the_kernel_runs_around_them(monkeypatch):
    # The kernel reads the reference, then twice it, then the reference
    # again.  Each segment lies between a 1x and a 2x read, so each of its
    # seconds counts as 1 / 1.5 of a second.
    ref = speed.REFERENCE_S
    reads = iter([ref, 2 * ref, ref])
    clock = iter([0.0, 3.0, 3.0, 9.0, 9.0])
    meter = speed.Meter()
    monkeypatch.setattr(speed, "kernel", lambda: next(reads))
    monkeypatch.setattr(speed, "perf_counter", lambda: next(clock))
    meter.start()
    meter.mark()
    raw, normalised = meter.stop()
    assert raw == 9.0
    assert normalised == pytest.approx(3.0 / 1.5 + 6.0 / 1.5)
    assert meter.samples[-3:] == [ref, 2 * ref, ref]
    assert speed.Meter.normalise(2.0, ref, ref) == 2.0


def test_inspector_that_no_longer_fits_fails_the_call():
    tracer = spans.Tracer(package=None)
    # A result without the fields the MLE inspector reads, as after a rename.
    mle = tracer.wrap("tomo.mle_reconstruct", lambda data, dim=5, n_bins=64: object())
    with pytest.raises(AttributeError):
        mle(None)
    assert tracer._stack == []


def test_tail_is_the_highest_percentile_with_ten_beyond():
    tail = run._tail(list(range(1, 26)))  # 25 passes: index 14 of 0..24
    assert tail["value"] == 15 and tail["passes"] == 25 and tail["beyond"] == 10
    assert tail["percentile"] == pytest.approx(58.33, abs=0.01)
    tail = run._tail([3.0, 1.0, 2.0])
    assert tail["value"] == 1.0 and tail["beyond"] == 2


def test_pipeline_run_gate_sees_a_shift_no_pass_would():
    shifted = [{"db_minus_model": 0.15 + 0.01 * k} for k in range(-5, 6)]
    with pytest.raises(workloads.CheckFailed):
        workloads.pipeline_run_check(shifted, tiny=False)
    workloads.pipeline_run_check([{"db_minus_model": 0.03}] * 11, tiny=False)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in _declared()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert report["fail_ratio"] == 0.0 and report["err_db"]["unit"] == "dB"
    assert report["latency_tail"]["unit"] == "s" and report["run_check_failure"] is None
    assert report["kernel_s"]["samples"] >= 2 and report["kernel_s"]["min"] > 0
    assert set(report["environment"]) >= {"nproc", "cpu_model", "python", "numpy",
                                          "scipy", "blas", "blas_threads", "git_commit"}
    if trace:
        assert report["worst_layer_share_of_pass"] <= 1.0 + 1e-9
    else:
        assert result["metrics"]["setup_s"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run("optimize", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
