"""Acceptance criteria, one test per criterion.

Each test prints a single `criterion N: PASS/FAIL` line (visible with -s or
in captured output) and enforces its runtime budget.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import nlsqlab as nl
from nlsqlab.cli import main as cli_main

import oracles

POINT = nl.GenerationParams(theta=1.09, phi=3 * np.pi / 2, loss=0.25)
PHASES = tuple(np.deg2rad([0, 30, 60, 90, 120, 150]))


@contextmanager
def tracked(number, description, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, (
        f"criterion {number} exceeded its {budget_s}s budget ({elapsed:.1f}s)")
    print(f"criterion {number}: PASS - {description} ({elapsed:.2f}s)")


def random_three_level(rng, dim=8):
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    block = g @ g.conj().T
    block /= np.trace(block).real
    mat = np.zeros((dim, dim), dtype=complex)
    mat[:3, :3] = block
    return nl.QuantumState(dim, mat)


def test_criterion_01_vacuum_baseline():
    with tracked(1, "vacuum baseline variance and optimizing lambda", 1.0):
        res = nl.optimal_nonlinear_variance(nl.vacuum(6), kappa=1.0, order=3)
        assert abs(res.variance_opt - 1.96556) < 1e-3
        assert abs(res.lambda_opt - 18.0 ** (1.0 / 6.0)) < 1e-4


def test_criterion_02_single_photon():
    with tracked(2, "single-photon ratio and lossy value", 1.0):
        res = nl.optimal_nonlinear_variance(nl.fock_state(1, 6))
        assert abs(res.ratio - 3.0) < 1e-6
        assert res.db == pytest.approx(4.7712, abs=1e-3)
        db_lossy = nl.nlsq_db(nl.apply_loss(nl.fock_state(1, 6), 0.25))
        assert abs(db_lossy - 4.18) < 0.02
        assert abs(db_lossy - 4.24) < 0.2  # reported measurement


def test_criterion_03_optimal_single_photon_ancilla():
    with tracked(3, "optimized vacuum/one-photon superposition", 10.0):
        coeffs, res = nl.optimize_coefficients(1, kappa=1.0, order=3)
        assert abs(coeffs[1]) / abs(coeffs[0]) == pytest.approx(0.772, abs=0.02)
        rel_phase = np.angle(coeffs[1] / coeffs[0])
        wrapped = (rel_phase + np.pi / 2 + np.pi) % (2 * np.pi) - np.pi
        assert abs(wrapped) < 0.02
        assert res.ratio == pytest.approx(0.718, abs=0.005)
        assert res.db == pytest.approx(-1.44, abs=0.03)


def test_criterion_04_generated_squeezed_point():
    with tracked(4, "model value at the generated squeezed point", 1.0):
        db = nl.nlsq_db(nl.rho_theta_phi_L(POINT, 6))
        assert abs(db - (-0.65)) < 0.02
        assert abs(db - (-0.59)) < 0.15  # reported measurement


def test_criterion_05_strength_invariance_and_gaussian_bound():
    with tracked(5, "strength invariance and the Gaussian bound", 30.0):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            state = random_three_level(rng)
            base = nl.optimal_nonlinear_variance(state, kappa=1.0).ratio
            for u in (0.3, 0.5, 2.0, 3.0):
                other = nl.optimal_nonlinear_variance(state, kappa=u ** 3).ratio
                assert abs(other - base) < 1e-9
        vac_opt, _ = nl.vacuum_optimum(1.0, 3)
        for db in np.linspace(-10.0, 10.0, 21):
            r = db * np.log(10.0) / 20.0
            res = nl.optimal_nonlinear_variance(nl.squeezed_vacuum(r, 140))
            assert abs(res.variance_opt - vac_opt) < 1e-6


def test_criterion_06_loss_model_identity():
    with tracked(6, "loss channel reproduces the two-level mixed model", 5.0):
        worst = 0.0
        for loss in (0.0, 0.25, 0.5):
            for theta in np.linspace(0.0, np.pi, 20):
                for phi in np.linspace(0.0, 2 * np.pi, 20, endpoint=False):
                    pure = nl.make_superposition(
                        [np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], 6)
                    lossy = nl.apply_loss(pure, loss)
                    ref = oracles.lossy_two_level_matrix(theta, phi, loss)
                    worst = max(worst, np.abs(lossy.matrix[:2, :2] - ref).max())
                    worst = max(worst, np.abs(lossy.matrix[2:, :]).max())
        assert worst < 1e-12


def test_criterion_07_tomography_roundtrip():
    with tracked(7, "six-phase tomography round trip at full scale", 60.0):
        truth = nl.rho_theta_phi_L(POINT, 5)
        data = nl.sample(truth, phases=PHASES, n_per_phase=21000, seed=11)
        result = nl.mle_reconstruct(data, dim=5)
        assert nl.fidelity(result.state, truth) >= 0.99
        db_rec = nl.nlsq_db(result.state)
        db_true = nl.nlsq_db(truth)
        assert abs(db_rec - db_true) <= 0.1
        gains = np.diff(result.loglik_trace)
        assert gains.min() > -1e-10 * abs(result.loglik)


def test_criterion_08_temporal_modes():
    with tracked(8, "matched filter, mode estimation, real-time readout", 120.0):
        grid = nl.default_grid()
        mode = nl.composite_mode(nl.default_gammas(), 0.0, grid)
        filt = nl.design_matched_filter(mode)
        assert filt.overlap >= 0.97
        traces = nl.simulate_traces(nl.fock_state(1, 5), mode, 10000, PHASES,
                                    seed=4)
        est = nl.pca_mode_estimate(traces, window=(-30e-9, 0.0))
        assert nl.mode_overlap(est, mode) >= 0.98
        corr = nl.realtime_vs_postprocess(traces, filt, mode)
        assert len(corr) == len(PHASES)
        for r in corr.values():
            assert r >= 0.98


def test_criterion_09_gate_noise_budget():
    with tracked(9, "gate noise budget and its nlsq consistency", 5.0):
        vac = nl.ModeMoments.from_state(nl.vacuum(6))
        report = nl.propagate(vac, vac, 0.0, kappa=1.0)
        assert abs(report.ancilla_excess - 5.0) < 1e-9
        rng = np.random.default_rng(77)
        for _ in range(20):
            state = random_three_level(rng)
            excess = nl.propagate(
                vac, nl.ModeMoments.from_state(state), 0.0).ancilla_excess
            assert abs(excess - nl.nonlinear_variance(state, 1.0)) < 1e-10
        schedule = [1.0, 0.3, 0.1, 0.03, 0.01, 0.0]
        contributions = [nl.propagate(vac, vac, v).sqz_excess for v in schedule]
        assert np.all(np.diff(contributions) < 0)
        assert contributions[-1] == 0.0


def test_criterion_10_determinism(tmp_path, capsys):
    with tracked(10, "byte-identical artifacts under a fixed master seed", 60.0):
        # phase-tagged quadrature dataset via the CLI
        csv_bytes = []
        for name in ("d1.csv", "d2.csv"):
            path = tmp_path / name
            assert cli_main(["sample", "--theta", "1.09", "--phi", "4.712",
                             "--loss", "0.25", "--n-per-phase", "2000",
                             "--seed", "33", "--out", str(path)]) == 0
            csv_bytes.append(path.read_bytes())
        assert csv_bytes[0] == csv_bytes[1]

        # binary trace sets via the library
        mode = nl.composite_mode(nl.default_gammas(), 0.0, nl.default_grid())
        blobs = []
        for name in ("t1.bin", "t2.bin"):
            ts = nl.simulate_traces(nl.fock_state(1, 5), mode, 600, PHASES,
                                    seed=12)
            path = tmp_path / name
            with open(path, "wb") as fh:
                nl.save_traces(ts, fh)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

        # full pipeline reports via the CLI
        reports = []
        for name in ("p1.json", "p2.json"):
            path = tmp_path / name
            assert cli_main(["pipeline", "--n-per-phase", "1500",
                             "--trace-events", "250", "--seed", "8",
                             "--out", str(path)]) == 0
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]
        json.loads(reports[0])  # remains valid JSON
        capsys.readouterr()
