import numpy as np
import pytest

import nlsqlab as nl
from nlsqlab.errors import InvalidInputError

import oracles


def vacuum_moments():
    return nl.ModeMoments.from_state(nl.vacuum(6))


def random_state(rng, support=3, dim=8):
    g = rng.normal(size=(support, support)) + 1j * rng.normal(size=(support, support))
    block = g @ g.conj().T
    block /= np.trace(block).real
    mat = np.zeros((dim, dim), dtype=complex)
    mat[:support, :support] = block
    return nl.QuantumState(dim, mat)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_vacuum_moments_values():
    m = vacuum_moments()
    assert m.mean_x == pytest.approx(0.0, abs=1e-14)
    assert m.mean_p == pytest.approx(0.0, abs=1e-14)
    assert m.x2 == pytest.approx(0.5, abs=1e-13)
    assert m.p2 == pytest.approx(0.5, abs=1e-13)
    assert m.x4 == pytest.approx(0.75, abs=1e-13)
    assert m.sym_px2 == pytest.approx(0.0, abs=1e-13)


def test_two_level_moments_match_hand_form():
    state = nl.make_superposition([0.79, -0.61j], 6)
    m = nl.ModeMoments.from_state(state)
    ref = oracles.two_level_moments(state.matrix[0, 0].real, state.matrix[0, 1],
                                    state.matrix[1, 1].real)
    assert m.mean_x == pytest.approx(ref["x"], abs=1e-12)
    assert m.mean_p == pytest.approx(ref["p"], abs=1e-12)
    assert m.x2 == pytest.approx(ref["x2"], abs=1e-12)
    assert m.x4 == pytest.approx(ref["x4"], abs=1e-12)
    assert m.sym_px2 == pytest.approx(ref["sym_px2"], abs=1e-12)


def test_moment_invariants_enforced():
    with pytest.raises(InvalidInputError):
        nl.ModeMoments(mean_x=0, mean_p=0, x2=0.1, p2=0.1, x4=0.05,
                       sym_px2=0)  # Var x * Var p < 1/4
    with pytest.raises(InvalidInputError):
        nl.ModeMoments(mean_x=2.0, mean_p=0, x2=1.0, p2=10.0, x4=5.0,
                       sym_px2=0)  # <x^2> < <x>^2
    with pytest.raises(InvalidInputError):
        nl.ModeMoments(mean_x=0, mean_p=0, x2=1.0, p2=1.0, x4=0.5,
                       sym_px2=0)  # <x^4> < <x^2>^2


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def test_vacuum_everything_budget():
    report = nl.propagate(vacuum_moments(), vacuum_moments(), 0.0, kappa=1.0)
    assert report.ancilla_excess == pytest.approx(5.0, abs=1e-12)
    assert report.sqz_excess == pytest.approx(0.0, abs=1e-15)
    assert report.var_x_out == pytest.approx(0.25, abs=1e-12)
    # hand arithmetic: 2 Var(p) + (9/4) Var(x^2) with vacuum moments
    assert report.ideal_var == pytest.approx(2 * 0.5 + 2.25 * 0.5, abs=1e-12)
    assert report.var_p_out == pytest.approx(report.ideal_var + 5.0, abs=1e-12)


def test_output_variance_decomposes_exactly():
    rng = np.random.default_rng(0)
    inp = nl.ModeMoments.from_state(random_state(rng))
    anc = nl.ModeMoments.from_state(random_state(rng))
    report = nl.propagate(inp, anc, 0.3, kappa=0.8)
    assert report.var_p_out == pytest.approx(
        report.ideal_var + report.ancilla_excess + report.sqz_excess, abs=1e-12)
    assert report.excess == pytest.approx(
        report.ancilla_excess + report.sqz_excess, abs=1e-15)
    # with sqz_var = 0 only the ancilla term remains
    quiet = nl.propagate(inp, anc, 0.0, kappa=0.8)
    assert quiet.sqz_excess == 0.0
    assert quiet.var_p_out == pytest.approx(quiet.ideal_var + quiet.ancilla_excess,
                                            abs=1e-12)


def test_unsqueezed_resource_contribution():
    report = nl.propagate(vacuum_moments(), vacuum_moments(), 0.5, kappa=1.0)
    # independence + Gaussian fourth moment: 9 (<x_in^2> v + v^2/2)
    assert report.sqz_excess == pytest.approx(9.0 * (0.5 * 0.5 + 0.125), abs=1e-12)
    assert report.sqz_excess == pytest.approx(3.375, abs=1e-12)


def test_excess_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(10):
        report = nl.propagate(nl.ModeMoments.from_state(random_state(rng)),
                              nl.ModeMoments.from_state(random_state(rng)),
                              rng.uniform(0, 1), kappa=rng.uniform(0.2, 2.0))
        assert report.excess >= -1e-9


def test_rejects_negative_resource_variance():
    with pytest.raises(InvalidInputError):
        nl.propagate(vacuum_moments(), vacuum_moments(), -0.1)


def test_ancilla_excess_matches_noise_variance():
    rng = np.random.default_rng(1)
    for _ in range(20):
        state = random_state(rng)
        moments = nl.ModeMoments.from_state(state)
        for kappa in (1.0, 0.7):
            report = nl.propagate(vacuum_moments(), moments, 0.0, kappa=kappa)
            direct = nl.nonlinear_variance(state, 1.0, kappa=kappa, order=3)
            assert abs(report.ancilla_excess - direct) < 1e-10


def test_noise_operator_sign_structure():
    # conjugating the state flips the p/x^2 covariance and thus the excess
    plus = nl.make_superposition([0.79, 0.61j], 6)
    minus = nl.make_superposition([0.79, -0.61j], 6)
    ex_plus = nl.ancilla_noise_variance(nl.ModeMoments.from_state(plus), 1.0)
    ex_minus = nl.ancilla_noise_variance(nl.ModeMoments.from_state(minus), 1.0)
    assert ex_minus < ex_plus
    assert ex_minus == pytest.approx(
        nl.nonlinear_variance(minus, 1.0), abs=1e-12)


def test_sqz_contribution_vanishes_monotonically():
    schedule = [1.0, 0.5, 0.1, 0.01, 0.001, 0.0]
    contributions = [
        nl.propagate(vacuum_moments(), vacuum_moments(), v).sqz_excess
        for v in schedule
    ]
    assert np.all(np.diff(contributions) < 0)
    assert contributions[-1] == 0.0


# ---------------------------------------------------------------------------
# required ancilla quality
# ---------------------------------------------------------------------------

def test_required_db_reference_points():
    v_vac, _ = nl.vacuum_optimum(1.0, 3)
    assert nl.required_ancilla_db(v_vac) == pytest.approx(0.0, abs=1e-12)
    assert nl.required_ancilla_db(3 * v_vac) == pytest.approx(4.7712, abs=1e-3)
    assert nl.required_ancilla_db(1.4116) == pytest.approx(-1.44, abs=0.03)


def test_required_db_clips_at_single_photon_optimum():
    v_vac, _ = nl.vacuum_optimum(1.0, 3)
    floor = nl.required_ancilla_db(1e-6)
    assert floor == pytest.approx(-1.44, abs=0.03)
    assert nl.required_ancilla_db(0.5 * v_vac) >= floor


def test_required_db_rejects_nonpositive_target():
    with pytest.raises(InvalidInputError):
        nl.required_ancilla_db(0.0)


def test_report_serialization():
    report = nl.propagate(vacuum_moments(), vacuum_moments(), 0.25)
    blob = report.to_dict()
    assert set(blob) == {"mean_x_out", "mean_p_out", "var_x_out", "var_p_out",
                         "ideal_var", "ancilla_excess", "sqz_excess", "excess"}
    assert all(isinstance(v, float) for v in blob.values())
