import math

import numpy as np
import pytest

import nlsqlab as nl
from nlsqlab.errors import InvalidInputError

import oracles


# ---------------------------------------------------------------------------
# herald
# ---------------------------------------------------------------------------

def test_herald_pure_photon_when_displacement_off():
    state = nl.herald(0.1, 0.0, 6)
    assert state.matrix[1, 1].real == pytest.approx(1.0, abs=1e-14)


def test_herald_vacuum_when_squeezing_off():
    state = nl.herald(0.0, 0.1, 6)
    assert state.matrix[0, 0].real == pytest.approx(1.0, abs=1e-14)


def test_herald_ratio_sets_superposition():
    # any (q, alpha) with |q|/|alpha| = 0.61/0.79 and arg(q/alpha) = -pi/2
    target = nl.make_superposition([0.79, -0.61j], 6)
    for scale, phase in [(0.1, 0.0), (0.05, 1.1)]:
        alpha = scale * 0.79 * np.exp(1j * phase)
        q = scale * 0.61 * np.exp(1j * (phase - np.pi / 2))
        state = nl.herald(q, alpha, 6)
        assert np.abs(state.matrix - target.matrix).max() < 1e-12


def test_herald_errors():
    with pytest.raises(InvalidInputError):
        nl.herald(0.0, 0.0)
    with pytest.raises(InvalidInputError):
        nl.herald(0.5, 0.1)  # outside the first-order regime


def test_generation_params_from_herald():
    q, alpha = 0.05j * -1.0, 0.08
    params = nl.GenerationParams.from_herald(q, alpha)
    assert math.tan(params.theta / 2) == pytest.approx(abs(q) / abs(alpha), rel=1e-12)
    assert params.phi == pytest.approx(3 * np.pi / 2, abs=1e-12)


def test_generation_params_validation():
    with pytest.raises(InvalidInputError):
        nl.GenerationParams(theta=-0.1, phi=0.0)
    with pytest.raises(InvalidInputError):
        nl.GenerationParams(theta=4.0, phi=0.0)
    with pytest.raises(InvalidInputError):
        nl.GenerationParams(theta=1.0, phi=0.0, loss=1.2)
    assert nl.GenerationParams(theta=1.0, phi=7.0).phi == pytest.approx(
        7.0 - 2 * np.pi)


# ---------------------------------------------------------------------------
# the lossy two-level model
# ---------------------------------------------------------------------------

def test_model_single_photon_limit():
    params = nl.GenerationParams(theta=np.pi, phi=0.3, loss=0.25)
    state = nl.rho_theta_phi_L(params, 6)
    direct = nl.apply_loss(nl.fock_state(1, 6), 0.25)
    assert np.abs(state.matrix - direct.matrix).max() < 1e-12


def test_model_vacuum_limit():
    for phi, loss in [(0.0, 0.0), (2.0, 0.7)]:
        state = nl.rho_theta_phi_L(nl.GenerationParams(theta=0.0, phi=phi, loss=loss), 6)
        assert state.matrix[0, 0].real == pytest.approx(1.0, abs=1e-14)


def test_model_point_values():
    state = nl.rho_theta_phi_L(
        nl.GenerationParams(theta=1.09, phi=3 * np.pi / 2, loss=0.25), 6)
    ref = oracles.lossy_two_level_matrix(1.09, 3 * np.pi / 2, 0.25)
    assert np.abs(state.matrix[:2, :2] - ref).max() < 1e-14
    assert state.matrix[1, 1].real == pytest.approx(0.2016, abs=2e-4)
    assert abs(state.matrix[0, 1]) == pytest.approx(0.3839, abs=1e-4)


def test_loss_channel_ties_to_model():
    rng = np.random.default_rng(2)
    for _ in range(25):
        theta = rng.uniform(0.0, np.pi)
        phi = rng.uniform(0.0, 2 * np.pi)
        loss = rng.uniform(0.0, 1.0)
        pure = nl.herald(0.2 * np.sin(theta / 2) * np.exp(1j * phi),
                         0.2 * np.cos(theta / 2), 6)
        lossy = nl.apply_loss(pure, loss)
        model = nl.rho_theta_phi_L(nl.GenerationParams(theta=theta, phi=phi, loss=loss), 6)
        assert np.abs(lossy.matrix - model.matrix).max() < 1e-12


# ---------------------------------------------------------------------------
# (phi, L) fitting
# ---------------------------------------------------------------------------

def test_fit_self_consistency():
    truth = nl.rho_theta_phi_L(
        nl.GenerationParams(theta=1.2, phi=3 * np.pi / 2, loss=0.25), 6)
    fit = nl.fit_phi_L(truth, 1.2)
    assert fit.phi == pytest.approx(3 * np.pi / 2, abs=1e-9)
    assert fit.loss == pytest.approx(0.25, abs=1e-9)
    assert fit.residual < 1e-10
    assert fit.phi_reliable and fit.loss_reliable


def test_fit_roundtrip_over_theta_range():
    for theta in np.linspace(0.3, 2.8, 12):
        for phi, loss in [(0.4, 0.1), (3 * np.pi / 2, 0.25), (5.9, 0.6)]:
            truth = nl.rho_theta_phi_L(
                nl.GenerationParams(theta=theta, phi=phi, loss=loss), 6)
            fit = nl.fit_phi_L(truth, theta)
            dphi = (fit.phi - phi + np.pi) % (2 * np.pi) - np.pi
            assert abs(dphi) < 1e-8
            assert abs(fit.loss - loss) < 1e-8


def test_fit_with_perturbation():
    # perturb inside the occupied block so the state stays physical
    rng = np.random.default_rng(11)
    truth = nl.rho_theta_phi_L(
        nl.GenerationParams(theta=1.2, phi=3 * np.pi / 2, loss=0.25), 6)
    for _ in range(20):
        block = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        block = (block + block.conj().T) / 2
        block -= np.eye(2) * np.trace(block) / 2
        noise = np.zeros((6, 6), dtype=complex)
        noise[:2, :2] = block * (1e-3 / np.linalg.norm(block))
        perturbed = nl.QuantumState(6, truth.matrix + noise)
        fit = nl.fit_phi_L(perturbed, 1.2)
        assert abs(fit.phi - 3 * np.pi / 2) < 0.01
        assert abs(fit.loss - 0.25) < 0.01


@pytest.mark.parametrize("theta", [0.0, 1e-6, 0.3, 1.09, 2.0, np.pi - 1e-6, np.pi])
def test_fit_no_worse_than_dense_loss_grid(theta):
    # random physical 2x2 blocks; at theta = 0 the cubic vanishes identically
    rng = np.random.default_rng(int(theta * 1e6) + 5)
    losses = np.linspace(0.0, 1.0, 100001)
    s2 = np.sin(theta / 2) ** 2
    for _ in range(20):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        block = g @ g.conj().T
        block /= np.trace(block).real
        fit = nl.fit_phi_L(nl.QuantumState(2, block), theta)
        eta = 1.0 - losses
        off = 0.5 * np.sin(theta) * np.sqrt(eta) * np.exp(-1j * fit.phi)
        dist_sq = ((block[0, 0].real - (1.0 - eta * s2)) ** 2
                   + (block[1, 1].real - eta * s2) ** 2
                   + 2.0 * np.abs(block[0, 1] - off) ** 2)
        assert fit.residual <= np.sqrt(dist_sq.min()) + 1e-15
        assert 0.0 <= fit.loss <= 1.0


def test_fit_flags_near_edges():
    near_photon = nl.rho_theta_phi_L(
        nl.GenerationParams(theta=np.pi, phi=0.0, loss=0.25), 6)
    assert not nl.fit_phi_L(near_photon, np.pi).phi_reliable
    near_vac = nl.rho_theta_phi_L(
        nl.GenerationParams(theta=0.05, phi=1.0, loss=0.25), 6)
    assert not nl.fit_phi_L(near_vac, 0.05).loss_reliable


def test_fit_rejects_leaky_states():
    mat = np.diag([0.6, 0.2, 0.2, 0.0]).astype(complex)
    with pytest.raises(InvalidInputError):
        nl.fit_phi_L(nl.QuantumState(4, mat), 1.0)


# ---------------------------------------------------------------------------
# count-rate ratio
# ---------------------------------------------------------------------------

def test_count_rate_values():
    assert nl.count_rate_ratio(np.pi / 2) == pytest.approx(2.0, abs=1e-12)
    assert nl.count_rate_ratio(np.pi) == pytest.approx(1.0, abs=1e-12)
    theta = 1.09
    t2 = math.tan(theta / 2) ** 2
    assert nl.count_rate_ratio(theta) == pytest.approx((1 + t2) / t2, rel=1e-12)
    assert nl.count_rate_ratio(theta) == pytest.approx(
        1.0 / math.sin(theta / 2) ** 2, rel=1e-12)


def test_count_rate_divergence_and_domain():
    assert nl.count_rate_ratio(0.0) == math.inf
    with pytest.raises(InvalidInputError):
        nl.count_rate_ratio(-0.1)
    with pytest.raises(InvalidInputError):
        nl.count_rate_ratio(3.5)


# ---------------------------------------------------------------------------
# NLSQ-versus-theta curve shape
# ---------------------------------------------------------------------------

def test_curve_single_minimum_and_endpoints():
    thetas = np.linspace(0.0, np.pi, 41)
    for loss in (0.0, 0.25, 0.5):
        dbs = np.array([
            nl.nlsq_db(nl.rho_theta_phi_L(
                nl.GenerationParams(theta=t, phi=3 * np.pi / 2, loss=loss), 6))
            for t in thetas
        ])
        assert abs(dbs[0]) < 1e-9
        photon_db = nl.nlsq_db(nl.apply_loss(nl.fock_state(1, 6), loss))
        assert dbs[-1] == pytest.approx(photon_db, abs=1e-9)
        falling = np.flatnonzero(np.diff(dbs) < -1e-12)
        rising = np.flatnonzero(np.diff(dbs) > 1e-12)
        assert falling.size and rising.size
        assert falling.max() < rising.min()  # one descent, then one ascent
