import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

import nlsqlab as nl
from nlsqlab.errors import DimensionError, InvalidInputError

import oracles
from strategies import psd_states


def assert_valid_state(state):
    m = state.matrix
    assert np.abs(m - m.conj().T).max() <= 1e-12
    assert abs(np.trace(m) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(m)[0] > -1e-10


def expectation(state, op):
    """Tr(op rho), real part, by an explicit trace."""
    return float(np.trace(op @ state.matrix).real)


def hermiticity_defect(op):
    return np.abs(op - op.conj().T).max()


losses = st.floats(0.0, 1.0)


# ---------------------------------------------------------------------------
# make_superposition
# ---------------------------------------------------------------------------

def test_vacuum_projector():
    state = nl.make_superposition([1], 10)
    assert state.matrix[0, 0].real == pytest.approx(1.0, abs=1e-15)
    assert np.abs(state.matrix).sum() == pytest.approx(1.0, abs=1e-15)


def test_two_level_amplitudes_normalization_oracle():
    c = np.array([0.79, -0.61j])
    c_norm = c / np.linalg.norm(c)
    state = nl.make_superposition([0.79, -0.61j], 10)
    assert state.matrix[0, 0].real == pytest.approx(abs(c_norm[0]) ** 2, abs=1e-12)
    assert state.matrix[1, 1].real == pytest.approx(abs(c_norm[1]) ** 2, abs=1e-12)
    expected_off = c_norm[0] * np.conj(c_norm[1])
    assert state.matrix[0, 1] == pytest.approx(expected_off, abs=1e-12)
    assert expected_off.imag > 0  # -i relative phase lands on +i upper coherence


def test_hand_normalized_pair():
    state = nl.make_superposition([3, 4], 5)
    assert state.matrix[0, 0].real == pytest.approx(9.0 / 25.0, abs=1e-14)
    assert state.matrix[1, 1].real == pytest.approx(16.0 / 25.0, abs=1e-14)


def test_superposition_of_huge_coefficients():
    # |psi|^2 of (1e308, 1e308j) overflows; scaled first, it is 1/2 each.
    state = nl.make_superposition([1e308, 1e308j], 5)
    assert state.matrix[0, 0].real == pytest.approx(0.5, abs=1e-15)
    assert state.matrix[0, 1] == pytest.approx(-0.5j, abs=1e-15)
    assert nl.make_superposition([1e308, 1], 5).matrix[0, 0].real == 1.0


def test_superposition_errors():
    with pytest.raises(InvalidInputError):
        nl.make_superposition([0.0, 0.0], 5)
    with pytest.raises(DimensionError):
        nl.make_superposition([1.0, 2.0, 3.0], 2)


# ---------------------------------------------------------------------------
# quadrature operators
# ---------------------------------------------------------------------------

def test_ladder_element():
    x, _ = nl.quadrature_ops(2)
    assert x[0, 1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)


def test_vacuum_variance_convention():
    x, _ = nl.quadrature_ops(3)
    assert expectation(nl.vacuum(3), x @ x) == pytest.approx(0.5, abs=1e-14)


def test_x4_against_explicit_matrix_power():
    x_ref, _ = oracles.ladder_x_p(10)
    ref = np.linalg.matrix_power(x_ref, 4)[1, 1].real
    assert ref == pytest.approx(oracles.x4_diag(1), abs=1e-12)  # 15/4
    x, _ = nl.quadrature_ops(10)
    x4 = np.linalg.matrix_power(x, 4)
    assert x4[1, 1].real == pytest.approx(ref, abs=1e-12)


def test_quadratures_hermitian_and_commutator():
    dim = 12
    x, p = nl.quadrature_ops(dim)
    assert hermiticity_defect(x) <= 1e-12 and hermiticity_defect(p) <= 1e-12
    assert hermiticity_defect(x @ x) <= 1e-12
    assert not (x.flags.writeable or p.flags.writeable)
    comm = x @ p - p @ x - 1j * np.eye(dim)
    inner = comm[: dim - 2, : dim - 2]
    assert np.linalg.norm(inner) < 1e-10


def test_quadrature_dim_error():
    with pytest.raises(DimensionError):
        nl.quadrature_ops(1)


# ---------------------------------------------------------------------------
# expectation values
# ---------------------------------------------------------------------------

def test_moment_examples():
    dim = 8
    x, p = nl.quadrature_ops(dim)
    assert expectation(nl.vacuum(dim), x @ x) == pytest.approx(0.5, abs=1e-12)
    assert expectation(nl.fock_state(1, dim), p @ p) == pytest.approx(
        oracles.p2_diag(1), abs=1e-12)
    state = nl.make_superposition([0.79, -0.61j], dim)
    mom = oracles.two_level_moments(state.matrix[0, 0].real, state.matrix[0, 1],
                                    state.matrix[1, 1].real)
    assert expectation(state, p) == pytest.approx(mom["p"], abs=1e-12)
    assert mom["p"] < 0  # the -i superposition points along -p


# ---------------------------------------------------------------------------
# loss channel
# ---------------------------------------------------------------------------

def test_single_photon_survival():
    out = nl.apply_loss(nl.fock_state(1, 4), 0.25)
    assert out.matrix[0, 0].real == pytest.approx(0.25, abs=1e-14)
    assert out.matrix[1, 1].real == pytest.approx(0.75, abs=1e-14)


def test_zero_loss_identity():
    rng = np.random.default_rng(1)
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    state = nl.QuantumState(rho)
    out = nl.apply_loss(state, 0.0)
    assert np.abs(out.matrix - state.matrix).max() < 1e-14


def test_loss_matches_two_level_model():
    for theta, phi, loss in [(0.7, 0.3, 0.1), (1.09, 3 * np.pi / 2, 0.25),
                             (2.5, 5.1, 0.6)]:
        pure = nl.make_superposition(
            [np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], 6)
        lossy = nl.apply_loss(pure, loss)
        expected = oracles.lossy_two_level_matrix(theta, phi, loss)
        assert np.abs(lossy.matrix[:2, :2] - expected).max() < 1e-12
        assert np.abs(lossy.matrix[2:, :]).max() < 1e-12


@settings(max_examples=200, deadline=None)
@given(psd_states(), losses, losses)
def test_loss_composition(state, l1, l2):
    # 1 - eta is a float, so the single channel gets eta to within 1e-16; at
    # eta = 5e-17 that error is all of eta, and coherences, which scale as
    # sqrt(eta), move by 4e-9.  Above 1e-10 the move stays below 1e-11.
    eta = (1.0 - l1) * (1.0 - l2)
    assume(eta == 0.0 or eta > 1e-10)
    twice = nl.apply_loss(nl.apply_loss(state, l1), l2)
    once = nl.apply_loss(state, 1.0 - eta)
    assert np.abs(twice.matrix - once.matrix).max() < 1e-10


@settings(max_examples=200, deadline=None)
@given(psd_states(), losses)
def test_loss_preserves_trace_and_positivity(state, loss):
    assert_valid_state(nl.apply_loss(state, loss))


def test_loss_contracts_toward_vacuum():
    rng = np.random.default_rng(9)
    g = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    state = nl.QuantumState(rho)
    vac = nl.vacuum(7)
    fids = [nl.fidelity(nl.apply_loss(state, l), vac)
            for l in np.linspace(0, 1, 11)]
    assert np.all(np.diff(fids) >= -1e-12)
    assert fids[-1] == pytest.approx(1.0, abs=1e-10)


def test_loss_adjoint_is_heisenberg_picture():
    # Tr[E(rho) O] = Tr[rho E^dag(O)] for the pure-loss channel
    from nlsqlab.fock import loss_adjoint

    rng = np.random.default_rng(23)
    for dim in (1, 2, 5, 9):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = g @ g.conj().T
        state = nl.QuantumState(rho / np.trace(rho).real)
        op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for loss in (0.0, rng.uniform(), 1.0):
            schroedinger = np.trace(nl.apply_loss(state, loss).matrix @ op)
            heisenberg = np.trace(state.matrix @ loss_adjoint(op, loss))
            assert heisenberg == pytest.approx(schroedinger, abs=1e-12)
        assert np.allclose(loss_adjoint(np.eye(dim), rng.uniform()), np.eye(dim),
                           atol=1e-14)
        # a stack goes through block by block, bit for bit
        stack = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
        loss = rng.uniform()
        np.testing.assert_array_equal(loss_adjoint(stack, loss),
                                      [loss_adjoint(op, loss) for op in stack])


def test_loss_range_error():
    with pytest.raises(InvalidInputError):
        nl.apply_loss(nl.vacuum(4), 1.5)
    with pytest.raises(InvalidInputError):
        nl.apply_loss(nl.vacuum(4), -0.1)


def test_states_stay_physical_through_operations():
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        state = nl.QuantumState(rho)
        assert_valid_state(nl.apply_loss(state, rng.uniform(0, 1)))


# ---------------------------------------------------------------------------
# Wigner function
# ---------------------------------------------------------------------------

def test_wigner_origin_values():
    assert nl.wigner(nl.vacuum(10), [0.0], [0.0])[0, 0] == pytest.approx(
        1.0 / np.pi, abs=1e-10)
    one = nl.fock_state(1, 10)
    assert nl.wigner(one, [0.0], [0.0])[0, 0] == pytest.approx(
        oracles.parity_wigner_origin(one.matrix), abs=1e-10)
    mixed = nl.QuantumState(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
    assert nl.wigner(mixed, [0.0], [0.0])[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_wigner_normalization():
    xs = np.linspace(-5, 5, 121)
    ps = np.linspace(-5, 5, 121)
    state = nl.make_superposition([0.79, -0.61j], 8)
    w = nl.wigner(state, xs, ps)
    integral = np.trapezoid(np.trapezoid(w, ps, axis=1), xs)
    assert integral == pytest.approx(1.0, abs=1e-3)


def test_wigner_negativity_coexists_with_large_noise_ratio():
    one = nl.fock_state(1, 8)
    assert nl.wigner(one, [0.0], [0.0])[0, 0] < 0
    assert nl.optimal_nonlinear_variance(one).ratio > 1.0


def test_wigner_empty_grid_error():
    with pytest.raises(InvalidInputError):
        nl.wigner(nl.vacuum(4), [], [0.0])


# ---------------------------------------------------------------------------
# log factorials
# ---------------------------------------------------------------------------

@given(st.integers(0, 1000))
def test_log_factorials_match_gammaln(n):
    from nlsqlab.fock import _log_factorials

    np.testing.assert_allclose(_log_factorials(n), gammaln(np.arange(n) + 1.0),
                               rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_roundtrip():
    state = nl.apply_loss(nl.make_superposition([0.6, 0.8j], 5), 0.2)
    blob = json.dumps(nl.state_to_json(state))
    back = nl.state_from_json(json.loads(blob))
    assert back.dim == state.dim
    assert np.abs(back.matrix - state.matrix).max() < 1e-15


def test_state_validation_rejects_bad_matrices():
    with pytest.raises(InvalidInputError):
        nl.QuantumState(np.array([[0.5, 0.5], [0.2, 0.5]]))  # not Hermitian
    with pytest.raises(InvalidInputError):
        nl.QuantumState(np.array([[0.9, 0.0], [0.0, 0.2]]))  # trace != 1
    with pytest.raises(InvalidInputError):
        nl.QuantumState(np.array([[1.2, 0.0], [0.0, -0.2]]))  # negative
    with pytest.raises(InvalidInputError):
        nl.QuantumState(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(DimensionError):
        nl.QuantumState(np.full((2, 3), 0.5))


def test_state_accepts_any_memory_layout():
    rho = nl.make_superposition([0.6, 0.8j], 3).matrix
    state = nl.QuantumState(np.asfortranarray(rho))
    assert np.array_equal(state.matrix, rho)
    assert state.matrix.flags.c_contiguous and not state.matrix.flags.writeable
