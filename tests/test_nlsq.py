import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlsqlab as nl
from nlsqlab import fock, nlsq
from nlsqlab.errors import DimensionError, InvalidInputError, NumericalError

import oracles
from strategies import psd_states


def random_state(rng, support, dim):
    g = rng.normal(size=(support, support)) + 1j * rng.normal(size=(support, support))
    block = g @ g.conj().T
    block /= np.trace(block).real
    mat = np.zeros((dim, dim), dtype=complex)
    mat[:support, :support] = block
    return nl.QuantumState(dim, mat)


# ---------------------------------------------------------------------------
# fixed-lambda variance
# ---------------------------------------------------------------------------

def test_vacuum_variance_at_unit_lambda():
    # Var(p) = Var(x^2) = 1/2 for the vacuum, no covariance: 1/2 + 9/2
    assert nl.nonlinear_variance(nl.vacuum(6), 1.0) == pytest.approx(5.0, abs=1e-12)


def test_vacuum_variance_at_stationary_lambda():
    lam, val = oracles.vacuum_optimum_closed_form()
    assert nl.nonlinear_variance(nl.vacuum(6), lam) == pytest.approx(val, abs=1e-12)


def test_single_photon_variance_at_unit_lambda():
    # Var(p) = Var(x^2) = 3/2: 3/2 + 9 * 3/2
    assert nl.nonlinear_variance(nl.fock_state(1, 6), 1.0) == pytest.approx(15.0, abs=1e-12)


def test_variance_input_errors():
    with pytest.raises(InvalidInputError):
        nl.nonlinear_variance(nl.vacuum(6), -1.0)
    with pytest.raises(InvalidInputError):
        nl.nonlinear_variance(nl.vacuum(6), 0.0)
    with pytest.raises(DimensionError):
        nl.noise_moments(nl.QuantumState(1, np.eye(1, dtype=complex)))
    with pytest.raises(InvalidInputError):
        nl.nonlinear_variance(nl.vacuum(6), 1.0, order=2)


@settings(max_examples=200, deadline=None)
@given(psd_states(dims=st.integers(2, 8)), st.integers(3, 5))
def test_noise_moments_match_dense_traces(state, order):
    mom = nl.noise_moments(state, order)
    ref = oracles.dense_noise_moments(state.matrix, order)
    p, p2, xn, xn2, sym = ref
    derived = ((mom.var_p, p2 - p ** 2), (mom.var_xn, xn2 - xn ** 2),
               (mom.cov, sym - p * xn))
    for got, want in (*zip(mom, ref), *derived):
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# lambda optimization
# ---------------------------------------------------------------------------

def test_vacuum_optimum_closed_form():
    lam_ref, val_ref = oracles.vacuum_optimum_closed_form()
    res = nl.optimal_nonlinear_variance(nl.vacuum(6))
    assert res.variance_opt == pytest.approx(val_ref, abs=1e-9)
    assert res.lambda_opt == pytest.approx(lam_ref, abs=1e-6)
    assert res.ratio == pytest.approx(1.0, abs=1e-9)
    assert res.db == pytest.approx(0.0, abs=1e-9)


def test_single_photon_ratio_three():
    res = nl.optimal_nonlinear_variance(nl.fock_state(1, 6))
    assert res.ratio == pytest.approx(3.0, abs=1e-9)
    assert res.db == pytest.approx(10 * np.log10(3.0), abs=1e-9)
    # dense-grid oracle on the hand-derived moments
    _, val_ref = oracles.dense_lambda_min(1.5, 1.5, 0.0)
    assert res.variance_opt == pytest.approx(val_ref, rel=1e-6)


def test_two_level_state_against_grid_oracle():
    state = nl.make_superposition([0.79, -0.61j], 6)
    vp, vx2, cov = oracles.two_level_noise_stats(
        state.matrix[0, 0].real, state.matrix[0, 1], state.matrix[1, 1].real)
    lam_ref, val_ref = oracles.dense_lambda_min(vp, vx2, cov)
    _, vac_ref = oracles.vacuum_optimum_closed_form()
    res = nl.optimal_nonlinear_variance(state)
    assert res.variance_opt == pytest.approx(val_ref, rel=1e-7)
    assert res.lambda_opt == pytest.approx(lam_ref, rel=1e-4)
    assert res.ratio == pytest.approx(val_ref / vac_ref, rel=1e-7)
    assert res.ratio < 0.72 and res.db < -1.4


def test_db_definition_consistency():
    for state in (nl.fock_state(1, 6), nl.make_superposition([0.79, -0.61j], 6)):
        res = nl.optimal_nonlinear_variance(state)
        assert res.db == pytest.approx(10 * np.log10(res.ratio), abs=1e-12)


def test_order_four_vacuum_closed_form():
    # Var(lam p - 4 x^3 / lam^3) for the vacuum: lam^2/2 + 30/lam^6,
    # stationary at lam^8 = 180
    lam_ref = 180.0 ** 0.125
    val_ref = lam_ref ** 2 / 2.0 + 30.0 / lam_ref ** 6
    assert nl.nonlinear_variance(nl.vacuum(8), 1.0, order=4) == pytest.approx(
        0.5 + 16.0 * 15.0 / 8.0, abs=1e-12)
    res = nl.optimal_nonlinear_variance(nl.vacuum(8), order=4)
    assert res.variance_opt == pytest.approx(val_ref, abs=1e-9)
    assert res.lambda_opt == pytest.approx(lam_ref, abs=1e-6)
    assert res.ratio == pytest.approx(1.0, abs=1e-9)


def test_minimizer_validity():
    state = nl.apply_loss(nl.make_superposition([0.7, 0.5j, 0.2], 8), 0.1)
    res = nl.optimal_nonlinear_variance(state)
    for delta in (-1e-3, 1e-3):
        lam = res.lambda_opt * (1 + delta)
        assert nl.nonlinear_variance(state, lam) >= res.variance_opt - 1e-12


def test_squeezed_flag():
    assert not nl.optimal_nonlinear_variance(nl.fock_state(1, 6)).squeezed
    assert nl.optimal_nonlinear_variance(
        nl.make_superposition([0.79, -0.61j], 6)).squeezed


# ---------------------------------------------------------------------------
# nlsq_db examples
# ---------------------------------------------------------------------------

def test_lossy_single_photon_db():
    lossy = nl.apply_loss(nl.fock_state(1, 6), 0.25)
    vp, vx2, cov = oracles.two_level_noise_stats(0.25, 0.0, 0.75)
    assert (vp, vx2) == (pytest.approx(1.25), pytest.approx(1.4375))
    _, val_ref = oracles.dense_lambda_min(vp, vx2, cov)
    _, vac_ref = oracles.vacuum_optimum_closed_form()
    db_ref = 10 * np.log10(val_ref / vac_ref)
    assert nl.nlsq_db(lossy) == pytest.approx(db_ref, abs=1e-6)
    assert nl.nlsq_db(lossy) == pytest.approx(4.18, abs=0.02)


def test_generated_point_db():
    params = nl.GenerationParams(theta=1.09, phi=3 * np.pi / 2, loss=0.25)
    state = nl.rho_theta_phi_L(params, 6)
    block = oracles.lossy_two_level_matrix(1.09, 3 * np.pi / 2, 0.25)
    vp, vx2, cov = oracles.two_level_noise_stats(
        block[0, 0].real, block[0, 1], block[1, 1].real)
    _, val_ref = oracles.dense_lambda_min(vp, vx2, cov)
    _, vac_ref = oracles.vacuum_optimum_closed_form()
    assert nl.nlsq_db(state) == pytest.approx(10 * np.log10(val_ref / vac_ref), abs=1e-6)
    assert nl.nlsq_db(state) == pytest.approx(-0.65, abs=0.02)


# ---------------------------------------------------------------------------
# kappa rescaling
# ---------------------------------------------------------------------------

def test_rescale_identity():
    res = nl.optimal_nonlinear_variance(nl.vacuum(6))
    same = nl.kappa_rescale(res, 1.0)
    assert same == res


def test_rescale_vacuum_matches_direct():
    res = nl.optimal_nonlinear_variance(nl.vacuum(6), kappa=1.0)
    scaled = nl.kappa_rescale(res, 2.0)
    direct = nl.optimal_nonlinear_variance(nl.vacuum(6), kappa=8.0)
    assert scaled.variance_opt == pytest.approx(direct.variance_opt, abs=1e-8)
    assert scaled.variance_opt == pytest.approx(4 * 1.96556, abs=1e-4)
    assert scaled.ratio == pytest.approx(1.0, abs=1e-9)


def test_rescale_random_state_matches_grid_oracle():
    rng = np.random.default_rng(17)
    state = random_state(rng, 2, 6)
    vp, vx2, cov = oracles.two_level_noise_stats(
        state.matrix[0, 0].real, state.matrix[0, 1], state.matrix[1, 1].real)
    res = nl.optimal_nonlinear_variance(state, kappa=1.0)
    scaled = nl.kappa_rescale(res, 0.5)
    assert scaled.kappa == pytest.approx(1.0 / 8.0)
    _, val_ref = oracles.dense_lambda_min(vp, vx2, cov, kappa=1.0 / 8.0)
    assert scaled.variance_opt == pytest.approx(val_ref, rel=1e-7)
    direct = nl.optimal_nonlinear_variance(state, kappa=1.0 / 8.0)
    assert abs(scaled.ratio - direct.ratio) < 1e-9


def test_rescale_rejects_bad_scale():
    res = nl.optimal_nonlinear_variance(nl.vacuum(6))
    with pytest.raises(InvalidInputError):
        nl.kappa_rescale(res, 0.0)
    with pytest.raises(InvalidInputError):
        nl.kappa_rescale(res, -2.0)


def test_ratio_kappa_invariance():
    rng = np.random.default_rng(23)
    for _ in range(20):
        state = random_state(rng, 3, 8)
        base = nl.optimal_nonlinear_variance(state, kappa=1.0).ratio
        for u in (1e-4, 0.3, 0.5, 2.0, 3.0, 1e4):
            other = nl.optimal_nonlinear_variance(state, kappa=u ** 3).ratio
            assert other == pytest.approx(base, rel=1e-12)


def test_rescale_far_from_unit_strength_matches_direct():
    state = nl.make_superposition([0.79, -0.61j], 6)
    res = nl.optimal_nonlinear_variance(state, kappa=1.0)
    for u in (1e-4, 1e4):
        scaled = nl.kappa_rescale(res, u)
        direct = nl.optimal_nonlinear_variance(state, kappa=u ** 3)
        assert scaled.lambda_opt == pytest.approx(direct.lambda_opt, rel=1e-12)
        assert scaled.variance_opt == pytest.approx(direct.variance_opt, rel=1e-12)
        assert scaled.ratio == pytest.approx(direct.ratio, rel=1e-12)


@pytest.mark.parametrize("kappa", [0.0, np.nan, np.inf, -np.inf])
def test_kappa_must_be_finite_and_nonzero(kappa):
    with pytest.raises(InvalidInputError):
        nl.optimal_nonlinear_variance(nl.fock_state(1, 6), kappa=kappa)
    with pytest.raises(InvalidInputError):
        nl.vacuum_optimum(kappa)
    with pytest.raises(InvalidInputError):
        nl.optimize_coefficients(1, kappa=kappa)


@pytest.mark.parametrize("order", [173, 400])
def test_vacuum_optimum_names_an_order_whose_moment_overflows(order):
    # <x^(2N-2)> = (2N-3)!!/2^(N-1) is rounded once from the integer ratio,
    # so only an order whose moment exceeds the float range fails; the
    # float cast of (2N-3)!! alone overflowed from order 157
    assert nl.vacuum_optimum(order=160)[0] > 0
    with pytest.raises(NumericalError, match=f"gate order {order} "):
        nl.vacuum_optimum(order=order)


def test_negative_kappa_accepted():
    # kappa -> -kappa is p -> -p: a p-mirrored state reaches the same ratio
    coeffs = np.array([0.79, -0.61j])
    res = nl.optimal_nonlinear_variance(nl.make_superposition(coeffs, 6), kappa=-1.0)
    mirrored = nl.optimal_nonlinear_variance(nl.make_superposition(coeffs.conj(), 6))
    assert res.ratio == pytest.approx(mirrored.ratio, rel=1e-12)
    assert res.lambda_opt == pytest.approx(mirrored.lambda_opt, rel=1e-12)


def test_lambda_optimum_fails_loudly_beyond_float_range():
    with pytest.raises(NumericalError):
        nl.optimal_nonlinear_variance(nl.fock_state(1, 6), kappa=1e200)


# ---------------------------------------------------------------------------
# Gaussian bound and displacement behavior
# ---------------------------------------------------------------------------

def test_squeezed_vacuum_cannot_beat_vacuum():
    _, vac_ref = oracles.vacuum_optimum_closed_form()
    for db in np.linspace(-10, 10, 9):
        r = db * np.log(10.0) / 20.0
        sv = nl.squeezed_vacuum(r, 140)
        res = nl.optimal_nonlinear_variance(sv)
        assert abs(res.variance_opt - vac_ref) < 1e-6


def test_p_displacement_leaves_variance_unchanged():
    plain = nl.vacuum(40)
    shifted = nl.displace(plain, 0.35j)
    for lam in (0.7, 1.0, 1.62, 2.5):
        assert abs(nl.nonlinear_variance(shifted, lam)
                   - nl.nonlinear_variance(plain, lam)) < 1e-10


def test_x_displacement_never_helps():
    _, vac_ref = oracles.vacuum_optimum_closed_form()
    for amp in (0.1, 0.3, 0.5):
        shifted = nl.displace(nl.vacuum(40), amp)
        assert nl.optimal_nonlinear_variance(shifted).variance_opt >= vac_ref - 1e-9


# ---------------------------------------------------------------------------
# coefficient optimization
# ---------------------------------------------------------------------------

def dense_theta_phi_ratio_oracle(loss, n_theta=161, n_phi=97):
    """Best two-level ratio over a (theta, phi) grid under the lossy model."""
    _, vac_ref = oracles.vacuum_optimum_closed_form()
    best = np.inf
    for theta in np.linspace(0.0, np.pi, n_theta):
        for phi in np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False):
            block = oracles.lossy_two_level_matrix(theta, phi, loss)
            vp, vx2, cov = oracles.two_level_noise_stats(
                block[0, 0].real, block[0, 1], block[1, 1].real)
            _, val = oracles.dense_lambda_min(vp, vx2, cov, n=2001)
            best = min(best, val / vac_ref)
    return best


def test_optimize_single_photon_sector():
    coeffs, res = nl.optimize_coefficients(1)
    assert abs(coeffs[1]) / abs(coeffs[0]) == pytest.approx(0.772, abs=0.02)
    rel_phase = np.angle(coeffs[1] / coeffs[0])
    assert abs((rel_phase + np.pi / 2 + np.pi) % (2 * np.pi) - np.pi) < 0.02
    assert res.ratio == pytest.approx(0.718, abs=0.005)
    oracle_best = dense_theta_phi_ratio_oracle(0.0)
    assert res.ratio <= oracle_best + 1e-6


def test_optimize_vacuum_only():
    coeffs, res = nl.optimize_coefficients(0)
    assert coeffs.tolist() == [1.0 + 0.0j]
    assert res.ratio == pytest.approx(1.0, abs=1e-12)


def test_optimize_under_loss_sits_between_ideal_and_vacuum():
    lossless = nl.optimize_coefficients(1)[1].ratio
    coeffs, res = nl.optimize_coefficients(1, loss=0.5)
    assert lossless < res.ratio < 1.0
    oracle_best = dense_theta_phi_ratio_oracle(0.5)
    assert res.ratio == pytest.approx(oracle_best, abs=2e-4)


def test_optimize_improves_with_photon_number():
    r1 = nl.optimize_coefficients(1)[1].ratio
    r2 = nl.optimize_coefficients(2)[1].ratio
    assert r2 < r1
    assert r2 == pytest.approx(0.5912, abs=0.002)


def test_optimize_reproducible():
    a = nl.optimize_coefficients(1)
    b = nl.optimize_coefficients(1)
    assert np.array_equal(a[0], b[0])
    assert a[1] == b[1]


def nelder_mead_ratio(max_photon, loss, order, starts, seed=0):
    """Best ratio of a multi-start Nelder-Mead over hypersphere angles and
    relative phases of c_0..c_M: a search that can only miss the optimum."""
    from scipy.optimize import minimize

    dim = max(max_photon + 1, 2 * order)

    def ratio(t):
        mags = np.ones(max_photon + 1)
        for k, angle in enumerate(t[:max_photon]):
            mags[k] *= np.cos(angle)
            mags[k + 1:] *= np.sin(angle)
        coeffs = mags * np.exp(1j * np.concatenate([[0.0], t[max_photon:]]))
        state = nl.make_superposition(coeffs, dim)
        if loss is not None:
            state = nl.apply_loss(state, loss)
        return nl.optimal_nonlinear_variance(state, order=order).ratio

    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(starts):
        t0 = np.concatenate([rng.uniform(0.0, np.pi / 2.0, max_photon),
                             rng.uniform(0.0, 2.0 * np.pi, max_photon)])
        best = min(best, minimize(ratio, t0, method="Nelder-Mead",
                                  options={"xatol": 1e-10, "fatol": 1e-13}).fun)
    return best


@pytest.mark.parametrize("max_photon,loss,order", [
    (1, None, 3), (1, 0.25, 3), (2, None, 3), (2, 0.25, 3), (1, None, 4), (1, None, 5),
])
def test_optimize_no_worse_than_nelder_mead(max_photon, loss, order):
    ratio = nl.optimize_coefficients(max_photon, order=order, loss=loss)[1].ratio
    reference = nelder_mead_ratio(max_photon, loss, order, starts=3)
    assert ratio <= reference + 1e-12
    if max_photon == 1:  # a few starts find the M = 1 optimum; at M = 2 most miss
        assert ratio == pytest.approx(reference, abs=1e-6)


def test_optimize_ratio_independent_of_kappa():
    reference = nl.optimize_coefficients(2)[1].ratio
    for kappa in (1e-3, 0.1, 10.0, 1e3):
        assert nl.optimize_coefficients(2, kappa=kappa)[1].ratio == pytest.approx(
            reference, rel=1e-12)


@pytest.mark.parametrize("order", [4, 5])
def test_optimize_higher_orders_improve_with_photon_number(order):
    ratios = []
    for max_photon in (1, 2, 3):
        coeffs, res = nl.optimize_coefficients(max_photon, order=order)
        dim = max(max_photon + 1, 2 * order)
        state = nl.make_superposition(coeffs, dim)
        assert nl.optimal_nonlinear_variance(state, order=order).ratio == res.ratio
        ratios.append(res.ratio)
    assert 1.0 > ratios[0] > ratios[1] > ratios[2]


@pytest.mark.parametrize("max_photon,loss,order,expected", [
    # 32-start Nelder-Mead over the coefficients reaches the same values.
    (1, None, 3, 0.7168215), (1, 0.25, 3, 0.8509278), (2, None, 3, 0.5911550),
    (2, 0.25, 3, 0.7987064), (3, None, 3, 0.5172242),
    # Larger M: the ratios that the grid refined by Nelder-Mead reached.
    (5, None, 3, 0.4310808), (10, None, 3, 0.2907489), (10, None, 4, 0.5558589),
    # The (lambda, m) landscape has several local minima here; refining only
    # the grid's lowest point ends at 0.50095.
    (10, None, 5, 0.4956738),
])
def test_optimize_pinned_ratios(max_photon, loss, order, expected):
    res = nl.optimize_coefficients(max_photon, order=order, loss=loss)[1]
    assert res.ratio == pytest.approx(expected, abs=1e-7)


def test_optimize_refines_once_at_full_loss(monkeypatch):
    # full loss flattens every grid row; one refinement serves them all
    calls = []
    newton_minimize = nlsq._newton_minimize

    def counting_newton_minimize(*args, **kwargs):
        calls.append(args)
        return newton_minimize(*args, **kwargs)

    monkeypatch.setattr(nlsq, "_newton_minimize", counting_newton_minimize)
    res = nl.optimize_coefficients(2, loss=1.0)[1]
    assert len(calls) == 1
    assert res.ratio == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("blocks_dtype", [complex, float], ids=["complex", "real"])
@pytest.mark.parametrize("loss", [None, 0.25])
@pytest.mark.parametrize("order", [3, 4, 5])
@pytest.mark.parametrize("max_photon", [1, 2, 5])
def test_ancilla_eigenvalue_derivatives_match_finite_differences(max_photon, order, loss,
                                                                 blocks_dtype):
    blocks = nlsq._moment_blocks(max_photon + 1, order)
    if loss is not None:
        blocks = tuple(fock.loss_adjoint(b, loss) for b in blocks)
    # the real parts of Hermitian blocks are real symmetric blocks
    blocks = tuple(b.real if blocks_dtype is float else b for b in blocks)
    assert all(b.dtype == np.dtype(blocks_dtype) for b in blocks)
    terms = nlsq._noise_terms(blocks, 1.0, order)

    def lowest(u):
        return nlsq._lowest_eigenvalue_derivatives(*terms, u)[0]

    rng = np.random.default_rng(100 * max_photon + 10 * order + (loss is None))
    # steps that balance truncation against rounding: errors seen were below
    # 3e-9 (gradient) and 2e-6 (Hessian) of the largest Hessian entry
    dg, dh = 1e-5 * np.eye(2), 1e-4 * np.eye(2)
    for u in np.column_stack([rng.uniform(-1.0, 1.0, 4), rng.uniform(-1.5, 1.5, 4)]):
        f, grad, hess = nlsq._lowest_eigenvalue_derivatives(*terms, u)
        assert f == lowest(u)
        fd_grad = [(lowest(u + dg[i]) - lowest(u - dg[i])) / 2e-5 for i in range(2)]
        fd_hess = [[(lowest(u + dh[i] + dh[j]) - lowest(u + dh[i] - dh[j])
                     - lowest(u - dh[i] + dh[j]) + lowest(u - dh[i] - dh[j])) / 4e-8
                    for j in range(2)] for i in range(2)]
        scale = max(1.0, np.abs(hess).max())
        np.testing.assert_allclose(grad, fd_grad, rtol=0, atol=1e-7 * scale)
        np.testing.assert_allclose(hess, fd_hess, rtol=0, atol=2e-5 * scale)


@pytest.mark.parametrize("loss", [None, 0.25, 1.0])
@pytest.mark.parametrize("order", [3, 5])
@pytest.mark.parametrize("max_photon", [1, 2, 3, 10])
def test_ancilla_grid_matches_per_lambda_loop(max_photon, order, loss):
    # full loss makes Y a multiple of the identity, so every grid row is flat
    blocks = nlsq._moment_blocks(max_photon + 1, order)
    if loss is not None:
        blocks = tuple(fock.loss_adjoint(b, loss) for b in blocks)
    terms = nlsq._noise_terms(blocks, 1.0, order)
    log_lams, ms, vals = nlsq._ancilla_grid(*terms)
    ref_lams, ref_ms, ref_vals = oracles.ancilla_grid_per_lambda(
        *terms, n=nlsq.ANCILLA_GRID_POINTS, span=nlsq.ANCILLA_LAMBDA_SPAN)
    assert vals.shape == (nlsq.ANCILLA_GRID_POINTS,) * 2
    np.testing.assert_array_equal(log_lams, ref_lams)
    np.testing.assert_allclose(ms, ref_ms, rtol=1e-12, atol=0)
    # One gemm for every lambda rounds Y^2 differently from one gemv per
    # lambda, and a lowest eigenvalue moves by up to eps times the norm of
    # its matrix: at M = 10, order 5, 127.4 moves by 3e-9 (norm 1.7e8).
    np.testing.assert_allclose(vals, ref_vals, rtol=1e-12,
                               atol=1e-12 * np.abs(ref_vals).max())
    assert oracles.grid_local_minima(vals) == oracles.grid_local_minima(ref_vals)


def test_optimize_newton_step_cap_raises(monkeypatch):
    monkeypatch.setattr(nlsq, "_NEWTON_MAX_STEPS", 1)
    with pytest.raises(NumericalError, match="did not converge") as info:
        nl.optimize_coefficients(1)
    assert type(info.value) is NumericalError


def test_optimize_rejects_negative_photon_count():
    with pytest.raises(InvalidInputError):
        nl.optimize_coefficients(-1)


# ---------------------------------------------------------------------------
# sweep CSV
# ---------------------------------------------------------------------------

def test_sweep_rows_and_csv():
    thetas = np.linspace(0.0, np.pi, 25)
    rows = nl.sweep_rows(thetas, 3 * np.pi / 2, [0.0, 0.25])
    buf = io.StringIO()
    nl.write_sweep_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "theta_rad,phi_rad,loss,ratio,db,lambda_opt"
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert data.shape == (50, 6)

    zero_theta = data[data[:, 0] == 0.0]
    assert np.abs(zero_theta[:, 4]).max() < 1e-9  # 0 dB for every loss

    lossless = data[data[:, 2] == 0.0]
    i_min = int(np.argmin(lossless[:, 4]))
    step = thetas[1] - thetas[0]
    assert abs(lossless[i_min, 0] - 2 * np.arctan(0.61 / 0.79)) <= step
    assert lossless[i_min, 4] == pytest.approx(-1.44, abs=0.03)

    lossy_end = data[(data[:, 2] == 0.25) & (data[:, 0] == thetas[-1])]
    assert lossy_end[0, 4] == pytest.approx(4.18, abs=0.02)
