import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nlsqlab as nl
from nlsqlab import tomo
from nlsqlab.errors import DimensionError, InvalidInputError, TruncationError

import oracles
from strategies import psd_states

POINT = nl.GenerationParams(theta=1.09, phi=3 * np.pi / 2, loss=0.25)


# ---------------------------------------------------------------------------
# quadrature pdf
# ---------------------------------------------------------------------------

def test_vacuum_pdf_is_normal():
    x = np.linspace(-8, 8, 3001)
    for phase in (0.0, 0.9):
        pdf = nl.quadrature_pdf(nl.vacuum(5), phase, x)
        assert np.abs(pdf - oracles.vacuum_pdf(x)).max() < 1e-12
        assert np.trapezoid(pdf, x) == pytest.approx(1.0, abs=1e-6)
        assert np.trapezoid(pdf * x ** 2, x) == pytest.approx(0.5, abs=1e-9)


def test_one_photon_pdf_has_node():
    x = np.linspace(-8, 8, 3001)
    pdf = nl.quadrature_pdf(nl.fock_state(1, 5), 1.3, x)
    assert nl.quadrature_pdf(nl.fock_state(1, 5), 1.3, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert np.abs(pdf - oracles.one_photon_pdf(x)).max() < 1e-12


def test_pdf_phase_dependence_tracks_coherence():
    x = np.linspace(-8, 8, 2001)
    coherent_state = nl.rho_theta_phi_L(POINT, 5)
    p0 = nl.quadrature_pdf(coherent_state, 0.0, x)
    p90 = nl.quadrature_pdf(coherent_state, np.pi / 2, x)
    mean0 = np.trapezoid(p0 * x, x)
    mean90 = np.trapezoid(p90 * x, x)
    # at phi = 3pi/2 the mean lives in the rotated quadrature only
    assert mean0 == pytest.approx(0.0, abs=1e-9)
    assert mean90 == pytest.approx(np.sqrt(2) * abs(coherent_state.matrix[0, 1]),
                                   abs=1e-9)
    incoherent = nl.QuantumState(np.diag([0.75, 0.25, 0, 0, 0]).astype(complex))
    q0 = nl.quadrature_pdf(incoherent, 0.0, x)
    q90 = nl.quadrature_pdf(incoherent, np.pi / 2, x)
    assert np.abs(q0 - q90).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(psd_states(), st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=6)))
def test_pdf_matches_the_einsum_contraction(state, phases):
    # The two contractions sum the same dim^2 terms in other orders, so they
    # may differ by dim^2 rounding errors of the largest partial sum.
    x = np.linspace(-8.0, 8.0, 1001)
    ref, scale = oracles.quadrature_pdf_einsum(state.matrix, phases[0], x)
    got = nl.quadrature_pdf(state, phases[0], x)
    assert np.all(np.abs(got - ref) <= 2 * state.dim ** 2 * np.finfo(float).eps * scale)
    # The sampler's CDF rows, unsorted phases and repeats included, against
    # the trapezoid rule on the complex reference at each row's phase.
    grid, cdf = tomo._cdf_tables(state, np.array(phases))
    assert np.array_equal(grid, np.linspace(*tomo.SAMPLER_SUPPORT, tomo.SAMPLER_POINTS))
    for phase, row in zip(phases, cdf):
        pdf = oracles.quadrature_pdf_einsum(state.matrix, phase, grid)[0]
        ref = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0 * np.diff(grid))])
        assert np.abs(row - ref / ref[-1]).max() <= 1e-12


def test_pdf_matches_wigner_marginals():
    # the phase-space and quadrature-distribution conventions must agree:
    # integrating W over p gives the phase-0 distribution, integrating over x
    # gives the phase-pi/2 distribution mirrored (x_theta = x cos - p sin)
    state = nl.rho_theta_phi_L(POINT, 8)
    xs = np.linspace(-6, 6, 301)
    ps = np.linspace(-6, 6, 301)
    w = nl.wigner(state, xs, ps)
    marg_x = np.trapezoid(w, ps, axis=1)
    assert np.abs(marg_x - nl.quadrature_pdf(state, 0.0, xs)).max() < 1e-12
    marg_p = np.trapezoid(w, xs, axis=0)
    assert np.abs(marg_p - nl.quadrature_pdf(state, np.pi / 2, -ps)).max() < 1e-12


def test_mle_with_alternate_phases_and_binning():
    truth = nl.rho_theta_phi_L(POINT, 4)
    phases = np.deg2rad([0.0, 45.0, 90.0, 135.0])
    ds = nl.sample(truth, phases=phases, n_per_phase=8000, seed=14)
    res = nl.mle_reconstruct(ds, dim=4, n_bins=128)
    assert nl.fidelity(res.state, truth) >= 0.99


# ---------------------------------------------------------------------------
# datasets and sampling
# ---------------------------------------------------------------------------

def test_dataset_folds_phases():
    ds = nl.TomographyDataset(phases=[0.2, np.pi + 0.2, 2 * np.pi - 0.1],
                              values=[1.0, 1.0, 2.0])
    assert np.all(ds.phases >= 0) and np.all(ds.phases < np.pi)
    assert ds.values[1] == -1.0  # folding by pi flips the sign
    assert ds.values[2] == -2.0


def test_dataset_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        nl.TomographyDataset(phases=[0.1], values=[1.0, 2.0])
    with pytest.raises(InvalidInputError):
        nl.TomographyDataset(phases=[0.1], values=[np.nan])


@pytest.mark.parametrize("phases", [[0.1, 0.2, 0.3], [0.1, np.pi + 0.2, 0.3]],
                         ids=["no-flip", "flip"])
def test_dataset_leaves_the_caller_arrays_alone(phases):
    phases = np.array(phases)
    values = np.array([1.0, -2.0, 3.0])
    before = phases.copy(), values.copy()
    ds = nl.TomographyDataset(phases=phases, values=values)
    assert phases.flags.writeable and values.flags.writeable
    assert not (np.shares_memory(ds.phases, phases) or np.shares_memory(ds.values, values))
    assert not (ds.phases.flags.writeable or ds.values.flags.writeable)
    assert np.array_equal(phases, before[0]) and np.array_equal(values, before[1])


EDGE_PHASES = [-0.0, -1e-300, np.pi, np.nextafter(2.0 * np.pi, 0.0), 2.0 * np.pi]


@given(st.lists(st.tuples(st.floats(-20.0, 20.0), st.floats(-1e3, 1e3)), min_size=1))
@example([(p, v) for p in EDGE_PHASES for v in (0.0, -0.0, 1.5)])
def test_dataset_fold_is_the_where_formula_bit_for_bit(rows):
    phases, values = map(np.array, zip(*rows))
    ds = nl.TomographyDataset(phases=phases, values=values)
    want = oracles.fold_dataset(phases, values)
    assert ds.phases.tobytes() == want[0].tobytes()
    assert ds.values.tobytes() == want[1].tobytes()


def test_dataset_fold_makes_no_full_size_temporary():
    # Two new float64 arrays stay, and one bool mask at a time (1/16 of
    # them) is made beside them.  The np.where fold peaked at 1.56 times
    # their size.
    rng = np.random.default_rng(0)
    phases, values = rng.uniform(-10.0, 10.0, 126000), rng.normal(size=126000)
    tracemalloc.start()
    try:
        nl.TomographyDataset(phases=phases, values=values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.125 * (phases.nbytes + values.nbytes)


def test_sample_moments_vacuum():
    ds = nl.sample(nl.vacuum(5), n_per_phase=21000, seed=0)
    assert len(ds) == 6 * 21000
    for phase in ds.unique_phases():
        vals = ds.values[ds.phases == phase]
        bound = 3.0 * 0.5 * np.sqrt(2.0 / vals.size)
        assert abs(vals.var() - 0.5) < bound


def test_sample_moments_single_photon():
    ds = nl.sample(nl.fock_state(1, 5), n_per_phase=21000, seed=2)
    # Var(q^2) = <x^4> - <x^2>^2 = 15/4 - 9/4
    se_var = np.sqrt((oracles.x4_diag(1) - 1.5 ** 2) / 21000)
    for phase in ds.unique_phases():
        vals = ds.values[ds.phases == phase]
        assert abs(vals.mean()) < 3.0 * np.sqrt(1.5 / vals.size)
        assert abs(vals.var() - 1.5) < 3.0 * se_var


def test_sample_deterministic_bytes():
    out = []
    for _ in range(2):
        buf = io.StringIO()
        nl.write_dataset_csv(nl.sample(nl.vacuum(5), n_per_phase=200, seed=9), buf)
        out.append(buf.getvalue())
    assert out[0] == out[1]


def test_sample_requires_events():
    with pytest.raises(InvalidInputError):
        nl.sample(nl.vacuum(5), n_per_phase=0)


@pytest.mark.parametrize("phases, message", [
    ([], "need at least one LO phase"), ([0.0, np.nan], "LO phase nan is not finite"),
    ([np.inf], "LO phase inf is not finite")], ids=["empty", "nan", "inf"])
def test_sample_rejects_bad_phases(phases, message):
    with pytest.raises(InvalidInputError, match=message):
        nl.sample(nl.vacuum(5), phases=phases, n_per_phase=10)


@pytest.mark.parametrize("n", [20, 30, 40])
def test_sampler_rejects_mass_outside_its_support(n):
    # |n> reaches past x = 8 for n of about 20 and more; the sampler would
    # otherwise renormalise what its support holds and drop the rest
    with pytest.raises(TruncationError, match="holds only"):
        nl.sample(nl.fock_state(n, n + 1), n_per_phase=10)
    # every phase falls short; the message names the first in ascending order
    with pytest.raises(TruncationError, match=r"at phase 0\.5 "):
        nl.sample(nl.fock_state(n, n + 1), phases=[1.0, 0.5], n_per_phase=10)
    mode = nl.composite_mode(nl.default_gammas(), 0.0, nl.default_grid())
    with pytest.raises(TruncationError, match="holds only"):
        nl.simulate_traces(nl.fock_state(n, n + 1), mode, 10, [0.0])


def test_sampler_accepts_states_inside_its_support():
    assert len(nl.sample(nl.fock_state(10, 11), n_per_phase=10)) == 60


@pytest.mark.parametrize("layout", ["blocks", "cyclic"])
def test_draw_equals_per_element_interp_bit_for_bit(layout):
    # _draw sorts each phase's uniforms before np.interp; every value must
    # be the one a lone np.interp call gives, ties and flat tails included.
    # `blocks` is the layout of sample and simulate_readout, `cyclic` the
    # np.resize order of simulate_traces.
    rng = np.random.default_rng(27)
    lo = np.array([0.0, 0.7, 1.9, 3.5])
    n = 4 * 600
    phases = np.repeat(lo, n // lo.size) if layout == "blocks" else np.resize(lo, n)
    for dim in (2, 3, 5, 8, 12):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        g = g[:, :rng.integers(1, dim + 1)]
        rho = g @ g.conj().T
        state = nl.QuantumState(rho / np.trace(rho).real)
        x, cdf = tomo._cdf_tables(state, lo)
        tables = {p: (x, row) for p, row in zip(lo, cdf)}
        u = rng.random(n)
        # exact table values, the top of the table (where the CDF is flat at
        # 1.0) among them, at the slot's own phase
        exact = rng.choice(n, 300, replace=False)
        for i, k in zip(exact, rng.integers(0, tomo.SAMPLER_POINTS, exact.size)):
            u[i] = tables[phases[i]][1][k]
        u[exact[:20]] = [tables[phases[i]][1][-1 - j] for j, i in enumerate(exact[:20])]
        # repeats across and within phases, and exact zeros
        u[rng.choice(n, 200)] = u[rng.choice(n, 200)]
        u[rng.choice(n, 40)] = 0.0
        expected = np.array([np.interp(ui, tables[p][1], tables[p][0])
                             for p, ui in zip(phases, u)])
        assert tomo._draw(state, phases, u).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# maximum-likelihood reconstruction
# ---------------------------------------------------------------------------

def test_mle_recovers_vacuum():
    ds = nl.sample(nl.vacuum(5), seed=3)
    res = nl.mle_reconstruct(ds, dim=5)
    assert nl.fidelity(res.state, nl.vacuum(5)) >= 0.999


def test_mle_empty_dataset():
    with pytest.raises(InvalidInputError):
        nl.mle_reconstruct(nl.TomographyDataset(phases=[], values=[]), dim=4)
    with pytest.raises(DimensionError):
        nl.mle_reconstruct(nl.sample(nl.vacuum(4), n_per_phase=10, seed=0), dim=1)


def test_mle_loglik_monotone_and_physical_prefixes():
    ds = nl.sample(nl.rho_theta_phi_L(POINT, 5), n_per_phase=4000, seed=3)
    res = nl.mle_reconstruct(ds, dim=5)
    gains = np.diff(res.loglik_trace)
    assert gains.min() > -1e-10 * abs(res.loglik)
    # the state after each early iteration is already a physical state
    for k in (1, 2, 3, 5, 10):
        partial = nl.mle_reconstruct(ds, dim=5, max_iters=k, tol=0.0)
        m = partial.state.matrix
        assert np.abs(m - m.conj().T).max() <= 1e-12
        assert np.linalg.eigvalsh(m)[0] > -1e-10


@settings(max_examples=50, deadline=None)
@given(psd_states(), st.integers(10, 300), st.integers(0, 2**32 - 1))
@example(nl.fock_state(10, 11), 50, 10)
def test_mle_returns_a_state_and_never_lowers_the_likelihood(truth, n_per_phase, seed):
    data = nl.sample(truth, n_per_phase=n_per_phase, seed=seed)
    for dim in (2, truth.dim, 8):
        res = nl.mle_reconstruct(data, dim=dim)
        m = res.state.matrix
        assert np.abs(m - m.conj().T).max() <= 1e-12
        assert abs(np.trace(m) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(m)[0] >= -1e-10
        assert np.all(np.diff(res.loglik_trace) >= 0.0)


def test_mle_undoes_a_step_that_lowers_the_likelihood():
    # At dim 2 one R*rho*R step of this fit lowers its likelihood.
    data = nl.sample(nl.fock_state(10, 11), n_per_phase=50, seed=10)
    res = nl.mle_reconstruct(data, dim=2)
    assert res.converged
    assert np.all(np.diff(res.loglik_trace) >= 0.0)
    # The state returned is the one whose likelihood ends the trace: a run
    # stopped there by max_iters returns it too.
    same = nl.mle_reconstruct(data, dim=2, max_iters=res.iters, tol=0.0)
    assert same.state.matrix.tobytes() == res.state.matrix.tobytes()
    assert np.array_equal(same.loglik_trace, res.loglik_trace)


def binned_loglik(data, state):
    """log L of `state` on the MLE cells of `data`, with the probability floor."""
    P, cell = tomo._binned(data, state.dim, tomo.MLE_BINS)
    counts = np.bincount(cell[cell >= 0], minlength=len(P))
    keep = counts > 0
    pr = np.einsum("jmn,nm->j", P.reshape(-1, state.dim, state.dim)[keep], state.matrix).real
    return float(counts[keep] @ np.log(np.maximum(pr, tomo.MLE_PROB_FLOOR)))


@settings(max_examples=30, deadline=None)
@given(psd_states(), st.integers(10, 300), st.integers(0, 2**32 - 1))
def test_mle_loglik_is_the_returned_states_own(truth, n_per_phase, seed):
    data = nl.sample(truth, n_per_phase=n_per_phase, seed=seed)
    for max_iters in (1, 2, 7, tomo.MLE_MAX_ITERS):
        res = nl.mle_reconstruct(data, dim=truth.dim, max_iters=max_iters)
        assert binned_loglik(data, res.state) == pytest.approx(res.loglik, rel=1e-12)


def test_mle_phase_recovery_with_six_phases():
    truth = nl.rho_theta_phi_L(POINT, 5)
    ds = nl.sample(truth, seed=4)
    res = nl.mle_reconstruct(ds, dim=5)
    d = np.angle(res.state.matrix[0, 1]) - np.angle(truth.matrix[0, 1])
    assert abs((d + np.pi) % (2 * np.pi) - np.pi) < 0.05


def test_mle_consistency_in_sample_size():
    truth = nl.rho_theta_phi_L(POINT, 5)
    sizes = (1000, 5000, 21000)
    seeds = range(6)
    means = []
    for n in sizes:
        fids = [nl.fidelity(nl.mle_reconstruct(
            nl.sample(truth, n_per_phase=n, seed=s), dim=5).state, truth)
            for s in seeds]
        means.append(np.mean(fids))
    assert means[0] < means[1] + 5e-4
    assert means[1] < means[2] + 5e-4


def test_mle_nonconvergence_is_flagged_not_raised():
    ds = nl.sample(nl.rho_theta_phi_L(POINT, 5), n_per_phase=2000, seed=5)
    res = nl.mle_reconstruct(ds, dim=5, max_iters=3, tol=0.0)
    assert not res.converged
    assert any("convergence" in w for w in res.warnings)
    assert res.report()["warnings"]


def test_mle_flags_population_at_the_cutoff():
    # <n> = 4: at dim 5 the estimate piles 31 % onto |4>
    ds = nl.sample(nl.QuantumState(oracles.coherent_state(2.0, 30)), n_per_phase=5000,
                   seed=0)
    res = nl.mle_reconstruct(ds, dim=5)
    assert res.warnings == ("population 0.31 on the top level |4> exceeds 0.01: "
                            "dim 5 may cut the state off",)
    assert res.report()["warnings"] == list(res.warnings)
    assert nl.mle_reconstruct(ds, dim=20).warnings == ()


@pytest.mark.parametrize("seed", range(6))
def test_mle_at_the_paper_point_stays_below_the_cutoff_warning(seed):
    ds = nl.sample(nl.rho_theta_phi_L(POINT, 5), n_per_phase=1000, seed=seed)
    res = nl.mle_reconstruct(ds, dim=5)
    assert res.state.matrix[-1, -1].real <= 2e-3
    assert res.warnings == ()


@pytest.mark.parametrize("n_per_phase", [1000, 21000])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dim", [3, 5, 10])
def test_mle_loglik_rises_at_every_step(dim, seed, n_per_phase):
    ds = nl.sample(nl.rho_theta_phi_L(POINT, dim), n_per_phase=n_per_phase, seed=seed)
    res = nl.mle_reconstruct(ds, dim=dim)
    assert res.converged
    assert np.diff(res.loglik_trace).min() > 0


def test_mle_rejects_degenerate_input():
    ds = nl.sample(nl.vacuum(4), n_per_phase=50, seed=0)
    with pytest.raises(InvalidInputError):
        nl.mle_reconstruct(ds, dim=4, max_iters=0)
    with pytest.raises(InvalidInputError):
        nl.mle_reconstruct(ds, dim=4, n_bins=0)
    outside = nl.TomographyDataset(phases=[0.0, 0.5], values=[7.0, -9.0])
    with pytest.raises(InvalidInputError):
        nl.mle_reconstruct(outside, dim=4)
    with pytest.raises(InvalidInputError):
        nl.bootstrap_error(outside, dim=4, n_resamples=2)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_mle_rejects_impossible_tolerance(tol):
    ds = nl.sample(nl.vacuum(4), n_per_phase=50, seed=0)
    with pytest.raises(InvalidInputError, match="tolerance must be finite and >= 0"):
        nl.mle_reconstruct(ds, dim=4, tol=tol)


# ---------------------------------------------------------------------------
# the matrix-vector kernel against the einsum reference
# ---------------------------------------------------------------------------

def assert_same_mle(res, ref):
    rho, iters, trace, converged, warnings = ref
    assert res.iters == iters
    assert res.converged == converged
    assert res.warnings == warnings
    assert np.abs(res.loglik_trace / trace - 1.0).max() <= 1e-12
    assert np.abs(res.state.matrix - rho).max() <= 1e-12


@pytest.mark.parametrize("dim, n_per_phase", [(2, 3000), (5, 3000), (10, 21000)])
def test_mle_matches_einsum_reference(dim, n_per_phase):
    ds = nl.sample(nl.rho_theta_phi_L(POINT, dim), n_per_phase=n_per_phase, seed=11)
    assert_same_mle(nl.mle_reconstruct(ds, dim=dim),
                    oracles.mle_einsum(ds.phases, ds.values, dim))


def test_mle_matches_einsum_reference_nondefault_binning():
    binning = {"n_bins": 128}
    ds = nl.sample(nl.rho_theta_phi_L(POINT, 5), n_per_phase=3000, seed=12)
    assert_same_mle(nl.mle_reconstruct(ds, dim=5, **binning),
                    oracles.mle_einsum(ds.phases, ds.values, 5, **binning))
    # stopped by max_iters: the same iterate and the same warning
    assert_same_mle(nl.mle_reconstruct(ds, dim=5, max_iters=7, **binning),
                    oracles.mle_einsum(ds.phases, ds.values, 5, max_iters=7, **binning))


def edge_dataset(n_per_phase=3000, n_bins=tomo.MLE_BINS):
    """Sampled data plus every bin edge (the last one included), the two
    float neighbours of each edge and three values outside the support,
    spread over the six phases."""
    base = nl.sample(nl.rho_theta_phi_L(POINT, 5), n_per_phase=n_per_phase, seed=13)
    lo, hi = tomo.MLE_SUPPORT
    edges = np.linspace(lo, hi, n_bins + 1)
    extra = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
                            [lo - 1.5, hi + 0.5, 40.0]])
    return nl.TomographyDataset(
        phases=np.concatenate([base.phases, np.resize(base.unique_phases(), extra.size)]),
        values=np.concatenate([base.values, extra]))


# The arithmetic bin index needs its downward correction at edges of all
# three binnings, and its upward one at edges of the last two.
@pytest.mark.parametrize("binning", [{}, {"n_bins": 100}, {"n_bins": 9}])
def test_mle_matches_einsum_reference_at_edges_and_outside(binning):
    ds = edge_dataset(**binning)
    res = nl.mle_reconstruct(ds, dim=5, **binning)
    assert_same_mle(res, oracles.mle_einsum(ds.phases, ds.values, 5, **binning))
    assert res.warnings[0].startswith("dropped ")


def with_extra_samples(base, extra):
    """`base` plus the values `extra`, one each at the first unique phases."""
    extra = np.asarray(extra, dtype=float)
    return nl.TomographyDataset(
        phases=np.concatenate([base.phases, base.unique_phases()[:extra.size]]),
        values=np.concatenate([base.values, extra]))


def test_mle_drops_huge_samples_without_overflow():
    # the arithmetic bin index of 1e308 used to overflow with a RuntimeWarning
    base = nl.sample(nl.rho_theta_phi_L(POINT, 5), n_per_phase=1000, seed=13)
    ref = nl.mle_reconstruct(base, dim=5)
    res = nl.mle_reconstruct(with_extra_samples(base, [1e308, -1e308]), dim=5)
    np.testing.assert_array_equal(res.state.matrix, ref.state.matrix)
    assert (res.iters, res.converged) == (ref.iters, ref.converged)
    assert res.warnings == (f"dropped 2 samples outside {tomo.MLE_SUPPORT}",) + ref.warnings


# ---------------------------------------------------------------------------
# bootstrap errors
# ---------------------------------------------------------------------------

def test_bootstrap_drops_huge_samples_like_any_outside_the_support():
    # the same draws as with two moderate outliers, and no overflow warning
    base = nl.sample(nl.rho_theta_phi_L(POINT, 5), n_per_phase=300, seed=13)
    huge = nl.bootstrap_error(with_extra_samples(base, [1e308, -1e308]), dim=5,
                              n_resamples=3, seed=2)
    near = nl.bootstrap_error(with_extra_samples(base, [10.0, -10.0]), dim=5,
                              n_resamples=3, seed=2)
    assert huge.db == near.db
    np.testing.assert_array_equal(huge.rho, near.rho)


def test_bootstrap_requires_resamples():
    ds = nl.sample(nl.vacuum(5), n_per_phase=50, seed=0)
    with pytest.raises(InvalidInputError):
        nl.bootstrap_error(ds, n_resamples=1)


def test_bootstrap_error_scales_with_sample_size():
    truth = nl.rho_theta_phi_L(POINT, 5)
    small = nl.bootstrap_error(nl.sample(truth, n_per_phase=5000, seed=6),
                               dim=5, n_resamples=24, seed=0)
    large = nl.bootstrap_error(nl.sample(truth, n_per_phase=21000, seed=6),
                               dim=5, n_resamples=24, seed=0)
    expected = np.sqrt(21000 / 5000)
    assert small.db / large.db == pytest.approx(expected, rel=0.45)
    assert large.rho.max() < small.rho.max()


def test_bootstrap_error_matches_reported_scale():
    truth = nl.rho_theta_phi_L(POINT, 5)
    errs = nl.bootstrap_error(nl.sample(truth, seed=7), dim=5, n_resamples=24, seed=1)
    assert 0.004 < errs.db < 0.4  # order of the reported +-0.04 dB


def bootstrap_einsum(data, dim, n_resamples, seed):
    """Resample into a TomographyDataset and reconstruct with the einsum
    reference; returns the dB and density-matrix errors."""
    rng = np.random.default_rng(seed)
    groups = [np.flatnonzero(data.phases == p) for p in data.unique_phases()]
    dbs, rhos = [], []
    for _ in range(n_resamples):
        idx = np.concatenate([g[rng.integers(0, g.size, g.size)] for g in groups])
        resampled = nl.TomographyDataset(phases=data.phases[idx], values=data.values[idx])
        rho = oracles.mle_einsum(resampled.phases, resampled.values, dim)[0]
        state = nl.QuantumState(rho)
        dbs.append(nl.nlsq_db(state))
        rhos.append(state.matrix)
    rhos = np.asarray(rhos)
    return np.std(dbs), np.sqrt(np.mean(np.abs(rhos - rhos.mean(axis=0)) ** 2, axis=0))


def test_bootstrap_matches_einsum_reference():
    ds = edge_dataset(2000)
    got = nl.bootstrap_error(ds, dim=5, n_resamples=4, seed=2)
    db, rho = bootstrap_einsum(ds, 5, 4, 2)
    assert abs(got.db - db) <= 1e-12
    assert np.abs(got.rho - rho).max() <= 1e-12


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_dataset_csv_roundtrip_exact():
    ds = nl.sample(nl.rho_theta_phi_L(POINT, 5), n_per_phase=100, seed=8)
    buf = io.StringIO()
    nl.write_dataset_csv(ds, buf)
    buf.seek(0)
    back = nl.read_dataset_csv(buf)
    assert np.array_equal(back.values, ds.values)
    assert np.array_equal(back.phases, ds.phases)


def test_dataset_csv_header_check():
    with pytest.raises(InvalidInputError):
        nl.read_dataset_csv(io.StringIO("wrong,header\n0,1\n"))


def write_both(ds):
    """The dataset CSV from the package's writer and from the per-row reference."""
    got, ref = io.StringIO(), io.StringIO()
    nl.write_dataset_csv(ds, got)
    oracles.write_dataset_csv_rows(ds.phases, ds.values, ref)
    return got.getvalue(), ref.getvalue()


def assert_reads_like_reference(text):
    ds = nl.read_dataset_csv(io.StringIO(text))
    phases, values = oracles.read_dataset_csv_rows(io.StringIO(text))
    ref = nl.TomographyDataset(phases=phases, values=values)
    assert np.array_equal(ds.phases.view(np.uint64), ref.phases.view(np.uint64))
    assert np.array_equal(ds.values.view(np.uint64), ref.values.view(np.uint64))
    return ds


# Whole degrees whose radian phase moves by an ulp through the degree column.
ULP_DEGREES = (3.0, 57.0, 105.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False),
              st.integers(-720, 720).map(math.radians),
              st.sampled_from(ULP_DEGREES).map(math.radians)),
    st.one_of(st.floats(allow_nan=False, allow_infinity=False),
              st.sampled_from((-0.0, 5e-324, -2.2e-308, 1e308, -1e308)))),
    max_size=40))
def test_dataset_csv_matches_per_row_reference(rows):
    ds = nl.TomographyDataset(phases=[p for p, _ in rows], values=[v for _, v in rows])
    got, ref = write_both(ds)
    assert got == ref
    back = assert_reads_like_reference(got)
    assert np.array_equal(back.values.view(np.uint64), ds.values.view(np.uint64))


def test_dataset_csv_phase_moves_by_at_most_one_ulp():
    phases = np.deg2rad(np.arange(360.0))
    ds = nl.TomographyDataset(phases=phases, values=np.zeros(phases.size))
    got, _ = write_both(ds)
    back = nl.read_dataset_csv(io.StringIO(got))
    moved = back.phases != ds.phases
    assert np.all(np.abs(back.phases - ds.phases) <= np.spacing(ds.phases))
    assert moved.any()


@pytest.mark.parametrize("phase", [-5e-324, -2.2e-308, -1e-16])
def test_tiny_negative_phase_folds_to_zero(phase):
    ds = nl.TomographyDataset(phases=[phase], values=[1.5])
    assert ds.phases[0] == 0.0 and ds.values[0] == 1.5
    again = nl.TomographyDataset(phases=ds.phases, values=ds.values)
    assert again.phases[0] == 0.0 and again.values[0] == 1.5


BLOCK = tomo._CSV_BLOCK


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1])
def test_dataset_csv_block_boundaries(n):
    rng = np.random.default_rng(n)
    ds = nl.TomographyDataset(phases=rng.choice(tomo.DEFAULT_PHASES, n),
                              values=rng.standard_normal(n))
    got, ref = write_both(ds)
    assert got == ref
    assert got.count("\n") == n + 1
    back = assert_reads_like_reference(got)
    assert len(back) == n


HEADER = "phase_deg,quadrature\n"


@pytest.mark.parametrize("body", [
    "0.0,1.5\r\n30.0,-2.0\r\n",
    "0.0,1.5\n\n30.0,-2.0\n\n",
    "0.0,1.5\n   \n\t\n30.0,-2.0\n",
    "  0.0 , 1.5  \n30.0,\t-2.0\n",
    "",
    "\n \n",
], ids=["crlf", "blank", "whitespace-only", "spaced-fields", "header-only", "blank-only"])
def test_dataset_csv_accepts_what_the_reference_reads(body):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = assert_reads_like_reference(HEADER + body)
    assert len(ds) == body.count(",")


@pytest.mark.parametrize("body", ["nan,1.0\n", "0.0,inf\n", "0.0,1e999\n"])
def test_dataset_csv_rejects_nonfinite_entries(body):
    with pytest.raises(InvalidInputError):
        nl.read_dataset_csv(io.StringIO(HEADER + body))
