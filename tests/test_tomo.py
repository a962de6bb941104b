import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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
    incoherent = nl.QuantumState(
        5, np.diag([0.75, 0.25, 0, 0, 0]).astype(complex))
    q0 = nl.quadrature_pdf(incoherent, 0.0, x)
    q90 = nl.quadrature_pdf(incoherent, np.pi / 2, x)
    assert np.abs(q0 - q90).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(psd_states(), st.floats(-10.0, 10.0))
def test_pdf_matches_the_einsum_contraction(state, phase):
    # The two contractions sum the same dim^2 terms in other orders, so they
    # may differ by dim^2 rounding errors of the largest partial sum.
    x = np.linspace(-8.0, 8.0, 1001)
    ref, scale = oracles.quadrature_pdf_einsum(state.matrix, phase, x)
    got = nl.quadrature_pdf(state, phase, x)
    assert np.all(np.abs(got - ref) <= 2 * state.dim ** 2 * np.finfo(float).eps * scale)


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
    res = nl.mle_reconstruct(ds, dim=4, n_bins=128, support=(-5.0, 5.0), subdiv=4)
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
    mode = nl.composite_mode(nl.default_gammas(), 0.0, nl.default_grid())
    with pytest.raises(TruncationError, match="holds only"):
        nl.simulate_traces(nl.fock_state(n, n + 1), mode, 10, [0.0])


def test_sampler_accepts_states_inside_its_support():
    assert len(nl.sample(nl.fock_state(10, 11), n_per_phase=10)) == 60


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
    for binning in ({"n_bins": 0}, {"support": (1.0, 1.0)}, {"support": (2.0, -2.0)}):
        with pytest.raises(InvalidInputError):
            nl.mle_reconstruct(ds, dim=4, **binning)
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
    binning = {"n_bins": 128, "support": (-5.0, 5.0), "subdiv": 4}
    ds = nl.sample(nl.rho_theta_phi_L(POINT, 5), n_per_phase=3000, seed=12)
    assert_same_mle(nl.mle_reconstruct(ds, dim=5, **binning),
                    oracles.mle_einsum(ds.phases, ds.values, 5, **binning))
    # stopped by max_iters: the same iterate and the same warning
    assert_same_mle(nl.mle_reconstruct(ds, dim=5, max_iters=7, **binning),
                    oracles.mle_einsum(ds.phases, ds.values, 5, max_iters=7, **binning))


def edge_dataset(n_per_phase=3000, n_bins=tomo.MLE_BINS, support=tomo.MLE_SUPPORT, **_):
    """Sampled data plus every bin edge (support[1] included), the two float
    neighbours of each edge and three values outside the support, spread
    over the six phases.  Binning keys other than the edges are ignored."""
    base = nl.sample(nl.rho_theta_phi_L(POINT, 5), n_per_phase=n_per_phase, seed=13)
    edges = np.linspace(support[0], support[1], n_bins + 1)
    extra = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
                            [support[0] - 1.5, support[1] + 0.5, 40.0]])
    return nl.TomographyDataset(
        phases=np.concatenate([base.phases, np.resize(base.unique_phases(), extra.size)]),
        values=np.concatenate([base.values, extra]))


# The arithmetic bin index needs its downward correction at edges of all
# three binnings, and its upward one at edges of the last two.
@pytest.mark.parametrize("binning", [{}, {"n_bins": 100, "subdiv": 4},
                                     {"n_bins": 7, "support": (-5.0, 5.0)}])
def test_mle_matches_einsum_reference_at_edges_and_outside(binning):
    ds = edge_dataset(**binning)
    res = nl.mle_reconstruct(ds, dim=5, **binning)
    assert_same_mle(res, oracles.mle_einsum(ds.phases, ds.values, 5, **binning))
    assert res.warnings[0].startswith("dropped ")


# ---------------------------------------------------------------------------
# bootstrap errors
# ---------------------------------------------------------------------------

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
        state = nl.QuantumState(dim, rho)
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
