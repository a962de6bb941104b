import io
import itertools
import math
import struct
import tracemalloc
import types
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import nlsqlab as nl
from nlsqlab import temporal, tomo
from nlsqlab.errors import (AmbiguityError, DegeneratePoleError, DimensionError,
                            InvalidInputError, NumericalError, TruncationError)

import oracles

PHASES = tuple(np.deg2rad([0, 30, 60, 90, 120, 150]))

#: inner product (and its square, which mode_overlap reports) of the
#: three-cavity packet with the bare single-pole packet at the default
#: bandwidths and grid (regression values)
COMPOSITE_VS_SINGLE_POLE_INNER = 0.7014784321527746
COMPOSITE_VS_SINGLE_POLE_SQ = 0.4920719907755148


def default_composite():
    return nl.composite_mode(nl.default_gammas(), 0.0, nl.default_grid())


# ---------------------------------------------------------------------------
# wave packets
# ---------------------------------------------------------------------------

def test_single_pole_normalization_and_shape():
    g = 4e8
    t = nl.default_grid()
    m = nl.single_pole_mode(g, 0.0, t)
    assert np.sum(m.samples ** 2) * m.dt == pytest.approx(1.0, abs=1e-9)
    assert np.all(m.samples[t > 0] == 0.0)
    i0 = np.argmin(np.abs(t - 0.0))
    i1 = np.argmin(np.abs(t - (-2.0 / g)))
    assert m.samples[i1] / m.samples[i0] == pytest.approx(np.exp(-1.0), rel=1e-6)


def test_single_pole_inner_product_closed_form():
    g = 4e8
    t = np.arange(-60e-9, 1e-9, 0.01e-9)  # fine grid for the continuum value
    m1 = nl.single_pole_mode(g, 0.0, t)
    m2 = nl.single_pole_mode(2 * g, 0.0, t)
    inner = float(np.sum(m1.samples * m2.samples) * m1.dt)
    assert inner == pytest.approx(oracles.single_pole_inner_product(g, 2 * g), abs=2e-4)
    assert inner == pytest.approx(2 * np.sqrt(2) / 3, abs=2e-4)
    assert nl.mode_overlap(m1, m2) == pytest.approx(8.0 / 9.0, abs=5e-4)


def test_single_pole_truncation_guard():
    g = 4e8
    short = np.arange(-4e-9, 1e-9, 0.2e-9)  # spans only 1.6/gamma
    with pytest.raises(TruncationError):
        nl.single_pole_mode(g, 0.0, short)


def test_grid_validation():
    with pytest.raises(InvalidInputError):
        nl.single_pole_mode(4e8, 0.0, np.array([0.0, 1e-9, 3e-9]))
    with pytest.raises(InvalidInputError):
        nl.single_pole_mode(-1.0, 0.0, nl.default_grid())


def test_grid_must_increase():
    grid = nl.default_grid()
    with pytest.raises(InvalidInputError, match="increasing"):
        nl.single_pole_mode(4e8, 0.0, grid[::-1])
    with pytest.raises(InvalidInputError, match="increasing"):
        nl.single_pole_mode(4e8, 0.0, np.zeros(5))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_nonfinite_decay_rates_rejected(bad):
    t = nl.default_grid()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="finite"):
            nl.single_pole_mode(bad, 0.0, t)
        with pytest.raises(InvalidInputError, match="finite"):
            nl.composite_mode((bad, 2e8, 3e8), 0.0, t)


@pytest.mark.parametrize("field", ["t", "samples"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_temporal_mode_rejects_nonfinite_points(field, bad):
    m = default_composite()
    parts = {"t": m.t.copy(), "samples": m.samples.copy()}
    parts[field][0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="finite"):
            nl.TemporalMode(m.decay_rates, m.weights, m.t0, parts["t"], parts["samples"])


def test_composite_weights_hand_value():
    assert nl.composite_weights((1.0, 2.0, 3.0)) == pytest.approx((0.5, -1.0, 0.5))
    assert nl.composite_weights((1.0, 3.0)) == (0.5, -0.5)
    assert nl.composite_weights((4e8,)) == (1.0,)


def test_single_pole_mode_is_the_one_rate_packet():
    t = nl.default_grid()
    single = nl.single_pole_mode(4e8, 0.0, t)
    packet = nl.composite_mode((4e8,), 0.0, t)
    assert single.samples.tobytes() == packet.samples.tobytes()
    assert (single.decay_rates, single.weights) == ((4e8,), (1.0,))
    # the same bytes as the bare exponential over the whole grid
    bare = np.where(t <= 0.0, np.exp(-4e8 * np.clip(-t, 0, None) / 2.0), 0.0)
    assert single.samples.tobytes() == nl.TemporalMode((), (), 0.0, t, bare).samples.tobytes()
    with pytest.raises(InvalidInputError, match="at least one"):
        nl.composite_mode((), 0.0, t)


def test_composite_mode_weights_invariant():
    m = default_composite()
    g1, g2, g3 = m.decay_rates
    assert m.weights[0] == pytest.approx(1.0 / ((g2 - g1) * (g3 - g1)), rel=1e-12)
    assert m.weights[1] == pytest.approx(1.0 / ((g3 - g2) * (g1 - g2)), rel=1e-12)
    assert m.weights[2] == pytest.approx(1.0 / ((g1 - g3) * (g2 - g3)), rel=1e-12)


def test_composite_repeated_pole_rejected():
    with pytest.raises(DegeneratePoleError):
        nl.composite_mode((4e8, 4e8, 9e8), 0.0, nl.default_grid())
    two = nl.composite_mode((4e8, 9e8), 0.0, nl.default_grid())
    assert two.weights == pytest.approx((1.0 / 5e8, -1.0 / 5e8), rel=1e-12)
    assert two.samples[two.t == 0.0].tolist() == [0.0]  # a cascade starts at zero


def test_composite_approaches_single_pole_as_filters_widen():
    g1 = 4e8
    t = np.arange(-60e-9, 0.2e-9, 0.01e-9)  # resolve the fast poles
    single = nl.single_pole_mode(g1, 0.0, t)
    overlaps = []
    for scale in (3.0, 10.0, 30.0, 100.0, 300.0):
        comp = nl.composite_mode((g1, scale * g1, 2.1 * scale * g1), 0.0, t)
        overlaps.append(nl.mode_overlap(comp, single))
    assert np.all(np.diff(overlaps) > 0)
    assert overlaps[-1] > 0.99


def test_composite_vs_single_pole_regression_value():
    comp = default_composite()
    single = nl.single_pole_mode(nl.default_gammas()[0], 0.0, comp.t)
    inner = float(np.sum(comp.samples * single.samples) * comp.dt)
    assert inner == pytest.approx(COMPOSITE_VS_SINGLE_POLE_INNER, abs=1e-6)
    assert nl.mode_overlap(comp, single) == pytest.approx(
        COMPOSITE_VS_SINGLE_POLE_SQ, abs=1e-6)


def test_gamma_from_hwhm_convention():
    assert nl.gamma_from_hwhm(33.7e6) == pytest.approx(4 * np.pi * 33.7e6, rel=1e-15)


# ---------------------------------------------------------------------------
# overlaps
# ---------------------------------------------------------------------------

def test_overlap_identity_and_orthogonal():
    m = default_composite()
    assert nl.mode_overlap(m, m) == pytest.approx(1.0, abs=1e-12)
    other = nl.single_pole_mode(nl.default_gammas()[1], 0.0, m.t)
    # Gram-Schmidt the second mode against the first
    inner = np.sum(m.samples * other.samples) * m.dt
    resid = other.samples - inner * m.samples
    ortho = nl.TemporalMode((), (), other.t0, m.t, resid)
    assert nl.mode_overlap(m, ortho) == pytest.approx(0.0, abs=1e-12)


def test_overlap_symmetry_and_bounds():
    rng = np.random.default_rng(0)
    t = nl.default_grid()
    for _ in range(5):
        g_a = rng.uniform(2e8, 2e9, 3)
        g_b = rng.uniform(2e8, 2e9, 3)
        a = nl.composite_mode(g_a, 0.0, t)
        b = nl.composite_mode(g_b, 0.0, t)
        ab, ba = nl.mode_overlap(a, b), nl.mode_overlap(b, a)
        assert ab == pytest.approx(ba, abs=1e-13)
        assert 0.0 <= ab <= 1.0


def test_overlap_grid_mismatch():
    a = nl.single_pole_mode(4e8, 0.0, nl.default_grid())
    b = nl.single_pole_mode(4e8, 0.0, nl.default_grid(frame=100e-9))
    with pytest.raises(DimensionError):
        nl.mode_overlap(a, b)


def test_a_mode_grid_is_shared_and_any_other_grid_checked():
    t = nl.default_grid()
    target = nl.single_pole_mode(1e9, 0.0, t)
    assert target.t is not t and not target.t.flags.writeable
    t[0] -= 1e-9  # the caller's array stays the caller's
    assert target.t[0] != t[0]
    assert nl.composite_mode(nl.default_gammas(), 0.0, target.t).t is target.t
    # read-only views, of a caller's array or of a mode's grid, are copied and checked
    good = nl.default_grid().view()
    good.setflags(write=False)
    assert nl.single_pole_mode(1e9, 0.0, good).t is not good
    for bad, message in ((np.array([-2e-8, -1e-8, 0.0, 5e-9]), "uniform"),
                         (target.t[::-1], "increasing")):
        view = bad.view()
        view.setflags(write=False)
        with pytest.raises(InvalidInputError, match=message):
            nl.single_pole_mode(1e9, 0.0, view)


def test_searched_design_compares_no_grids(monkeypatch):
    target = nl.single_pole_mode(1e9, 0.0, nl.default_grid())
    calls = []
    allclose = np.allclose

    def counting(*args, **kwargs):
        calls.append(args)
        return allclose(*args, **kwargs)

    monkeypatch.setattr(np, "allclose", counting)
    filt = nl.design_matched_filter(target)
    assert filt.response.t is target.t
    assert calls == []


# ---------------------------------------------------------------------------
# matched filter design
# ---------------------------------------------------------------------------

def test_filter_matches_composite_target():
    target = default_composite()
    filt = nl.design_matched_filter(target)
    assert filt.overlap >= 0.97
    assert filt.overlap > 0.9999  # poles land on the analytic optimum
    for pole, gamma in zip(sorted(filt.poles), sorted(nl.default_gammas())):
        assert pole == pytest.approx(gamma / 2.0, rel=1e-3)


def test_filter_matches_single_pole_on_fine_grid():
    g = 4e8
    t = np.arange(-30e-9, 1e-9, 1e-12)
    target = nl.single_pole_mode(g, 0.0, t)
    filt = nl.design_matched_filter(target)
    assert filt.overlap > 0.999
    poles = sorted(filt.poles)
    assert poles[0] == pytest.approx(g / 2.0, rel=0.05)
    assert poles[1] > 10 * poles[0]  # the other poles are pushed far out


#: poles (rad/s) of the exact matched filter for the default three-cavity
#: target: half of each decay rate, ascending
DEFAULT_FILTER_POLES = tuple(sorted(g / 2 for g in nl.default_gammas()))


def test_filter_poles_pinned_on_default_target():
    filt = nl.design_matched_filter(default_composite())
    assert filt.poles == DEFAULT_FILTER_POLES
    assert filt.overlap >= 1.0 - 1e-12


def test_composite_target_needs_no_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("composite targets are matched exactly")

    monkeypatch.setattr(temporal, "_nelder_mead", no_search)
    gammas = (9e8, 2e8, 5e8)
    filt = nl.design_matched_filter(nl.composite_mode(gammas, 0.0, nl.default_grid()))
    assert filt.poles == (1e8, 2.5e8, 4.5e8)
    assert filt.overlap >= 1.0 - 1e-12


def _pca_estimate(window):
    mode = default_composite()
    ts = nl.simulate_traces(nl.fock_state(1, 5), mode, 10000, PHASES, seed=4)
    return nl.pca_mode_estimate(ts, window=window)


#: (target, overlap that an 8-start search reached; regression values).  One
#: search from the mean-delay start must reach the same overlap.
SEARCHED_TARGETS = [
    (lambda: nl.single_pole_mode(4e8, 0.0, np.arange(-30e-9, 1e-9, 1e-12)),
     1.0),
    (lambda: nl.single_pole_mode(nl.default_gammas()[0], 0.0, nl.default_grid()),
     0.9187903252949664),
    (lambda: nl.single_pole_mode(1e9, 0.0, nl.default_grid()),
     0.8187307530779822),
    (lambda: _pca_estimate((-30e-9, 0.0)), 0.9889934826751389),
    (lambda: _pca_estimate((-60e-9, 0.0)), 0.9801130121935817),
]


@pytest.mark.parametrize("make_target, overlap", SEARCHED_TARGETS,
                         ids=["pole-4e8-1ps", "pole-gamma1", "pole-1e9",
                              "pca-30ns", "pca-60ns"])
def test_searched_filter_takes_one_search(monkeypatch, make_target, overlap):
    target = make_target()
    search = temporal._nelder_mead
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(temporal, "_nelder_mead", counting)
    filt = nl.design_matched_filter(target)
    assert len(calls) == 1
    assert filt.overlap == pytest.approx(overlap, abs=1e-12)
    # the search is scipy's, iterate for iterate
    monkeypatch.undo()
    objective, start = calls[0]
    assert assert_scipys_run(lambda: objective, start).status == 0


#: scipy.optimize.minimize options that `temporal._nelder_mead` runs with
NELDER_MEAD_OPTIONS = {"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000, "maxfev": 6000}


def assert_scipys_run(make_objective, start):
    """Run `temporal._nelder_mead` and scipy's Nelder-Mead, each on a fresh
    objective from `make_objective()`, and require the same point (bytes),
    value and evaluation count; return scipy's result."""
    start = np.asarray(start, dtype=float)
    x, fun, calls = temporal._nelder_mead(make_objective(), start)
    ref = scipy.optimize.minimize(make_objective(), start, method="Nelder-Mead",
                                  options=NELDER_MEAD_OPTIONS)
    assert x.tobytes() == ref.x.tobytes()
    assert fun == ref.fun
    assert calls == ref.nfev
    return ref


def _cliff(u):
    # a tilted bump, and 1.0 outside the unit ball around (1, 1, 1), as the
    # filter objective gives 1.0 for poles that composite_mode rejects
    r2 = float(np.sum((u - 1.0) ** 2))
    return 0.3 * float(u[0]) - math.exp(-r2) if r2 < 1.0 else 1.0


@pytest.mark.parametrize("start", [(0.9, 1.2, 1.1), (0.0, 1.2, 1.1), (1.0, 1.0, 1.0)])
def test_nelder_mead_matches_scipy_across_a_cliff(start):
    # (0.0, ...) starts the simplex with the 0.00025 step, and its cliff
    # ties the start simplex at 1.0
    assert assert_scipys_run(lambda: _cliff, start).status == 0


def _call_counter(value):
    """An objective whose k-th call returns value(k), wherever it is called:
    its values never settle, so only maxiter or maxfev ends a search."""
    calls = itertools.count()
    return lambda u: value(next(calls))


@pytest.mark.parametrize("value, status", [
    # every value after the first ranks between the best and the
    # second-worst, so every step is one accepted reflection
    (lambda k: 1.0 / k if k else 0.0, 2),
    # golden-ratio values: all step kinds, shrinks included.  The budget
    # runs out inside a step, where a further call would find the lowest
    # value yet.
    (lambda k: (k + 3) * 0.6180339887498949 % 1.0 if k < 6000 else -1.0, 1),
], ids=["maxiter", "maxfev"])
def test_nelder_mead_stops_at_scipys_call(value, status):
    ref = assert_scipys_run(lambda: _call_counter(value), (0.5, 0.6, 0.7))
    assert ref.status == status
    assert ref.nfev == (4003 if status == 2 else 6000)


def test_single_pole_design_reaches_the_overlap_supremum():
    # Three real poles give a response that vanishes at tau = 0, so no
    # filter beats the target less its t0 sample.  Against a single pole
    # sampled at t0 that target has overlap exp(-gamma dt), less
    # (1 - exp(-gamma dt)) exp(-gamma frame / 2) from the grid's start (5e-15
    # at 3e8 rad/s, so slow poles are left out).  The searched design reaches
    # it to round-off, with its two fast poles anywhere on a plateau, so they
    # are not pinned here.
    for gamma in (nl.default_gammas()[0], 1e9):
        target = nl.single_pole_mode(gamma, 0.0, nl.default_grid())
        supremum = math.exp(-gamma * target.dt)
        clipped = np.where(target.t < target.t0, target.samples, 0.0)
        assert nl.mode_overlap(temporal.TemporalMode((), (), 0.0, target.t, clipped),
                               target) == pytest.approx(supremum, abs=2e-15)
        assert nl.design_matched_filter(target).overlap == pytest.approx(supremum,
                                                                        abs=2e-15)


def test_filter_design_builds_at_most_one_mode(monkeypatch):
    target = default_composite()
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return nl.composite_mode(*args, **kwargs)

    monkeypatch.setattr(temporal, "composite_mode", counting)
    nl.design_matched_filter(target)
    assert len(calls) <= 1


def test_filter_poles_independent_of_grid_offset():
    t = nl.default_grid(center=10e-9)
    target = nl.composite_mode(nl.default_gammas(), 20e-9, t)
    filt = nl.design_matched_filter(target)
    assert filt.poles == DEFAULT_FILTER_POLES


# ---------------------------------------------------------------------------
# trace simulation
# ---------------------------------------------------------------------------

def test_trace_statistics_vacuum():
    mode = default_composite()
    ts = nl.simulate_traces(nl.vacuum(5), mode, 10000, PHASES, seed=3)
    q = ts.traces @ mode.samples * ts.dt
    bound = 3.0 * 0.5 * np.sqrt(2.0 / ts.n_events)
    assert abs(q.var() - 0.5) < bound


def test_trace_statistics_single_photon():
    mode = default_composite()
    ts = nl.simulate_traces(nl.fock_state(1, 5), mode, 10000, PHASES, seed=4)
    q = ts.traces @ mode.samples * ts.dt
    se = np.sqrt((oracles.x4_diag(1) - 2.25) / ts.n_events)
    assert abs(q.var() - 1.5) < 3.0 * se


def test_trace_determinism_and_roundtrip():
    mode = default_composite()
    blobs = []
    for _ in range(2):
        ts = nl.simulate_traces(nl.fock_state(1, 5), mode, 40, PHASES, seed=9)
        buf = io.BytesIO()
        nl.save_traces(ts, buf)
        blobs.append(buf.getvalue())
    assert blobs[0] == blobs[1]
    assert len(blobs[0]) == 16 + 40 * mode.t.size * 4 + 40 * 8
    back = nl.load_traces(io.BytesIO(blobs[0]))
    assert back.n_events == 40
    assert back.dt == pytest.approx(mode.dt, rel=1e-12)
    assert np.allclose(back.t, mode.t, atol=1e-15)


@given(st.data(), st.floats(1e-15, 1e-3), st.integers(1, 5), st.integers(2, 7))
def test_trace_file_round_trip(data, dt, n_events, n_bins):
    finite = {"allow_nan": False, "allow_infinity": False}
    samples = data.draw(hnp.arrays(np.float32, (n_events, n_bins),
                                   elements=st.floats(width=32, **finite)))
    phases = data.draw(hnp.arrays(np.float64, n_events, elements=st.floats(**finite)))
    ts = nl.TraceSet(samples, dt, phases, (np.arange(n_bins) - (n_bins - 1) / 2.0) * dt)
    buf = io.BytesIO()
    nl.save_traces(ts, buf)
    back = nl.load_traces(io.BytesIO(buf.getvalue()))
    assert back.traces.tobytes() == samples.tobytes()
    assert back.phases.tobytes() == phases.tobytes()
    # The header holds dt in ns, and dt * 1e9 * 1e-9 is not always dt.
    assert abs(back.dt - dt) <= np.spacing(dt)


def _trace_file(dt_ns=None):
    mode = default_composite()
    ts = nl.simulate_traces(nl.vacuum(5), mode, 4, PHASES, seed=1)
    buf = io.BytesIO()
    nl.save_traces(ts, buf)
    blob = buf.getvalue()
    if dt_ns is not None:
        blob = blob[:8] + struct.pack("<d", dt_ns) + blob[16:]
    return blob


def test_load_traces_rejects_trailing_bytes():
    blob = _trace_file()
    fh = io.BytesIO(blob + b"\0" * 4096)
    with pytest.raises(InvalidInputError):
        nl.load_traces(fh)
    assert fh.tell() == len(blob) + 1  # reads one byte past the phase block


@pytest.mark.parametrize("n_events,n_bins", [(2**32 - 1, 2**32 - 1), (4, 2**20), (5, 1001)])
def test_load_traces_rejects_header_beyond_file(n_events, n_bins):
    blob = _trace_file()
    blob = struct.pack("<II", n_events, n_bins) + blob[8:]
    with pytest.raises(InvalidInputError, match="only"):
        nl.load_traces(io.BytesIO(blob))


def test_load_traces_rejects_nan_dt():
    with pytest.raises(InvalidInputError):
        nl.load_traces(io.BytesIO(_trace_file(dt_ns=np.nan)))


@pytest.mark.parametrize("dt_ns", [0.0, -0.2])
def test_load_traces_rejects_nonpositive_dt(dt_ns):
    with pytest.raises(InvalidInputError):
        nl.load_traces(io.BytesIO(_trace_file(dt_ns=dt_ns)))


def test_trace_input_validation():
    mode = default_composite()
    with pytest.raises(InvalidInputError):
        nl.simulate_traces(nl.vacuum(5), mode, 0, PHASES)
    fake = types.SimpleNamespace(samples=mode.samples * 2.0, dt=mode.dt, t=mode.t)
    with pytest.raises(InvalidInputError):
        nl.simulate_traces(nl.vacuum(5), fake, 10, PHASES)


@pytest.mark.parametrize("phases, message", [
    ([], "need at least one LO phase"), ([0.0, np.inf], "LO phase inf is not finite"),
    ([np.nan], "LO phase nan is not finite")], ids=["empty", "inf", "nan"])
def test_simulate_traces_rejects_bad_phases(phases, message):
    with pytest.raises(InvalidInputError, match=message):
        nl.simulate_traces(nl.vacuum(5), default_composite(), 10, phases)


def test_traceset_validation():
    with pytest.raises(DimensionError):
        nl.TraceSet(traces=np.zeros((3, 5)), dt=1e-9, phases=np.zeros(2),
                    t=np.arange(5) * 1e-9)
    with pytest.raises(InvalidInputError):
        nl.TraceSet(traces=np.full((2, 3), np.nan), dt=1e-9, phases=np.zeros(2),
                    t=np.arange(3) * 1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_traceset_rejects_one_nonfinite_sample(bad):
    traces = np.zeros((3, 4))
    traces[1, 2] = bad
    with pytest.raises(InvalidInputError, match="non-finite"):
        nl.TraceSet(traces, 1e-9, np.zeros(3), np.arange(4) * 1e-9)


def test_traceset_leaves_the_callers_array_writable():
    a = np.zeros((2, 3), dtype=np.float32)
    ts = nl.TraceSet(a, 1e-9, np.zeros(2), np.arange(3) * 1e-9)
    assert np.shares_memory(ts.traces, a)
    assert not ts.traces.flags.writeable
    a[0, 0] = 1.0
    assert ts.traces[0, 0] == 1.0


def test_traceset_rejects_a_step_that_is_not_its_grids():
    # accepted before, and mode_quadratures then read a variance of 5.85
    # where the right one is 1.46
    mode = default_composite()
    ts = nl.simulate_traces(nl.fock_state(1, 5), mode, 4, PHASES, seed=1)
    assert ts.t is mode.t  # a mode's checked grid is neither copied nor checked again
    with pytest.raises(InvalidInputError, match="differs from the grid's step"):
        nl.TraceSet(ts.traces, 2 * ts.dt, ts.phases, ts.t)
    assert nl.TraceSet(ts.traces, ts.dt * (1 + 1e-12), ts.phases, ts.t).t is ts.t


def test_traceset_rejects_a_grid_that_does_not_increase():
    # a zero grid used to reach pca_mode_estimate and end in AmbiguityError
    with pytest.raises(InvalidInputError, match="increasing"):
        nl.TraceSet(np.zeros((2, 3)), 1e-9, np.zeros(2), np.zeros(3))


CHUNK = temporal._CHUNK


@pytest.mark.parametrize("n_events", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_blocked_simulation_matches_one_shot_reference(n_events):
    mode = default_composite()
    state = nl.fock_state(1, 5)
    ts = nl.simulate_traces(state, mode, n_events, PHASES, seed=3)
    x, cdf = tomo._cdf_tables(state, np.unique(PHASES))
    rows = dict(zip(np.unique(PHASES), cdf))
    ref = oracles.traces_one_shot(lambda phase: (x, rows[phase]),
                                  mode.samples, mode.dt, n_events, PHASES, seed=3)
    assert ts.traces.dtype == np.float32
    assert ref.dtype == np.float32
    assert ts.traces.tobytes() == ref.tobytes()


@pytest.fixture(scope="module")
def drawn_traces():
    """10^4 traces of |1> on the default composite mode, and the quadrature
    samples drawn for them (the first child stream of the seed)."""
    mode = default_composite()
    state = nl.fock_state(1, 5)
    ts = nl.simulate_traces(state, mode, 10000, PHASES, seed=6)
    rng_q = np.random.default_rng(np.random.SeedSequence(6).spawn(2)[0])
    return mode, ts, tomo._draw(state, ts.phases, rng_q.random(ts.n_events))


def test_integrating_a_trace_gives_back_its_quadrature(drawn_traces):
    # The noise is removed along f in float32, so the integral returns q up
    # to float32 round-off: about 2e-7 here, against |q| of a few units.
    mode, ts, q = drawn_traces
    assert np.max(np.abs(nl.mode_quadratures(ts, mode)[:, 0] - q)) <= 1e-6


def test_trace_noise_variance_per_bin(drawn_traces):
    # Vacuum noise 1/(2 dt) per bin, less its share w = f^2 dt along the
    # mode.  Each bin's variance estimate from n zero-mean samples has
    # relative standard error sqrt(2/n); allow 5 of them in every bin.  The
    # share is at most 0.033 per bin, inside that bar, so the w-weighted mean
    # of the relative errors, with standard error sqrt(2/n * sum w^2), must
    # also be within 5 of its own (white noise with f left in misses by 8).
    mode, ts, q = drawn_traces
    noise = ts.traces - np.outer(q, mode.samples)
    rel = np.mean(noise ** 2, axis=0) * 2.0 * ts.dt / (1.0 - mode.samples ** 2 * ts.dt) - 1.0
    se = np.sqrt(2.0 / ts.n_events)
    assert np.all(np.abs(rel) <= 5.0 * se)
    w = mode.samples ** 2 * ts.dt
    assert abs(np.sum(w * rel)) <= 5.0 * se * np.sqrt(np.sum(w ** 2))


def test_traces_stay_float32_through_save_and_load():
    mode = default_composite()
    ts = nl.simulate_traces(nl.fock_state(1, 5), mode, CHUNK + 3, PHASES, seed=2)
    assert ts.traces.dtype == np.float32
    buf = io.BytesIO()
    nl.save_traces(ts, buf)
    back = nl.load_traces(io.BytesIO(buf.getvalue()))
    assert back.traces.dtype == np.float32
    assert back.traces.tobytes() == ts.traces.tobytes()
    assert np.array_equal(back.phases, ts.phases)
    small = nl.TraceSet(np.zeros((2, 3)), 1e-9, np.zeros(2), np.arange(3) * 1e-9)
    assert small.traces.dtype == np.float32


def test_trace_blocks_are_the_same_on_every_pass():
    mode = default_composite()
    n_events = temporal._BLOCK_ROWS + 1
    ts = nl.simulate_traces(nl.fock_state(1, 5), mode, n_events, PHASES, seed=2)
    sim = nl.SimulatedTraces(nl.fock_state(1, 5), mode, n_events, PHASES, seed=2)
    buf = io.BytesIO()
    nl.save_traces(ts, buf)
    reader = nl.TraceFile(io.BytesIO(buf.getvalue()))
    for _ in range(2):
        assert b"".join(block.tobytes() for block in sim.blocks()) == ts.traces.tobytes()
        assert b"".join(block.tobytes() for block in reader.blocks()) == ts.traces.tobytes()
        assert reader.phases.tobytes() == ts.phases.tobytes()


def test_mode_quadratures_accumulate_in_float64():
    mode = default_composite()
    ts = nl.simulate_traces(nl.fock_state(1, 5), mode, 2 * CHUNK + 1, PHASES, seed=2)
    q = nl.mode_quadratures(ts, mode)[:, 0]
    ref = ts.traces.astype(np.float64) @ mode.samples * ts.dt
    assert q.dtype == np.float64
    assert np.allclose(q, ref, rtol=1e-12, atol=0.0)
    other_grid = nl.composite_mode(nl.default_gammas(), 0.0, nl.default_grid(dt=0.4e-9))
    with pytest.raises(DimensionError, match="grid"):
        nl.mode_quadratures(ts, other_grid)


# ---------------------------------------------------------------------------
# PCA mode estimation
# ---------------------------------------------------------------------------

def test_pca_recovers_composite_mode():
    mode = default_composite()
    ts = nl.simulate_traces(nl.fock_state(1, 5), mode, 10000, PHASES, seed=4)
    est = nl.pca_mode_estimate(ts, window=(-30e-9, 0.0))
    assert nl.mode_overlap(est, mode) >= 0.98
    assert est.samples[np.argmax(np.abs(est.samples))] > 0


def test_pca_vacuum_is_ambiguous():
    mode = default_composite()
    ts = nl.simulate_traces(nl.vacuum(5), mode, 2000, PHASES, seed=5)
    with pytest.raises(AmbiguityError):
        nl.pca_mode_estimate(ts, window=(-30e-9, 0.0))


def test_pca_needs_enough_traces():
    mode = default_composite()
    ts = nl.simulate_traces(nl.fock_state(1, 5), mode, 200, PHASES, seed=6)
    with pytest.raises(InvalidInputError):
        nl.pca_mode_estimate(ts)


def test_pca_single_pole_decay_refit():
    g = nl.default_gammas()[0]
    mode = nl.single_pole_mode(g, 0.0, nl.default_grid())
    ts = nl.simulate_traces(nl.fock_state(1, 5), mode, 10000, PHASES, seed=5)
    est = nl.pca_mode_estimate(ts, window=(-30e-9, 0.0))
    mask = (est.t <= 0) & (est.samples > est.samples.max() * 0.2)
    w = est.samples[mask]
    slope = np.polyfit(est.t[mask], np.log(w), 1, w=w)[0]
    assert 2 * slope == pytest.approx(g, rel=0.05)


def test_pca_consistency_with_more_events():
    # shorter frame so the largest run stays cheap
    t = np.arange(-40e-9, 4e-9, 0.2e-9)
    mode = nl.composite_mode(nl.default_gammas(), 0.0, t)
    overlaps = []
    for n_events, seed in ((1000, 0), (10000, 1), (100000, 2)):
        ts = nl.simulate_traces(nl.fock_state(1, 5), mode, n_events, PHASES,
                                seed=seed)
        est = nl.pca_mode_estimate(ts, window=(-30e-9, 0.0))
        overlaps.append(nl.mode_overlap(est, mode))
    assert np.all(np.diff(overlaps) > 0)
    assert overlaps[-1] > 0.998


@pytest.fixture(scope="module")
def photon_traces():
    return nl.simulate_traces(nl.fock_state(1, 5), default_composite(), 10000,
                              PHASES, seed=4)


@pytest.mark.parametrize("window", [None, (-30e-9, 0.0)], ids=["full", "30ns"])
def test_pca_top_two_eigenpairs_match_full_eigh(monkeypatch, photon_traces, window):
    real = temporal._top_two_eigenpairs
    seen = []

    def recording(cov):
        result = real(cov)
        seen.append((cov.copy(), result))
        return result

    monkeypatch.setattr(temporal, "_top_two_eigenpairs", recording)
    est = nl.pca_mode_estimate(photon_traces, window=window)
    (cov, ((mu2, mu1), _)), = seen
    assert cov.dtype == np.float64
    vals, vecs = np.linalg.eigh(cov)
    assert mu1 == pytest.approx(vals[-1], rel=1e-9)
    assert mu2 == pytest.approx(vals[-2], rel=1e-9)
    top = np.zeros(photon_traces.n_bins)
    keep = np.ones(top.size, dtype=bool) if window is None else (
        (photon_traces.t >= window[0]) & (photon_traces.t <= window[1]))
    top[keep] = vecs[:, -1]
    overlap = (top @ est.samples) ** 2 / (est.samples @ est.samples)
    assert overlap >= 1.0 - 1e-12


@pytest.mark.parametrize("mu1, mu2, ambiguous", [
    (2.0, 1.0, False), (2.0 - 1e-9, 1.0, True), (1.0, -3.0, False),
    (0.0, -1.0, True), (-1.0, -2.0, True)])
def test_pca_ambiguity_threshold(monkeypatch, photon_traces, mu1, mu2, ambiguous):
    real = temporal._top_two_eigenpairs

    def fixed_values(cov):
        return np.array([mu2, mu1]), real(cov)[1]

    monkeypatch.setattr(temporal, "_top_two_eigenpairs", fixed_values)
    if ambiguous:
        with pytest.raises(AmbiguityError):
            nl.pca_mode_estimate(photon_traces, window=(-30e-9, 0.0))
    else:
        nl.pca_mode_estimate(photon_traces, window=(-30e-9, 0.0))


@pytest.mark.parametrize("n_bins", [300, 1001])
def test_pca_repeated_top_eigenvalue_is_ambiguous(n_bins):
    # Each event holds +-a in one of two bins, so the float32 covariance is
    # exactly diagonal with its top eigenvalue twice: a Krylov space grown
    # from one start vector would hold only one copy of it.
    a = 2.0 ** 17
    traces = np.zeros((1000, n_bins), dtype=np.float32)
    for k, (col, sign) in enumerate([(n_bins // 3, 1), (n_bins // 3, -1),
                                     (n_bins // 2, 1), (n_bins // 2, -1)]):
        traces[k::4, col] = sign * a
    dt = 0.2e-9
    ts = nl.TraceSet(traces=traces, dt=dt, phases=np.zeros(1000),
                     t=(np.arange(n_bins) - (n_bins - 1) / 2.0) * dt)
    with pytest.raises(AmbiguityError, match="not separated"):
        nl.pca_mode_estimate(ts)


@pytest.mark.parametrize("rotated", [False, True], ids=["diagonal", "rotated"])
def test_pca_eigensolver_finds_both_copies_of_a_repeated_eigenvalue(monkeypatch, rotated):
    # Tested after every block, a single start vector returns the next
    # eigenvalue, 4, as the second before round-off reveals the second 10.
    monkeypatch.setattr(temporal, "_LANCZOS_CHECK_EVERY", 1)
    rng = np.random.default_rng(1)
    eigenvalues = np.r_[10.0, 10.0, 4.0, rng.random(297)]
    cov = np.diag(eigenvalues)
    if rotated:
        v = np.linalg.qr(rng.standard_normal((300, 300)))[0]
        cov = (v * eigenvalues) @ v.T
    (mu2, mu1), vecs = temporal._top_two_eigenpairs(cov)
    assert mu1 == pytest.approx(10.0, rel=1e-12)
    assert mu2 == pytest.approx(10.0, rel=1e-12)
    assert np.abs(cov @ vecs - 10.0 * vecs).max() <= 1e-7


def test_pca_eigensolver_stops_at_an_invariant_subspace():
    # Three distinct eigenvalues: the block Krylov space is invariant after
    # two blocks, and what is left of C times the next block is round-off
    # (exact zeros here) that must not enter the basis.
    cov = np.diag(np.r_[0.0, 5.0, 5.0, np.ones(297)])
    (mu2, mu1), vecs = temporal._top_two_eigenpairs(cov)
    assert mu1 == pytest.approx(5.0, rel=1e-12)
    assert mu2 == pytest.approx(5.0, rel=1e-12)
    assert np.abs(vecs[[1, 2]].T @ vecs[[1, 2]] - np.eye(2)).max() <= 1e-12


def test_pca_eigensolver_step_cap_raises(monkeypatch, photon_traces):
    monkeypatch.setattr(temporal, "_LANCZOS_MAX_STEPS", 3)
    with pytest.raises(NumericalError, match="did not converge") as info:
        nl.pca_mode_estimate(photon_traces)
    assert type(info.value) is NumericalError


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_pca_subtracts_the_mean_of_a_displaced_state(monkeypatch, alpha):
    # At one LO phase <q> = sqrt(2) alpha, so each bin's mean is far from 0
    # and the covariance is the Gram matrix minus a large mu mu^T.
    state = nl.QuantumState(oracles.displace(nl.fock_state(1, 60).matrix, alpha))
    mode = default_composite()
    ts = nl.simulate_traces(state, mode, 10000, [0.0], seed=23)
    real = temporal._top_two_eigenpairs
    seen = []
    monkeypatch.setattr(temporal, "_top_two_eigenpairs",
                        lambda cov: seen.append(cov) or real(cov))
    est = nl.pca_mode_estimate(ts, window=(-30e-9, 0.0))
    (cov,) = seen
    keep = (ts.t >= -30e-9) & (ts.t <= 0.0)
    ref, x = oracles.centred_covariance(ts, keep)
    # The float32 Gram sums n products per entry: in any order, each entry is
    # off by at most gamma_n = n u / (1 - n u) times the sum of their
    # magnitudes (Higham, Accuracy and Stability, sec. 3.1).  The float64
    # steps after it add far less.
    n, u = ts.n_events, 2.0 ** -24
    bound = n * u / (1.0 - n * u) * (np.abs(x).T @ np.abs(x)) / n
    assert np.all(np.abs(cov - ref) <= bound)
    mu = x.mean(axis=0)
    assert np.outer(mu, mu).max() > 100 * bound.max()  # the mean term matters
    # Davis-Kahan: the top eigenvector moves by sin(theta) <= |E| / (gap - |E|)
    vals, vecs = np.linalg.eigh(ref)
    err = np.linalg.norm(bound)
    sin_theta = err / (vals[-1] - vals[-2] - err)
    top = est.samples[keep] / np.linalg.norm(est.samples[keep])
    assert (top @ vecs[:, -1]) ** 2 >= 1.0 - sin_theta ** 2


def test_pca_memory_does_not_grow_with_events():
    # No trace-sized array: the windowed estimate of 8000 events peaks no
    # higher than that of 2000 (a copy of the window would add 3.6 MB).
    mode = default_composite()
    peaks = []
    for n_events in (2000, 8000):
        ts = nl.simulate_traces(nl.fock_state(1, 5), mode, n_events, PHASES, seed=4)
        tracemalloc.start()
        try:
            nl.pca_mode_estimate(ts, window=(-30e-9, 0.0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 256 * 1024


def test_load_traces_peak_is_the_payload(tmp_path):
    mode = default_composite()
    ts = nl.simulate_traces(nl.fock_state(1, 5), mode, 2000, PHASES, seed=4)
    path = tmp_path / "traces.bin"
    with open(path, "wb") as fh:
        nl.save_traces(ts, fh)
    with open(path, "rb") as fh:
        tracemalloc.start()
        try:
            back = nl.load_traces(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert back.traces.tobytes() == ts.traces.tobytes()
    assert peak <= path.stat().st_size + 2**20


@pytest.mark.parametrize("window", [None, (-30e-9, 0.0)], ids=["full", "30ns"])
def test_pca_is_deterministic(photon_traces, window):
    first = nl.pca_mode_estimate(photon_traces, window=window)
    second = nl.pca_mode_estimate(photon_traces, window=window)
    assert first.samples.tobytes() == second.samples.tobytes()


@pytest.mark.parametrize("window", [(0.0, 0.0), (-0.1e-9, 0.1e-9), (1e-9, -1e-9)])
def test_pca_window_needs_two_grid_points(photon_traces, window):
    with pytest.raises(InvalidInputError, match="at least 2"):
        nl.pca_mode_estimate(photon_traces, window=window)


def test_trace_memory_stays_near_the_float32_set():
    mode = default_composite()
    state = nl.fock_state(1, 5)
    tracemalloc.start()
    try:
        ts = nl.simulate_traces(state, mode, 10000, PHASES, seed=4)
        simulate_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        nl.pca_mode_estimate(ts)
        pca_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert ts.traces.nbytes == 4 * 10000 * mode.t.size
    assert simulate_peak <= 1.5 * ts.traces.nbytes
    assert pca_peak <= 1.5 * ts.traces.nbytes


# ---------------------------------------------------------------------------
# real-time versus postprocessing
# ---------------------------------------------------------------------------

def test_identical_weighting_gives_unit_correlation():
    mode = default_composite()
    ts = nl.simulate_traces(nl.vacuum(5), mode, 300, PHASES, seed=7)
    corr = nl.correlations_by_phase(ts.phases, *nl.mode_quadratures(ts, mode, mode).T)
    for r in corr.values():
        assert r == pytest.approx(1.0, abs=1e-12)


def test_designed_filter_correlations_high():
    mode = default_composite()
    filt = nl.design_matched_filter(mode)
    ts = nl.simulate_traces(nl.fock_state(1, 5), mode, 10000, PHASES, seed=4)
    corr = nl.realtime_vs_postprocess(ts, filt, mode)
    assert len(corr) == len(PHASES)
    for r in corr.values():
        assert r >= 0.98


def test_vacuum_correlation_equals_weighting_overlap():
    # on vacuum traces the correlation equals the amplitude inner product
    mode = default_composite()
    rng = np.random.default_rng(12)
    raw = rng.normal(size=mode.t.size) * np.exp(-np.abs(mode.t) / 40e-9)
    weight = nl.TemporalMode((), (), mode.t[-1], mode.t, raw)
    inner = float(np.sum(weight.samples * mode.samples) * mode.dt)
    ts = nl.simulate_traces(nl.vacuum(5), mode, 20000, PHASES, seed=8)
    corr = nl.correlations_by_phase(ts.phases, *nl.mode_quadratures(ts, mode, weight).T)
    se = 1.0 / np.sqrt(ts.n_events / len(PHASES))
    for r in corr.values():
        assert r == pytest.approx(inner, abs=3.5 * se)


#: Packets whose searched filter misses them, with the squared overlap c^2
#: of that filter: the one-rate packet's is exp(-gamma dt) on the default grid.
MISSED_TARGETS = {
    "one-rate": (lambda: nl.single_pole_mode(1e9, 0.0, nl.default_grid()), 0.8187),
    "four-rate": (lambda: nl.composite_mode((*nl.default_gammas(), nl.gamma_from_hwhm(200e6)),
                                            0.0, nl.default_grid()), 0.9976),
}


@pytest.mark.parametrize("name", MISSED_TARGETS)
def test_readout_law_where_the_filter_misses_the_mode(name):
    # Given q_pp, a trace's filter readout is c q_pp plus Gaussian noise of
    # variance (|r|^2 - c^2)/2 that is independent of q_pp.  Both the traces
    # and the law must show that within 5 standard errors of n draws: a
    # variance estimate has relative error sqrt(2/n), and a correlation
    # between independent arrays has error 1/sqrt(n).
    make_target, c2 = MISSED_TARGETS[name]
    mode = make_target()
    filt = nl.design_matched_filter(mode)
    r = filt.response
    c = float(np.sum(r.samples * mode.samples) * mode.dt)
    assert c ** 2 == pytest.approx(c2, abs=1e-4)
    var = (float(np.sum(r.samples ** 2) * mode.dt) - c ** 2) / 2.0
    state, n = nl.fock_state(1, 5), 20000
    phases = np.resize(PHASES, n)
    ts = nl.simulate_traces(state, mode, n, phases, seed=11)
    by_traces = nl.mode_quadratures(ts, mode, r).T
    by_law = nl.simulate_readout(state, mode, filt, phases, seed=11)[1:]
    for q_pp, q_rt in (by_traces, by_law):
        residual = q_rt - c * q_pp
        assert abs(residual.mean()) <= 5.0 * math.sqrt(var / n)
        assert abs(residual.var() / var - 1.0) <= 5.0 * math.sqrt(2.0 / n)
        assert abs(np.corrcoef(residual, q_pp)[0, 1]) <= 5.0 / math.sqrt(n)
    # the same seed draws the same quadratures either way
    assert np.max(np.abs(by_law[0] - by_traces[0])) <= 1e-6


def test_matched_readout_is_the_drawn_quadrature():
    mode = default_composite()
    filt = nl.design_matched_filter(mode)
    c = float(np.sum(filt.response.samples * mode.samples) * mode.dt)
    state = nl.fock_state(1, 5)
    phases = np.repeat(PHASES, 300)
    got_phases, q_pp, q_rt = nl.simulate_readout(state, mode, filt, phases, seed=6)
    assert np.array_equal(q_rt, c * q_pp)
    assert np.array_equal(got_phases, phases)
    ts = nl.simulate_traces(state, mode, phases.size, phases, seed=6)
    assert np.max(np.abs(nl.mode_quadratures(ts, mode)[:, 0] - q_pp)) <= 1e-6
    again = nl.simulate_readout(state, mode, filt, phases, seed=6)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(again, (got_phases, q_pp, q_rt)))


def test_readout_input_validation():
    mode = default_composite()
    filt = nl.design_matched_filter(mode)
    other = nl.composite_mode(nl.default_gammas(), 0.0, nl.default_grid(dt=0.4e-9))
    with pytest.raises(DimensionError, match="grid"):
        nl.simulate_readout(nl.vacuum(5), mode, nl.MatchedFilter(other, 1.0), PHASES)
    fake = types.SimpleNamespace(samples=mode.samples * 2.0, dt=mode.dt, t=mode.t)
    with pytest.raises(InvalidInputError, match="normalized"):
        nl.simulate_readout(nl.vacuum(5), fake, filt, PHASES)
    for phases, message in (([], "need at least one event"), ([np.nan], "not finite")):
        with pytest.raises(InvalidInputError, match=message):
            nl.simulate_readout(nl.vacuum(5), mode, filt, phases)


def test_correlation_needs_populated_phase_bins():
    mode = default_composite()
    ts = nl.simulate_traces(nl.vacuum(5), mode, 3, [0.0, 0.5, 1.0], seed=9)
    with pytest.raises(InvalidInputError):
        nl.correlations_by_phase(ts.phases, *nl.mode_quadratures(ts, mode, mode).T)


# ---------------------------------------------------------------------------
# end-to-end: traces -> quadratures -> reconstruction
# ---------------------------------------------------------------------------

def test_traces_feed_tomography_roundtrip():
    truth = nl.rho_theta_phi_L(
        nl.GenerationParams(theta=1.09, phi=3 * np.pi / 2, loss=0.25), 5)
    mode = default_composite()
    ts = nl.simulate_traces(truth, mode, 12000, PHASES, seed=10)
    q = nl.mode_quadratures(ts, mode)[:, 0]
    ds = nl.TomographyDataset(phases=ts.phases, values=q)
    res = nl.mle_reconstruct(ds, dim=5)
    assert nl.fidelity(res.state, truth) >= 0.99


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def test_mode_csv_format():
    m = default_composite()
    buf = io.StringIO()
    nl.mode_to_csv(m, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t_ns,amplitude"
    assert len(lines) == m.t.size + 1
    t0, a0 = map(float, lines[1].split(","))
    assert t0 == pytest.approx(m.t[0] * 1e9)
    assert a0 == pytest.approx(m.samples[0])
