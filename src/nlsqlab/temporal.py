"""Temporal wave packets, matched filters, simulated homodyne traces, and
mode estimation.

Wave packets are one-sided rising exponentials e^{-gamma|t-t0|/2} Theta(t0-t)
and weighted three-pole composites thereof; a third-order low-pass filter
whose time-reversed impulse response overlaps the packet implements the
real-time quadrature readout that digital post-integration would otherwise
provide.
"""

from __future__ import annotations

import io
import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (AmbiguityError, DegeneratePoleError, DimensionError,
                     InvalidInputError, NumericalError, TruncationError)
from .fock import QuantumState

#: Oscilloscope-like defaults: 5 GS/s over a 200 ns frame centered on the
#: herald (t0 = 0 in frame coordinates).
DEFAULT_DT = 0.2e-9
DEFAULT_FRAME = 200e-9
#: Most points a default grid may have (the default one has 1,001), so that
#: a frame/step pair cannot allocate without bound.
MAX_GRID_POINTS = 10 ** 7

#: Cavity half-width-half-maximum linewidths (Hz) of the modeled source:
#: the parametric oscillator and two idler filter cavities.
DEFAULT_CAVITY_HWHM_HZ = (33.7e6, 140.1e6, 90.9e6)

MIN_CAPTURED_NORM = 0.999
MIN_PCA_EVENTS = 1000
#: Trace rows that simulation and projection handle at a time in float64;
#: one block (1 MB on the default grid) stays in cache between its steps.
_CHUNK = 128
#: PCA's block Lanczos: the residual bar, relative to the largest |Ritz
#: value|; how many blocks it adds between residual tests; and how many
#: blocks it adds before it gives up with NumericalError.
_LANCZOS_TOL = 1e-8
_LANCZOS_CHECK_EVERY = 8
_LANCZOS_MAX_STEPS = 150


def gamma_from_hwhm(hwhm_hz: float) -> float:
    """Field decay rate gamma (rad/s) of a cavity quoted by its Lorentzian
    HWHM in Hz.  The packet amplitude decays as gamma/2 = 2*pi*HWHM; this is
    the single place the convention lives."""
    return 4.0 * math.pi * hwhm_hz


def default_gammas() -> tuple[float, float, float]:
    return tuple(gamma_from_hwhm(h) for h in DEFAULT_CAVITY_HWHM_HZ)


def default_grid(frame: float = DEFAULT_FRAME, dt: float = DEFAULT_DT,
                 center: float = 0.0) -> np.ndarray:
    if not (0.0 < frame < math.inf and 0.0 < dt < math.inf):
        raise InvalidInputError(f"frame {frame} and step {dt} must be finite and positive")
    if not frame / dt < MAX_GRID_POINTS:
        raise InvalidInputError(f"frame {frame} at step {dt} needs more than "
                                f"{MAX_GRID_POINTS} grid points")
    n = int(round(frame / dt)) + 1
    return center + (np.arange(n) - (n - 1) / 2.0) * dt


def _grid_step(t: np.ndarray) -> float:
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise InvalidInputError("time grid must be a 1-D array with >= 2 points")
    steps = np.diff(t)
    dt = steps[0]
    if not dt > 0:
        raise InvalidInputError(f"time grid must be increasing, got step {dt}")
    if not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
        raise InvalidInputError("time grid must be uniform")
    return float(dt)


@dataclass(frozen=True)
class TemporalMode:
    """A normalized causal wave packet sampled on a uniform time grid.

    `decay_rates`/`weights` document the analytic pole structure when there
    is one (empty for estimated modes).  Samples vanish for t > t0 and
    satisfy sum(samples^2) * dt = 1.
    """

    decay_rates: tuple
    weights: tuple
    t0: float
    t: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        samples = np.asarray(self.samples, dtype=float).copy()
        dt = _grid_step(t)
        if samples.shape != t.shape:
            raise DimensionError("samples and grid must have identical shape")
        if np.any(np.abs(samples[t > self.t0 + dt * 1e-9]) > 0):
            raise InvalidInputError("mode must vanish for t > t0")
        norm = math.sqrt(float(np.sum(samples ** 2)) * dt)
        if norm == 0.0:
            raise InvalidInputError("mode has zero norm on the grid")
        samples /= norm
        t = t.copy()
        t.setflags(write=False)
        samples.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "decay_rates", tuple(float(g) for g in self.decay_rates))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    def __repr__(self):
        return (f"TemporalMode(poles={len(self.decay_rates)}, t0={self.t0!r}, "
                f"n={self.t.size})")


def _captured_norm(gamma_min: float, span: float) -> float:
    """Share of a packet's norm that a grid reaching `span` before t0 holds."""
    return 1.0 - math.exp(-gamma_min * span) if span > 0 else 0.0


def _check_span(gamma_min: float, t0: float, t: np.ndarray) -> None:
    captured = _captured_norm(gamma_min, t0 - float(t[0]))
    if captured < MIN_CAPTURED_NORM:
        raise TruncationError(
            f"grid captures only {captured:.6f} of the packet norm; extend it "
            f"to at least {10.0 / gamma_min:.3e} s before t0"
        )


def single_pole_mode(gamma: float, t0: float, t) -> TemporalMode:
    """Normalized e^{-gamma (t0-t)/2} Theta(t0-t) on the grid."""
    if not gamma > 0:
        raise InvalidInputError(f"decay rate must be positive, got {gamma}")
    t = np.asarray(t, dtype=float)
    _grid_step(t)
    _check_span(gamma, t0, t)
    tau = t0 - t
    samples = np.where(tau >= 0, np.exp(-gamma * np.clip(tau, 0, None) / 2.0), 0.0)
    return TemporalMode((gamma,), (1.0,), t0, t, samples)


def composite_weights(gammas) -> tuple[float, float, float]:
    """c1 = 1/((g2-g1)(g3-g1)) and cyclic permutations."""
    g1, g2, g3 = (float(g) for g in gammas)
    return (
        1.0 / ((g2 - g1) * (g3 - g1)),
        1.0 / ((g3 - g2) * (g1 - g2)),
        1.0 / ((g1 - g3) * (g2 - g3)),
    )


def _distinct(gammas) -> bool:
    """No two decay rates agree to within 1e-9 relative."""
    return not any(abs(a - b) < 1e-9 * max(abs(a), abs(b))
                   for i, a in enumerate(gammas) for b in gammas[i + 1:])


def _composite_samples(gammas, weights, support, tau) -> np.ndarray:
    """Unnormalized packet sum_n w_n e^{-g_n tau/2} on the grid: `tau` holds
    t0 - t at the `support` points (tau >= 0); all other points are zero."""
    packet = np.zeros_like(tau)
    for g, w in zip(gammas, weights):
        packet += w * np.exp(-g * tau / 2.0)
    samples = np.zeros(support.size)
    samples[support] = packet
    return samples


def composite_mode(gammas, t0: float, t) -> TemporalMode:
    """Three-cavity packet: normalized sum of one-sided exponentials with the
    partial-fraction weights of a cascade of three single-pole responses."""
    gammas = tuple(float(g) for g in gammas)
    if len(gammas) != 3:
        raise InvalidInputError("composite mode takes exactly three decay rates")
    if any(not g > 0 for g in gammas):
        raise InvalidInputError("decay rates must be positive")
    if not _distinct(gammas):
        raise DegeneratePoleError(f"decay rates must be distinct, got {gammas}")
    t = np.asarray(t, dtype=float)
    _grid_step(t)
    _check_span(min(gammas), t0, t)
    weights = composite_weights(gammas)
    support = t0 - t >= 0
    samples = _composite_samples(gammas, weights, support, (t0 - t)[support])
    return TemporalMode(gammas, weights, t0, t, samples)


def mode_overlap(a: TemporalMode, b: TemporalMode) -> float:
    """Squared normalized inner product |<a|b>|^2 of two modes on one grid."""
    if a.t.shape != b.t.shape or not np.allclose(a.t, b.t, rtol=0, atol=1e-15):
        raise DimensionError("modes live on different time grids")
    inner = float(np.sum(a.samples * b.samples) * a.dt)
    return min(inner ** 2, 1.0)


# ---------------------------------------------------------------------------
# matched filter design
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchedFilter:
    """Third-order low-pass filter: real poles (rad/s) plus its time-reversed
    impulse response on the target grid and the achieved overlap."""

    poles: tuple[float, float, float]
    response: TemporalMode
    overlap: float


#: Largest argument math.exp takes without overflowing.
_MAX_EXP_ARG = math.log(sys.float_info.max)


def design_matched_filter(target: TemporalMode) -> MatchedFilter:
    """Pick three real pole frequencies whose time-reversed impulse response
    maximizes the overlap with the target packet.

    That response, for real poles p_n, is the composite packet with decay
    rates 2*p_n.  A target built by `composite_mode` (three decay rates
    carrying their partial-fraction weights) is therefore matched exactly
    by p_n = gamma_n / 2, and no search runs.  Any other target (a
    single-pole mode, a PCA estimate) gets one search; see `_searched_rates`.
    """
    rates = target.decay_rates
    exact = len(rates) == 3 and target.weights == composite_weights(rates)
    rates = sorted(rates if exact else _searched_rates(target))
    response = composite_mode(rates, target.t0, target.t)
    return MatchedFilter(poles=tuple(g / 2.0 for g in rates), response=response,
                         overlap=mode_overlap(response, target))


def _searched_rates(target: TemporalMode) -> tuple[float, float, float]:
    """Decay rates 2*p_n of the best response: one Nelder-Mead search over
    strictly ordered poles (never confluent) from the packet's mean delay.
    One evaluation scores 1.0 for poles that overflow, are not distinct,
    leave more than 1 - MIN_CAPTURED_NORM of the packet outside the grid or
    give a response that vanishes on it.  Otherwise it sums the three
    weighted exponentials on the tau = t0 - t >= 0 support, computed once
    per design, and returns minus the squared overlap with the target.
    Raises NumericalError when the search cannot improve on its start.
    """
    from scipy.optimize import minimize

    t, t0, dt = target.t, target.t0, target.dt
    tau_mean = float(np.sum((t0 - t) * target.samples ** 2) * dt)
    rate0 = 1.0 / max(tau_mean, 10.0 * dt)  # effective power decay rate
    span = t0 - float(t[0])
    support = t0 - t >= 0
    tau = (t0 - t)[support]

    def rates_from(u):
        p1 = math.exp(u[0])
        p2 = p1 * (1.0 + math.exp(u[1]))
        p3 = p2 * (1.0 + math.exp(u[2]))
        return 2.0 * p1, 2.0 * p2, 2.0 * p3

    def objective(u):
        if max(u) > _MAX_EXP_ARG:
            return 1.0
        gammas = rates_from(u)
        if (math.isinf(gammas[2]) or not _distinct(gammas)
                or _captured_norm(min(gammas), span) < MIN_CAPTURED_NORM):
            return 1.0
        # The norm and the inner product repeat TemporalMode and
        # mode_overlap operation for operation, so the poles match a
        # mode-based design bit for bit.  The sums run over the whole grid
        # because pairwise summation groups terms by the array length.
        samples = _composite_samples(gammas, composite_weights(gammas),
                                     support, tau)
        norm = math.sqrt(float(np.sum(samples ** 2)) * dt)
        if norm == 0.0:
            return 1.0
        inner = float(np.sum(samples / norm * target.samples) * dt)
        return -min(inner ** 2, 1.0)

    u0 = np.array([math.log(rate0 / 2.0), math.log(3.0), math.log(2.0)])
    res = minimize(objective, u0, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-14,
                            "maxiter": 4000, "maxfev": 6000})
    if not res.fun < 0.0:
        raise NumericalError("filter design failed to improve on its start")
    return rates_from(res.x)


# ---------------------------------------------------------------------------
# trace simulation, PCA mode estimation, and the two readout paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceSet:
    """Simulated continuous homodyne records, one row per heralding event,
    held as float32 (the precision of the trace file)."""

    traces: np.ndarray
    dt: float
    phases: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        # A view, so freezing it leaves a float32 caller's array writable.
        traces = np.asarray(self.traces, dtype=np.float32).view()
        phases = np.asarray(self.phases, dtype=float).ravel()
        t = np.asarray(self.t, dtype=float).ravel()
        if traces.ndim != 2:
            raise InvalidInputError("traces must be a 2-D array")
        if phases.size != traces.shape[0]:
            raise DimensionError("one LO phase per trace required")
        if t.size != traces.shape[1]:
            raise DimensionError("time grid must match the trace length")
        if not np.all(np.isfinite(traces)):
            raise InvalidInputError("traces contain non-finite values")
        for arr in (traces, phases, t):
            arr.setflags(write=False)
        object.__setattr__(self, "traces", traces)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "t", t)

    @property
    def n_events(self) -> int:
        return self.traces.shape[0]

    @property
    def n_bins(self) -> int:
        return self.traces.shape[1]

    def __repr__(self):
        return f"TraceSet(n_events={self.n_events}, n_bins={self.n_bins})"


def simulate_traces(state: QuantumState, mode: TemporalMode, n_events: int,
                    phases, seed: int = 0) -> TraceSet:
    """Homodyne records q*f(t) + vacuum noise in the orthogonal complement.

    q is drawn from the state's quadrature distribution at each trace's LO
    phase; the additive noise is white with the vacuum variance per mode on
    the grid, with its component along f removed.  Integrating a trace
    against f therefore returns exactly the drawn quadrature sample.
    """
    from .tomo import _cdf_table, _lo_phases

    if n_events < 1:
        raise InvalidInputError("need at least one event")
    f = mode.samples
    dt = mode.dt
    norm = float(np.sum(f ** 2) * dt)
    if abs(norm - 1.0) > 1e-6:
        raise InvalidInputError("mode must be normalized on its grid")
    phase_per_event = np.resize(_lo_phases(phases), n_events)
    ss = np.random.SeedSequence(seed)
    rng_q, rng_noise = (np.random.default_rng(c) for c in ss.spawn(2))

    u = rng_q.random(n_events)
    q = np.empty(n_events)
    for phase in np.unique(phase_per_event):
        idx = np.flatnonzero(phase_per_event == phase)
        x_grid, cdf = _cdf_table(state, float(phase))
        q[idx] = np.interp(u[idx], cdf, x_grid)

    # One block of rows at a time: the Generator fills a block with the next
    # values of its stream, so the float32 result does not depend on _CHUNK.
    traces = np.empty((n_events, f.size), dtype=np.float32)
    for start in range(0, n_events, _CHUNK):
        rows = slice(start, start + _CHUNK)
        noise = rng_noise.standard_normal(traces[rows].shape) / math.sqrt(2.0 * dt)
        noise -= np.outer(noise @ f * dt, f)
        traces[rows] = np.outer(q[rows], f) + noise
    return TraceSet(traces=traces, dt=dt, phases=phase_per_event, t=mode.t)


def pca_mode_estimate(traces: TraceSet, window=None) -> TemporalMode:
    """Leading principal component of the trace covariance after subtracting
    the known vacuum floor 1/(2 dt); returned sign-fixed (positive peak) and
    normalized.

    `window = (t_lo, t_hi)` restricts the analysis to bins inside the window
    (estimation error grows with the number of analyzed bins, so localizing
    around the herald helps); outside bins enter the returned mode as zeros.
    The centered traces and their product stay float32; only the two
    largest eigenpairs of the float64 covariance are computed, by block
    Lanczos (`_top_two_eigenpairs`), which raises NumericalError when it does
    not converge.
    """
    if traces.n_events < MIN_PCA_EVENTS:
        raise InvalidInputError(f"need at least {MIN_PCA_EVENTS} traces")
    lo, hi = (-math.inf, math.inf) if window is None else (float(window[0]), float(window[1]))
    inside = np.flatnonzero((traces.t >= lo) & (traces.t <= hi))
    if inside.size < 2:
        raise InvalidInputError(f"analysis window holds {inside.size} grid "
                                "point(s); PCA needs at least 2")
    # The grid increases, so the window is one slice: a view, not a copy.
    first, stop = int(inside[0]), int(inside[-1]) + 1
    x = traces.traces[:, first:stop]
    x = np.subtract(x, x.mean(axis=0, dtype=np.float64),
                    out=np.empty(x.shape, dtype=np.float32), casting="same_kind")
    cov = (x.T @ x).astype(np.float64) / traces.n_events
    del x  # free the centered copy before the eigensolver runs
    n = stop - first
    cov[np.diag_indices(n)] -= 1.0 / (2.0 * traces.dt)
    (mu2, mu1), vecs = _top_two_eigenpairs(cov)
    if mu1 <= 0 or mu1 < 2.0 * max(mu2, 0.0):
        raise AmbiguityError(
            f"leading covariance eigenvalue {mu1:.3e} is not separated from "
            f"the next one {mu2:.3e}; no preferred temporal mode"
        )
    full = np.zeros(traces.n_bins)
    full[first:stop] = vecs[:, 1]
    if full[np.argmax(np.abs(full))] < 0:
        full = -full
    return TemporalMode((), (), float(traces.t[stop - 1]), traces.t, full)


def _top_two_eigenpairs(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two largest eigenvalues of the symmetric matrix `cov`, ascending,
    and their unit eigenvectors as columns.

    Block Lanczos with blocks of two vectors (Golub & Van Loan, *Matrix
    Computations*, ch. 10).  A block of two spans both copies of a repeated
    top eigenvalue, which one start vector reaches only through round-off.
    The start block is fixed, so equal input gives equal bytes.  Each new
    block is orthogonalised twice against every earlier vector, and a new
    direction that a further pass halves is dropped as round-off inside the
    span ("twice is enough": Parlett, *The Symmetric Eigenvalue Problem*,
    ch. 6).  Every _LANCZOS_CHECK_EVERY blocks, and whenever the basis
    cannot grow, the residuals ||C y - theta y|| of the top two Ritz pairs,
    read off the part of C times the last block that lies outside the
    basis, are tested against _LANCZOS_TOL times the largest |Ritz value|;
    the pairs are returned once both pass.  A basis that fills the space, or
    an invariant subspace, makes them exact.  Once the basis holds
    2 * _LANCZOS_MAX_STEPS vectors it raises NumericalError rather than
    return an unconverged pair.
    """
    n = cov.shape[0]
    size = min(n, 2 * _LANCZOS_MAX_STEPS)
    basis = np.empty((size, n))  # orthonormal rows
    proj = np.zeros((size, size))  # basis @ cov @ basis.T, block tridiagonal
    start = np.random.default_rng(0).standard_normal((n, 2))
    basis[:2] = np.linalg.qr(start)[0].T
    lo, hi = 0, 2  # rows of the current block
    step = 0
    while True:
        step += 1
        w = basis[lo:hi] @ cov
        diag = np.zeros((hi - lo, hi - lo))
        for _ in range(2):
            c = w @ basis[:hi].T
            w -= c @ basis[:hi]
            diag += c[:, lo:hi]
        proj[lo:hi, lo:hi] = (diag + diag.T) / 2.0
        # w is now the part of C times the block outside the basis.  Its
        # directions, longest first, get one more pass; the first one that
        # pass halves, and those after it, are dropped.
        order = np.argsort(-np.linalg.norm(w, axis=1), kind="stable")
        new = np.linalg.qr(w[order].T)[0].T
        new -= (new @ basis[:hi].T) @ basis[:hi]
        q, r = np.linalg.qr(new.T)
        kept = np.cumprod(np.abs(np.diag(r)) > 0.5)
        grow = min(int(kept.sum()), size - hi)
        if grow == 0 or step % _LANCZOS_CHECK_EVERY == 0:
            theta, s = np.linalg.eigh(proj[:hi, :hi])
            residual = np.linalg.norm(s[lo:hi, -2:].T @ w, axis=1)
            bar = _LANCZOS_TOL * max(-theta[0], theta[-1])
            if np.all(residual <= bar):
                return theta[-2:], basis[:hi].T @ s[:, -2:]
            if grow == 0:
                raise NumericalError(
                    f"PCA eigensolver did not converge in {step} Lanczos steps: "
                    f"residuals {residual[1]:.2e} and {residual[0]:.2e}, "
                    f"bar {bar:.2e}")
        basis[hi:hi + grow] = q.T[:grow]
        coupling = basis[hi:hi + grow] @ w.T
        proj[hi:hi + grow, lo:hi] = coupling
        proj[lo:hi, hi:hi + grow] = coupling.T
        lo, hi = hi, hi + grow


def mode_quadratures(traces: TraceSet, mode: TemporalMode) -> np.ndarray:
    """Mode-weighted integral sum_t x(t) f(t) dt of every trace: its
    quadrature in `mode`.  Rows are cast to float64 one block at a time, so
    the products accumulate in float64 without a float64 copy of the set."""
    if mode.t.shape != traces.t.shape or not np.allclose(mode.t, traces.t, rtol=0, atol=1e-15):
        raise DimensionError("mode grid must match the trace grid")
    out = np.empty(traces.n_events)
    for start in range(0, traces.n_events, _CHUNK):
        rows = slice(start, start + _CHUNK)
        out[rows] = traces.traces[rows].astype(np.float64) @ mode.samples
    return out * traces.dt


def realtime_vs_postprocess(traces: TraceSet, filt, mode: TemporalMode) -> dict:
    """Pearson correlation, per LO phase, between the digital mode-weighted
    integral and the filtered signal sampled at the herald time."""
    response = filt.response if isinstance(filt, MatchedFilter) else filt
    return _correlations_by_phase(traces.phases, mode_quadratures(traces, mode),
                                  mode_quadratures(traces, response))


def _correlations_by_phase(phases: np.ndarray, q_pp: np.ndarray,
                           q_rt: np.ndarray) -> dict:
    """Pearson correlation of two quadrature arrays within each LO phase."""
    out = {}
    for phase in np.unique(phases):
        idx = phases == phase
        if idx.sum() < 2:
            raise InvalidInputError(f"phase bin {phase} has fewer than 2 traces")
        out[float(phase)] = float(np.corrcoef(q_pp[idx], q_rt[idx])[0, 1])
    return out


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<IId")


def save_traces(traces: TraceSet, fh) -> None:
    """Binary layout: header {n_events u32, n_bins u32, dt_ns f64}, then
    row-major float32 samples, then one float64 phase per event.  Frames are
    stored relative to the herald (grid centered on t0 = 0)."""
    fh.write(_HEADER.pack(traces.n_events, traces.n_bins, traces.dt * 1e9))
    fh.write(np.ascontiguousarray(traces.traces, dtype="<f4"))
    fh.write(np.ascontiguousarray(traces.phases, dtype="<f8"))


def load_traces(fh) -> TraceSet:
    head = fh.read(_HEADER.size)
    if len(head) != _HEADER.size:
        raise InvalidInputError("truncated trace file header")
    n_events, n_bins, dt_ns = _HEADER.unpack(head)
    dt = dt_ns * 1e-9
    if not (math.isfinite(dt) and dt > 0):
        raise InvalidInputError(f"trace file bin width must be positive, got {dt_ns} ns")
    declared = (4 * n_bins + 8) * n_events
    start = fh.tell()
    available = fh.seek(0, io.SEEK_END) - start
    fh.seek(start)
    if available < declared:
        raise InvalidInputError(
            f"trace header declares {n_events} x {n_bins} samples ({declared} "
            f"bytes), but only {available} bytes follow it"
        )
    payload = np.frombuffer(fh.read(4 * n_events * n_bins), dtype="<f4")
    if payload.size != n_events * n_bins:
        raise InvalidInputError("truncated trace payload")
    phases = np.frombuffer(fh.read(8 * n_events), dtype="<f8")
    if phases.size != n_events:
        raise InvalidInputError("truncated phase block")
    if fh.read(1):
        raise InvalidInputError("trailing bytes after the phase block")
    t = (np.arange(n_bins) - (n_bins - 1) / 2.0) * dt
    return TraceSet(traces=payload.reshape(n_events, n_bins),
                    dt=dt, phases=phases.astype(float), t=t)


def mode_to_csv(mode: TemporalMode, fh) -> None:
    fh.write("t_ns,amplitude\n")
    for t, a in zip(mode.t, mode.samples):
        fh.write(f"{float(t) * 1e9!r},{float(a)!r}\n")
