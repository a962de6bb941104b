"""Temporal wave packets, matched filters, simulated homodyne traces, and
mode estimation.

Wave packets are weighted sums of one-sided rising exponentials
e^{-gamma|t-t0|/2} Theta(t0-t), one per cavity of a cascade of one or more;
a third-order low-pass filter whose time-reversed impulse response overlaps
the packet implements the real-time quadrature readout that digital
post-integration would otherwise provide.
"""

from __future__ import annotations

import contextlib
import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (AmbiguityError, DegeneratePoleError, DimensionError,
                     InvalidInputError, NumericalError, TruncationError)
from .fock import QuantumState
from .tomo import _draw, _lo_phases

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
#: Trace rows that simulation and projection handle at a time; on the
#: default grid a float32 block (0.5 MB) and the float64 uniforms it is drawn
#: from or its float64 cast (1 MB) stay in cache between their steps.
_CHUNK = 128
#: Trace rows that the trace-file reader and PCA take at a time: a 4-MB
#: float32 block on the default grid.  PCA adds each block's float32 Gram to
#: a float64 one; at 256-512 rows those additions cost it 25-60 ms more on
#: 10^4 events.
_BLOCK_ROWS = 1024
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


class _CheckedGrid(bytes):
    """The bytes of a time grid that `_grid` has checked.  An array over
    them is read-only for good, so it stays checked."""


def _grid(t) -> np.ndarray:
    """t as a finite, increasing, uniform, read-only float64 grid.

    The grid of a mode (an array `_grid` returned) comes back as it is, with
    no copy and no second check; any other array, a read-only view of a
    mode's grid included, is checked and copied.
    """
    if type(getattr(t, "base", None)) is _CheckedGrid:
        return t
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise InvalidInputError("time grid must be finite")
    if t.ndim != 1 or t.size < 2:
        raise InvalidInputError("time grid must be a 1-D array with >= 2 points")
    steps = np.diff(t)
    dt = steps[0]
    if not dt > 0:
        raise InvalidInputError(f"time grid must be increasing, got step {dt}")
    if not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
        raise InvalidInputError("time grid must be uniform")
    return np.frombuffer(_CheckedGrid(t.tobytes()))


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
        t = _grid(self.t)
        samples = np.asarray(self.samples, dtype=float).copy()
        if not np.all(np.isfinite(samples)):
            raise InvalidInputError("mode samples must be finite")
        dt = float(t[1] - t[0])
        if samples.shape != t.shape:
            raise DimensionError("samples and grid must have identical shape")
        if np.any(np.abs(samples[t > self.t0 + dt * 1e-9]) > 0):
            raise InvalidInputError("mode must vanish for t > t0")
        norm = math.sqrt(float(np.sum(samples ** 2)) * dt)
        if norm == 0.0:
            raise InvalidInputError("mode has zero norm on the grid")
        samples /= norm
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


def _check_span(gamma_min: float, t0: float, t: np.ndarray) -> None:
    """Raise TruncationError unless the grid, reaching t0 - t[0] before t0,
    holds MIN_CAPTURED_NORM of the packet's norm."""
    span = t0 - float(t[0])
    captured = 1.0 - math.exp(-gamma_min * span) if span > 0 else 0.0
    if captured < MIN_CAPTURED_NORM:
        raise TruncationError(
            f"grid captures only {captured:.6f} of the packet norm; extend it "
            f"to at least {10.0 / gamma_min:.3e} s before t0"
        )


def single_pole_mode(gamma: float, t0: float, t) -> TemporalMode:
    """Normalized e^{-gamma (t0-t)/2} Theta(t0-t) on the grid: the packet of
    one cavity."""
    return composite_mode((gamma,), t0, t)


def composite_weights(gammas) -> tuple[float, ...]:
    """c_i = 1/prod_{j != i}(g_j - g_i), the partial-fraction weights of a
    cascade of single-pole responses (1 for a single rate).  Raises
    InvalidInputError when a product of rate differences underflows, so
    that its weight would not be finite."""
    gammas = tuple(float(g) for g in gammas)
    products = (math.prod(gj - gi for j, gj in enumerate(gammas) if j != i)
                for i, gi in enumerate(gammas))
    weights = tuple(1.0 / p if p else math.inf for p in products)
    if not all(map(math.isfinite, weights)):
        raise InvalidInputError(f"decay rates {gammas}: a product of their "
                                "differences underflows, so their weights are not finite")
    return weights


def _distinct(gammas) -> bool:
    """No two decay rates agree to within 1e-9 relative."""
    return not any(abs(a - b) < 1e-9 * max(abs(a), abs(b))
                   for i, a in enumerate(gammas) for b in gammas[i + 1:])


def composite_mode(gammas, t0: float, t) -> TemporalMode:
    """Packet of a cascade of one or more cavities with distinct decay
    rates: the normalized sum of one-sided exponentials with the
    partial-fraction weights of `composite_weights`."""
    gammas = tuple(float(g) for g in gammas)
    if not gammas:
        raise InvalidInputError("composite mode takes at least one decay rate")
    if any(not 0 < g < math.inf for g in gammas):
        raise InvalidInputError(f"decay rates must be finite and positive, got {gammas}")
    if not _distinct(gammas):
        raise DegeneratePoleError(f"decay rates must be distinct, got {gammas}")
    t = _grid(t)
    _check_span(min(gammas), t0, t)
    weights = composite_weights(gammas)
    # Exponentials on the tau = t0 - t >= 0 support only: over the whole grid
    # they double the time of a searched filter design on a fine grid.
    support = t0 - t >= 0
    tau = (t0 - t)[support]
    packet = np.zeros_like(tau)
    for g, w in zip(gammas, weights):
        packet += w * np.exp(-g * tau / 2.0)
    samples = np.zeros(t.size)
    samples[support] = packet
    return TemporalMode(gammas, weights, t0, t, samples)


def mode_overlap(a: TemporalMode, b: TemporalMode) -> float:
    """Squared normalized inner product |<a|b>|^2 of two modes on one grid.
    Modes that share one grid array, as a filter and the target it was
    designed on do, skip the comparison of the grids."""
    return min(_inner(a, b) ** 2, 1.0)


def _inner(a: TemporalMode, b: TemporalMode) -> float:
    """Signed inner product sum_t a(t) b(t) dt of two modes on one grid."""
    if a.t is not b.t and (a.t.shape != b.t.shape
                           or not np.allclose(a.t, b.t, rtol=0, atol=1e-15)):
        raise DimensionError("modes live on different time grids")
    return float(np.sum(a.samples * b.samples) * a.dt)


# ---------------------------------------------------------------------------
# matched filter design
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchedFilter:
    """Third-order low-pass filter: its time-reversed impulse response on the
    target grid, the achieved overlap, and the real poles (rad/s), which are
    half the response's decay rates."""

    response: TemporalMode
    overlap: float

    @property
    def poles(self) -> tuple[float, float, float]:
        return tuple(g / 2.0 for g in self.response.decay_rates)


def design_matched_filter(target: TemporalMode) -> MatchedFilter:
    """Pick three real pole frequencies whose time-reversed impulse response
    maximizes the overlap with the target packet.

    That response, for real poles p_n, is the composite packet with decay
    rates 2*p_n.  A target built by `composite_mode` from three decay rates
    (carrying their partial-fraction weights) is therefore matched exactly
    by p_n = gamma_n / 2, and no search runs.  Any other target (a packet
    of one, two or four or more cavities, a PCA estimate) gets one search;
    see `_searched_rates`.
    """
    rates = target.decay_rates
    exact = len(rates) == 3 and target.weights == composite_weights(rates)
    rates = sorted(rates if exact else _searched_rates(target))
    response = composite_mode(rates, target.t0, target.t)
    return MatchedFilter(response=response, overlap=mode_overlap(response, target))


def _searched_rates(target: TemporalMode) -> tuple[float, float, float]:
    """Decay rates 2*p_n of the best response: one Nelder-Mead search
    (`_nelder_mead`) over strictly ordered poles (never confluent) from the
    packet's mean delay.  One evaluation is minus the overlap of the response
    `composite_mode` builds with the target, or 1.0 for poles it rejects
    (overflowing, not distinct, leaving more than 1 - MIN_CAPTURED_NORM of
    the packet outside the grid, or vanishing on it).  Raises NumericalError
    when the search cannot improve on its start.
    """
    t, t0, dt = target.t, target.t0, target.dt
    tau_mean = float(np.sum((t0 - t) * target.samples ** 2) * dt)
    rate0 = 1.0 / max(tau_mean, 10.0 * dt)  # effective power decay rate

    def rates_from(u):
        p1 = math.exp(u[0])
        p2 = p1 * (1.0 + math.exp(u[1]))
        p3 = p2 * (1.0 + math.exp(u[2]))
        return 2.0 * p1, 2.0 * p2, 2.0 * p3

    def objective(u):
        try:
            return -mode_overlap(composite_mode(rates_from(u), t0, t), target)
        except (ArithmeticError, InvalidInputError):
            return 1.0

    u0 = np.array([math.log(rate0 / 2.0), math.log(3.0), math.log(2.0)])
    u, fun, _ = _nelder_mead(objective, u0)
    if not fun < 0.0:
        raise NumericalError("filter design failed to improve on its start")
    return rates_from(u)


def _nelder_mead(objective, start):
    """(point, value, evaluations) of scipy.optimize.minimize's Nelder-Mead
    from `start` at xatol 1e-10, fatol 1e-14, maxiter 4000 and maxfev 6000:
    the same start simplex, steps, sorts and stopping tests, so its iterates."""
    xatol, fatol, maxiter, maxfev = 1e-10, 1e-14, 4000, 6000
    n = len(start)
    sim = np.array([start] * (n + 1), dtype=float)
    for k in range(n):
        sim[k + 1, k] = 1.05 * sim[0, k] if sim[0, k] != 0 else 0.00025
    budget = iter(range(1, maxfev + 1))
    calls = 0

    def f(x):  # StopIteration once maxfev evaluations are spent
        nonlocal calls
        calls = next(budget)
        return objective(x)

    fsim = np.array([f(x) for x in sim])
    iterations = 1
    for _ in range(2):  # scipy sorts the start simplex twice
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    while calls < maxfev and iterations < maxiter and not (
            np.max(np.abs(sim[1:] - sim[0])) <= xatol
            and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
        with contextlib.suppress(StopIteration):
            xbar = np.add.reduce(sim[:-1], 0) / n
            fxr = f(xr := 2 * xbar - sim[-1])
            if fxr < fsim[0]:
                fxe = f(xe := 3 * xbar - 2 * sim[-1])
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                outside = fxr < fsim[-1]
                fxc = f(xc := 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1])
                if fxc <= fxr if outside else fxc < fsim[-1]:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            iterations += 1
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return sim[0], fsim[0], calls


# ---------------------------------------------------------------------------
# trace simulation, PCA mode estimation, and the two readout paths
# ---------------------------------------------------------------------------


def _check_step(t: np.ndarray, dt: float) -> None:
    """Raise InvalidInputError unless dt is the step of the checked grid t
    to within 1e-9 relative."""
    step = float(t[1] - t[0])
    if not abs(step - dt) <= 1e-9 * dt:
        raise InvalidInputError(f"bin width {dt!r} s differs from the grid's step {step!r} s")


def _check_finite(traces: np.ndarray) -> None:
    """Raise InvalidInputError if the samples hold a NaN or an infinity;
    their min and max carry any, with no sample-sized mask."""
    if traces.size and not (np.isfinite(traces.min()) and np.isfinite(traces.max())):
        raise InvalidInputError("traces contain non-finite values")


@dataclass(frozen=True)
class TraceSet:
    """Simulated continuous homodyne records, one row per heralding event,
    held as float32 (the precision of the trace file).  The grid `t` is
    checked as a mode's grid is (see `_grid`), and `dt` must be its step to
    within 1e-9 relative."""

    traces: np.ndarray
    dt: float
    phases: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        # A view, so freezing it leaves a float32 caller's array writable.
        traces = np.asarray(self.traces, dtype=np.float32).view()
        phases = np.asarray(self.phases, dtype=float).ravel()
        t = _grid(self.t)
        if traces.ndim != 2:
            raise InvalidInputError("traces must be a 2-D array")
        if phases.size != traces.shape[0]:
            raise DimensionError("one LO phase per trace required")
        if t.size != traces.shape[1]:
            raise DimensionError("time grid must match the trace length")
        _check_step(t, self.dt)
        _check_finite(traces)
        for arr in (traces, phases):
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

    def blocks(self):
        """The rows, _BLOCK_ROWS at a time, as read-only views."""
        for start in range(0, self.n_events, _BLOCK_ROWS):
            yield self.traces[start:start + _BLOCK_ROWS]

    def __repr__(self):
        return f"TraceSet(n_events={self.n_events}, n_bins={self.n_bins})"


def _draw_events(state: QuantumState, mode: TemporalMode, n_events: int,
                 phases, seed: int):
    """The per-event LO phases (`phases` repeated to n_events), the
    quadratures drawn at them from the first child stream of
    SeedSequence(seed), and the second child, which seeds the noise."""
    if n_events < 1:
        raise InvalidInputError("need at least one event")
    if abs(float(np.sum(mode.samples ** 2) * mode.dt) - 1.0) > 1e-6:
        raise InvalidInputError("mode must be normalized on its grid")
    phase_per_event = np.resize(_lo_phases(phases), n_events)
    seed_q, seed_rest = np.random.SeedSequence(seed).spawn(2)
    q = _draw(state, phase_per_event, np.random.default_rng(seed_q).random(n_events))
    return phase_per_event, q, seed_rest


class SimulatedTraces:
    """The trace set `simulate_traces` returns for the same arguments, drawn
    _CHUNK rows at a time whenever `blocks` is iterated and never held
    whole: `save_traces` writes it block by block as it is drawn.  The
    phases and quadratures are drawn here, so bad arguments raise before
    any block is."""

    def __init__(self, state: QuantumState, mode: TemporalMode, n_events: int,
                 phases, seed: int = 0):
        self.phases, self._q, self._noise_seed = _draw_events(state, mode, n_events,
                                                              phases, seed)
        self._f = mode.samples
        self.n_events, self.n_bins, self.dt, self.t = n_events, mode.t.size, mode.dt, mode.t

    def blocks(self):
        """The rows, _CHUNK at a time, each in one buffer that the next
        block overwrites.

        Each row's noise is the Box-Muller transform of the next 2m float64
        uniforms u of the stream, m = ceil(n_bins/2): radii
        r = sqrt(-2 ln(1 - u)/(2 dt)) from the first m, computed in float64
        (so no log(0), and a tail out to 8.6 standard deviations) and then
        rounded to float32, and float32 angles 2 pi u from the next m.  Bins
        [0, m) get r cos, and the other n_bins - m bins get r sin of the
        first n_bins - m angles.  A row reads only its own uniforms, so the
        rows do not depend on _CHUNK."""
        f, dt, n = self._f, self.dt, self.n_bins
        m = (n + 1) // 2
        f32 = f.astype(np.float32)
        rng = np.random.default_rng(self._noise_seed)
        buf = np.empty((min(_CHUNK, self.n_events), n), dtype=np.float32)
        for start in range(0, self.n_events, _CHUNK):
            block = buf[:min(_CHUNK, self.n_events - start)]
            u = rng.random((block.shape[0], 2 * m))
            r = np.sqrt(np.log(1.0 - u[:, :m]) / -dt).astype(np.float32)
            angle = (u[:, m:] * (2.0 * np.pi)).astype(np.float32)
            np.multiply(np.cos(angle), r, out=block[:, :m])
            np.multiply(np.sin(angle[:, :n - m]), r[:, :n - m], out=block[:, m:])
            q = self._q[start:start + _CHUNK]
            block -= np.outer((block @ f * dt - q).astype(np.float32), f32)
            yield block


def simulate_traces(state: QuantumState, mode: TemporalMode, n_events: int,
                    phases, seed: int = 0) -> TraceSet:
    """Homodyne records q*f(t) + vacuum noise in the orthogonal complement.

    q is drawn from the state's quadrature distribution at each trace's LO
    phase; the additive noise is white with the vacuum variance per mode on
    the grid, with its component along f removed.  The noise is drawn one
    block of rows at a time (`SimulatedTraces.blocks`), as float32 normals
    made by the Box-Muller transform from float64 uniforms, and each row
    then has its float64 projection on f, minus q, subtracted along f once.
    Integrating a trace against f therefore gives back the drawn quadrature
    sample up to float32 round-off.
    """
    sim = SimulatedTraces(state, mode, n_events, phases, seed)
    traces = np.empty((n_events, sim.n_bins), dtype=np.float32)
    for start, block in zip(range(0, n_events, _CHUNK), sim.blocks()):
        traces[start:start + _CHUNK] = block
    return TraceSet(traces=traces, dt=sim.dt, phases=sim.phases, t=sim.t)


def simulate_readout(state: QuantumState, mode: TemporalMode, filt: MatchedFilter,
                     phases, seed: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(phases, q_pp, q_rt): one event per entry of `phases`, with the
    mode-weighted integral q_pp and the filter's readout q_rt of the trace
    `simulate_traces` models, drawn from their exact joint law and with no
    trace built.

    A trace is q*f plus white vacuum noise with its component along f
    removed, so for the response r with c = <r, f> its two projections are
    q_pp = q and q_rt = c*q + sqrt((|r|^2 - c^2)/2)*z, with z standard
    normal and independent of q.  q is drawn as `simulate_traces` draws it,
    from the first child stream of SeedSequence(seed), and z from the
    second child.
    """
    r = filt.response
    c = _inner(r, mode)
    # |r|^2 >= c^2 for the unit f, so only round-off can make this negative.
    spread = math.sqrt(max(_inner(r, r) - c * c, 0.0) / 2.0)
    phases, q, seed_z = _draw_events(state, mode, np.size(phases), phases, seed)
    return phases, q, c * q + spread * np.random.default_rng(seed_z).standard_normal(q.size)


def pca_mode_estimate(traces: TraceSet | TraceFile, window=None) -> TemporalMode:
    """Leading principal component of the trace covariance after subtracting
    the known vacuum floor 1/(2 dt); returned sign-fixed (positive peak) and
    normalized.

    `traces` is a TraceSet or a TraceFile.  Either is read in blocks of
    _BLOCK_ROWS rows, so a trace file is never held whole and a TraceSet's
    rows are not copied.  `window = (t_lo, t_hi)` restricts the analysis to
    bins inside the window (estimation error grows with the number of
    analyzed bins, so localizing around the herald helps); outside bins
    enter the returned mode as zeros.  Each block adds the float32 Gram
    matrix X^T X of its uncentered window to a float64 Gram, and its float64
    column sums to float64 totals; the outer product of the column means is
    then subtracted in float64.  Block Lanczos (`_top_eigenpair`) seeks only
    the top eigenpair and a value for the second eigenvalue mu2.  It stops
    once the top pair has converged and the second Ritz value plus its
    residual lies below half the first, and gives that sum for mu2;
    otherwise it runs until both pairs have converged, gives the second
    Ritz value, and raises NumericalError if they do not.  Neither value is
    a proven upper bound on mu2: both assume the Krylov space has not
    missed an eigenvalue above the second Ritz value.  AmbiguityError is
    raised unless mu1 > 0 and mu1 >= 2 mu2.  A vacuum floor or a covariance
    diagonal that is not finite (a subnormal dt, or samples whose float32
    squares overflow) raises NumericalError before the eigensolver starts.
    """
    if traces.n_events < MIN_PCA_EVENTS:
        raise InvalidInputError(f"need at least {MIN_PCA_EVENTS} traces")
    lo, hi = (-math.inf, math.inf) if window is None else (float(window[0]), float(window[1]))
    inside = np.flatnonzero((traces.t >= lo) & (traces.t <= hi))
    if inside.size < 2:
        raise InvalidInputError(f"analysis window holds {inside.size} grid "
                                "point(s); PCA needs at least 2")
    # The grid increases, so the window is one slice of each block: a view.
    first, stop = int(inside[0]), int(inside[-1]) + 1
    cov, sums = np.zeros((stop - first, stop - first)), np.zeros(stop - first)
    with np.errstate(over="ignore", invalid="ignore"):
        for block in traces.blocks():
            x = block[:, first:stop]
            cov += x.T @ x
            sums += x.sum(axis=0, dtype=np.float64)
        # After the pass, so that a trace file's own faults are named first.
        floor = 1.0 / (2.0 * traces.dt)
        if not math.isfinite(floor):
            raise NumericalError(f"vacuum floor 1/(2 dt) is not finite at "
                                 f"dt = {traces.dt:.3g} s")
    cov /= traces.n_events
    mean = sums / traces.n_events
    cov -= np.outer(mean, mean)
    diag = np.diag_indices(stop - first)
    cov[diag] -= floor
    # A Gram entry is bounded by its row's and column's diagonal entries
    # (Cauchy-Schwarz), so a finite diagonal leaves every entry finite.
    if not np.all(np.isfinite(cov[diag])):
        raise NumericalError("trace covariance is not finite: the samples' "
                             "float32 squares overflow")
    mu1, top, second = _top_eigenpair(cov)
    if mu1 <= 0 or mu1 < 2.0 * max(second, 0.0):
        raise AmbiguityError(
            f"leading covariance eigenvalue {mu1:.3e} is not separated from "
            f"the next one {second:.3e}; no preferred temporal mode"
        )
    full = np.zeros(traces.n_bins)
    full[first:stop] = top
    if full[np.argmax(np.abs(full))] < 0:
        full = -full
    return TemporalMode((), (), float(traces.t[stop - 1]), traces.t, full)


def _top_eigenpair(cov: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(mu1, v, second): the largest eigenvalue of the symmetric matrix
    `cov`, its unit eigenvector, and the value that `pca_mode_estimate`
    compares against mu1 / 2 in place of the second eigenvalue.

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
    basis, are tested against _LANCZOS_TOL times the largest |Ritz value|.
    It returns at a test once the top pair passes, theta1 > 0 and
    theta2 + ||r2|| < theta1 / 2, with `second` = theta2 + ||r2||; otherwise
    once both pairs pass, with `second` = theta2.  A basis that fills the
    space, or an invariant subspace, makes them exact.  Neither `second` is
    a proven upper bound on the second eigenvalue: both assume the Krylov
    space has not missed an eigenvalue above theta2 (Parlett, ch. 6).  Once
    the basis holds 2 * _LANCZOS_MAX_STEPS vectors it raises NumericalError
    rather than return an unconverged pair.
    """
    n = cov.shape[0]
    # C times each block is scaled by 2**shift, which is exact, so every
    # iterate is that of C itself; at unit scale no square in a norm
    # overflows, whatever floor a tiny dt subtracted.
    shift = -math.frexp(float(np.abs(np.diagonal(cov)).max()))[1]
    size = min(n, 2 * _LANCZOS_MAX_STEPS)
    basis = np.empty((size, n))  # orthonormal rows
    proj = np.zeros((size, size))  # 2**shift basis @ cov @ basis.T, block tridiagonal
    start = np.random.default_rng(0).standard_normal((n, 2))
    basis[:2] = np.linalg.qr(start)[0].T
    lo, hi = 0, 2  # rows of the current block
    step = 0
    while True:
        step += 1
        w = np.ldexp(basis[lo:hi] @ cov, shift)
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
            if residual[1] <= bar:
                second = theta[-2] if residual[0] <= bar else theta[-2] + residual[0]
                if residual[0] <= bar or (theta[-1] > 0 and second < theta[-1] / 2.0):
                    return (math.ldexp(theta[-1], -shift), basis[:hi].T @ s[:, -1],
                            math.ldexp(second, -shift))
            if grow == 0:
                r1, r2, bar = (math.ldexp(x, -shift) for x in (*residual[::-1], bar))
                raise NumericalError(
                    f"PCA eigensolver did not converge in {step} Lanczos steps: "
                    f"residuals {r1:.2e} and {r2:.2e}, bar {bar:.2e}")
        basis[hi:hi + grow] = q.T[:grow]
        coupling = basis[hi:hi + grow] @ w.T
        proj[hi:hi + grow, lo:hi] = coupling
        proj[lo:hi, hi:hi + grow] = coupling.T
        lo, hi = hi, hi + grow


def mode_quadratures(traces: TraceSet, *modes: TemporalMode) -> np.ndarray:
    """Quadratures sum_t x(t) m(t) dt of every trace in each of the k
    `modes`, as an (n_events, k) array: one pass over the traces against the
    (n_bins, k) matrix of mode samples.  Rows are cast to float64 one block
    at a time, once for all k modes, so the products accumulate in float64
    without a float64 copy of the set."""
    for mode in modes:
        if mode.t.shape != traces.t.shape or not np.allclose(mode.t, traces.t, rtol=0, atol=1e-15):
            raise DimensionError("mode grid must match the trace grid")
    matrix = np.column_stack([mode.samples for mode in modes])
    out = np.empty((traces.n_events, len(modes)))
    for start in range(0, traces.n_events, _CHUNK):
        rows = slice(start, start + _CHUNK)
        out[rows] = traces.traces[rows].astype(np.float64) @ matrix
    return out * traces.dt


def correlations_by_phase(phases: np.ndarray, q_pp: np.ndarray,
                          q_rt: np.ndarray) -> dict:
    """Pearson correlation of two quadrature arrays within each LO phase."""
    out = {}
    for phase in np.unique(phases):
        idx = phases == phase
        if idx.sum() < 2:
            raise InvalidInputError(f"phase bin {phase} has fewer than 2 traces")
        out[float(phase)] = float(np.corrcoef(q_pp[idx], q_rt[idx])[0, 1])
    return out


def realtime_vs_postprocess(traces: TraceSet, filt: MatchedFilter,
                            mode: TemporalMode) -> dict:
    """Pearson correlation, per LO phase, between the digital mode-weighted
    integral and the filtered signal sampled at the herald time; both come
    from one pass over the traces."""
    return correlations_by_phase(traces.phases,
                                 *mode_quadratures(traces, mode, filt.response).T)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<IId")


def save_traces(traces: TraceSet | SimulatedTraces, fh) -> None:
    """Binary layout: header {n_events u32, n_bins u32, dt_ns f64}, then
    row-major float32 samples, then one float64 phase per event.  Frames are
    stored relative to the herald (grid centered on t0 = 0).  `traces` is a
    TraceSet or a SimulatedTraces; it is written one block of rows at a
    time."""
    fh.write(_HEADER.pack(traces.n_events, traces.n_bins, traces.dt * 1e9))
    for block in traces.blocks():
        fh.write(np.ascontiguousarray(block, dtype="<f4"))
    fh.write(np.ascontiguousarray(traces.phases, dtype="<f8"))


class TraceFile:
    """A trace file in `save_traces`'s layout, read one block of rows at a
    time.

    Opening it reads and checks the header: a finite, positive bin width, a
    payload and phase block that the rest of the file holds, and a grid and
    step that pass a TraceSet's checks.  `blocks` reads the payload from the
    end of the header, so `fh` must be seekable, and checks each block for
    non-finite values.  It then reads the phases into `phases` and checks
    that no byte follows them.
    """

    def __init__(self, fh):
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise InvalidInputError("truncated trace file header")
        self.n_events, self.n_bins, dt_ns = _HEADER.unpack(head)
        self.dt = dt_ns * 1e-9
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise InvalidInputError(f"trace file bin width must be positive, got {dt_ns} ns")
        declared = (4 * self.n_bins + 8) * self.n_events
        self._fh, self._start = fh, fh.tell()
        available = fh.seek(0, io.SEEK_END) - self._start
        fh.seek(self._start)
        if available < declared:
            raise InvalidInputError(
                f"trace header declares {self.n_events} x {self.n_bins} samples "
                f"({declared} bytes), but only {available} bytes follow it"
            )
        self.t = _grid((np.arange(self.n_bins) - (self.n_bins - 1) / 2.0) * self.dt)
        _check_step(self.t, self.dt)
        self.phases = None

    def blocks(self, out=None):
        """The payload, _BLOCK_ROWS rows at a time: views of `out`, an
        (n_events, n_bins) float32 array, when it is given, else of one
        buffer that the next block overwrites."""
        fh, n = self._fh, self.n_events
        fh.seek(self._start)
        if out is None:
            buf = np.empty((min(_BLOCK_ROWS, n), self.n_bins), dtype="<f4")
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            block = buf[:stop - start] if out is None else out[start:stop]
            if fh.readinto(block) != block.nbytes:
                raise InvalidInputError("truncated trace payload")
            _check_finite(block)
            yield block
        phases = np.frombuffer(fh.read(8 * n), dtype="<f8")
        if phases.size != n:
            raise InvalidInputError("truncated phase block")
        if fh.read(1):
            raise InvalidInputError("trailing bytes after the phase block")
        self.phases = phases.astype(float)


def load_traces(fh) -> TraceSet:
    """The trace set of a file in `save_traces`'s layout, checked as
    `TraceFile` checks it and read straight into one float32 array."""
    reader = TraceFile(fh)
    traces = np.empty((reader.n_events, reader.n_bins), dtype="<f4")
    for _ in reader.blocks(out=traces):
        pass
    return TraceSet(traces=traces, dt=reader.dt, phases=reader.phases, t=reader.t)


def mode_to_csv(mode: TemporalMode, fh) -> None:
    fh.write("t_ns,amplitude\n")
    for t, a in zip(mode.t, mode.samples):
        fh.write(f"{float(t) * 1e9!r},{float(a)!r}\n")
